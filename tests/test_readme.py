"""README's Library example runs as written and prints the verdicts it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_verdicts():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "1.0 10.0"  # the planted ensemble's aggregate mu and L
    assert lines[-2] == "bounded True"
    assert lines[-1] == "['bounded', 'bounded', 'diverged']"
