"""Tests of the benchmark's tracer and reference gate.

    python3 -m pytest perfbench
"""

import hashlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402


def traced_pass(workload):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(spans.ROOT_SPAN):
            output = workload.run_pass()
    finally:
        tracer.uninstall()
    assert workload.check(output) == []
    return tracer


def layer_counts(tracer) -> dict:
    counts = {name: entry["calls"] for name, entry in tracer.stats().items()}
    counts.update(tracer.counts)
    counts.update({key: len(values) for key, values in tracer.seen.items()})
    return counts


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return workloads.WORKLOADS[request.param](5, str(tmp_path))


def test_layer_counts_repeat_exactly(workload):
    first, second = traced_pass(workload), traced_pass(workload)
    assert layer_counts(first) == layer_counts(second)
    assert layer_counts(first)["numerics.sym_eigen"] > 0


def test_layer_and_cli_self_times_cover_traced_wall(workload):
    """The root span's own time is what no layer or cli span accounts for; it stays small."""
    stats = traced_pass(workload).stats()
    wall = stats.pop(spans.ROOT_SPAN)["total_s"]
    covered = sum(entry["self_s"] for entry in stats.values())
    assert all(entry["self_s"] >= 0 for entry in stats.values())
    assert 0.95 * wall <= covered <= wall * (1 + 1e-9)


def dgdlab_bindings() -> dict:
    """Every module global and class attribute of dgdlab, by identity."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "dgdlab" or name.startswith("dgdlab."):
            for key, value in vars(module).items():
                out[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


def src_digest() -> str:
    return hashlib.sha256(b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py")))).hexdigest()


def test_tracer_wraps_every_lookup_site_and_leaves_src_unchanged(tmp_path):
    from dgdlab import costs, lifted, numerics, simulator, topology

    digest, bindings = src_digest(), dgdlab_bindings()
    original = numerics.sym_eigen
    sites = {
        "sym_eigen": (numerics, topology, costs, simulator),
        "solve_spd": (numerics, lifted, costs),
        "min_eigenvalue": (numerics, lifted),
    }
    originals = {name: getattr(numerics, name) for name in sites}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, modules in sites.items():
            wrappers = {id(getattr(module, name)) for module in modules}
            assert len(wrappers) == 1 and getattr(numerics, name) is not originals[name]
        workload = workloads.WORKLOADS["certify-ring16"](5, str(tmp_path))
        with tracer.span(spans.ROOT_SPAN):
            workload.run_pass()
    finally:
        tracer.uninstall()
    assert tracer.stats()["numerics.sym_eigen"]["calls"] > 0
    assert numerics.sym_eigen is original
    assert dgdlab_bindings() == bindings
    assert src_digest() == digest


def test_reference_gate_rejects_a_shifted_threshold(tmp_path):
    workload = workloads.WORKLOADS["sweep-epsilon-family"](0, str(tmp_path))
    code, stdout = workload.run_pass()
    assert workload.check((code, stdout)) == []
    lines = stdout.splitlines()
    eps, alpha_a, *rest = lines[5].split(",")
    shifted = repr(float(alpha_a) + 10 * workloads.RESOLUTION)
    lines[5] = ",".join([eps, shifted, *rest])
    problems = workload.check((code, "\n".join(lines) + "\n"))
    assert len(problems) == 1 and f"epsilon {eps}" in problems[0]
    blank = ",".join([eps, "", *rest])
    lines[5] = blank
    assert workload.check((code, "\n".join(lines) + "\n"))
