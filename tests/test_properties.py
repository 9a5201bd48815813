"""Property tests of the CLI's exit codes and of certification.

For generated JSON configs the CLI exits 0, 2, 3 or 4. A malformed value
anywhere in a config must end in exit 2 with one line of diagnosis, never
in a Python traceback; a number replaced by a value of another JSON type
always does. Each example is a well-formed config (with extreme but legal
numbers among its values) in which at most one entry, at any depth, is
replaced by an out-of-range, non-finite or mistyped value. Horizons stay
short so that a run costs milliseconds.

For generated in-class instances (random ensembles on Metropolis weights of
random connected graphs), alpha_A agrees with a pencil edge computed here
from a Cholesky anchor, the Hessian's smallest eigenvalue changes sign
across it, and certify agrees with that sign wherever it is decisive.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dgdlab import cli, costs, lifted, topology

README_W = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
UNIFORM_W = [[1 / 3] * 3] * 3
SKEWED_W = [[0.4, 0.3, 0.3], [0.3, 0.3, 0.4], [0.3, 0.4, 0.3]]
TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

COMMANDS = ["bounds", "simulate", "sweep-alpha", "sweep-epsilon", "validate-topology"]

HUGE = [1e12, 1e154, 1e300, 1.7e308]
TINY = [5e-324, 1e-300, 1e-12]

# a replacement value: any number json can carry (it writes NaN and
# Infinity, and json.load reads them back) or a value of the wrong type
bad = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 2, -1e308, *TINY, *HUGE]),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.sampled_from(["type", "W", "alpha"]), st.integers(0, 2), max_size=2),
)


def legal(low: float, high: float, extremes=()):
    return st.one_of(st.floats(low, high), st.sampled_from([low, high, *extremes]))


stepsize = legal(1e-3, 5.0, TINY + HUGE)
mixing = st.one_of(
    st.builds(lambda w: {"type": "explicit", "W": w},
              st.sampled_from([README_W, UNIFORM_W, SKEWED_W])),
    st.just({"type": "metropolis", "adjacency": TRIANGLE}),
)
ensemble = st.one_of(
    st.fixed_dictionaries({
        "type": st.just("random"), "m": st.just(3), "n": st.integers(1, 3),
        "epsilon": legal(0.0, 5.0, HUGE), "seed": st.integers(0, 50),
    }),
    st.fixed_dictionaries({
        "type": st.just("epsilon_example"), "L": legal(1.0, 20.0, HUGE),
        "mu": legal(0.01, 1.0, TINY), "epsilon": legal(0.0, 30.0, HUGE),
    }),
    st.builds(
        lambda scale: {"type": "explicit",
                       "costs": [{"A": [[2.0 * scale, 0.5], [0.5, 1.0]], "b": [1.0, -1.0]}] * 3},
        legal(-2.0, 2.0, TINY + HUGE),
    ),
)
schedule = st.one_of(
    st.fixed_dictionaries({"type": st.just("constant"), "alpha": stepsize}),
    st.fixed_dictionaries(
        {"type": st.just("polynomial"), "a": stepsize},
        optional={"w": legal(1.0, 5.0, HUGE), "p": legal(0.1, 1.0)},
    ),
)
config = st.fixed_dictionaries(
    {"ensemble": ensemble, "mixing": mixing, "schedule": schedule, "horizon": st.integers(1, 40)},
    optional={
        "divergence_threshold": legal(1e-3, 1e12, HUGE),
        "record_every": st.integers(1, 5),
        "track_lifted": st.booleans(),
        "x0": st.lists(legal(-2.0, 2.0, HUGE), min_size=6, max_size=6),
        "alpha_multiples": st.lists(legal(0.1, 3.0, HUGE), max_size=3),
        "sweep_base": st.sampled_from(["alpha_A", "main"]),
        "epsilons": st.lists(legal(0.0, 30.0, HUGE), max_size=4),
        "L": legal(1.0, 20.0, HUGE),
        "mu": legal(0.01, 1.0, TINY),
        "threshold": st.fixed_dictionaries({}, optional={"scan_cap": legal(1e-3, 1e3, HUGE)}),
    },
)


def entries(node, path=()):
    """Every entry of `node`, at every depth, as (path of keys, value) pairs."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield (*path, key), child
        if isinstance(child, (dict, list)):
            yield from entries(child, (*path, key))


def replaced(node, path, value):
    """A copy of `node` whose entry at `path` is `value`."""
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = value if len(path) == 1 else replaced(node[path[0]], path[1:], value)
    return out


def perturb(node, draw):
    """`node` with one entry, drawn from the entries at every depth, replaced
    by a bad value; with that entry's path, the value it held and the value
    that replaced it."""
    path, old = draw(st.sampled_from(list(entries(node))))
    new = draw(bad)
    return replaced(node, path, new), path, old, new


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(command=st.sampled_from(COMMANDS), data=config, out=st.booleans(), draws=st.data())
def test_cli_exits_with_a_code_never_a_traceback(command, data, out, draws):
    mistyped = False
    # hypothesis draws False more often than True: about 2 in 3 examples are perturbed
    if not draws.draw(st.booleans()):
        data, key_path, old, new = perturb(data, draws.draw)
        # a number replaced by a boolean, string, null, list or object; the
        # mixing spec is all that validate-topology reads
        mistyped = is_number(old) and not is_number(new)
        mistyped = mistyped and (command != "validate-topology" or key_path[0] == "mixing")
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as handle:
            # a validate-topology config is a mixing spec on its own
            json.dump(data.get("mixing") if command == "validate-topology" else data, handle)
        argv = [command, "--config", path]
        if out and command != "validate-topology":
            argv += ["--out", os.path.join(work, "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if mistyped:
        assert code == 2, stderr.getvalue()
    if code:
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()


@st.composite
def in_class_draws(draw):
    """(ensemble, mixing): random_ensemble(m, n, epsilon, seed) on the
    Metropolis weights of a random spanning path plus random extra edges."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    order = draw(st.permutations(range(m)))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = list(zip(order, order[1:])) + draw(st.lists(st.sampled_from(pairs), max_size=m))
    adjacency = np.zeros((m, m), dtype=int)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    epsilon = draw(st.floats(0.2, 2.0))
    ensemble = costs.random_ensemble(m, n, epsilon, seed=draw(st.integers(0, 2**32 - 1)))
    return ensemble, topology.metropolis_weights(adjacency)


def pencil_edge(curvatures: np.ndarray, w: np.ndarray) -> float:
    """alpha_A as perfbench/reference.py computes it, in numpy alone: with
    H(t0) = L L^T positive definite, H(t) = L (I + (t - t0) P) L^T for
    P = L^-1 B L^-T, so H(t) stays positive definite while t < t0 - 1/nu_min(P).
    t0 is the point of a geometric ladder where H's smallest eigenvalue is
    largest, which keeps L well conditioned."""
    m, n, _ = curvatures.shape
    c = np.kron(np.eye(m) - w, np.eye(n))
    b = np.zeros((m * n, m * n))
    for k, a in enumerate(curvatures):
        b[k * n : (k + 1) * n, k * n : (k + 1) * n] = a
    ladder = np.geomspace(1e3, 1e-9, 37) / m
    t0 = ladder[np.argmax([np.linalg.eigvalsh(c + t * b)[0] for t in ladder])]
    lower = np.linalg.cholesky(c + t0 * b)
    left = np.linalg.solve(lower, b)
    pencil = np.linalg.solve(lower, left.T)
    nu_min = np.linalg.eigvalsh(0.5 * (pencil + pencil.T))[0]
    return math.inf if nu_min >= 0 else m * (t0 - 1.0 / nu_min)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(draw=in_class_draws())
def test_certification_agrees_with_the_pencil_and_the_spectrum(draw):
    ensemble, mixing = draw
    assume(np.linalg.eigvalsh(ensemble.aggregate_a)[0] > 0)
    objective = lifted.LiftedObjective(ensemble, mixing)
    alpha_a = objective.strong_convexity_threshold(scan_cap=math.inf).alpha
    edge = pencil_edge(ensemble.curvatures, mixing.w)
    if math.isinf(edge):
        assert math.isinf(alpha_a)
        alphas = [1e-3, 1.0, 1e3]
    else:
        assert abs(alpha_a - edge) <= 1e-8 * edge, (alpha_a, edge)
        below, above = (np.linalg.eigvalsh(objective.hessian(f * alpha_a))[0]
                        for f in (1 - 1e-6, 1 + 1e-6))
        assert below > 0 > above, (below, above)
        alphas = [f * alpha_a for f in (1e-3, 0.5, 1 - 1e-6, 1 + 1e-6, 2.0)]
    for alpha in alphas:
        lam = np.linalg.eigvalsh(objective.hessian(alpha))[0]
        if abs(lam) > 1e-9:
            assert objective.certify(alpha).is_strongly_convex == (lam > 0), (alpha, lam)
