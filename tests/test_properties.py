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
across it, and certify agrees with that sign wherever it is decisive. On
the same draws, one agent included, and on README's instances, the oracle's
spectral radius, which it reads from the lifted Hessians, agrees with that
of W kron I_n - (alpha/m) blockdiag(A_k) built here with np.kron.

Scaling every A_k and b_k by a power of 4 is a change of units that rounds
nowhere: on README's instances every stepsize edge and bound scales by 1/s,
eta by s, and the oracle's radius at alpha/s stays, bit for bit. So do the
bounds and radii of identical agents, whose alpha_gd, eta and alpha_S stay
finite at every scale. Scaling b_k and x0 by a power of 2 scales a run's
metrics by it, bit for bit, past the squares' overflow too.
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

from dgdlab import bounds, cli, costs, lifted, simulator, topology

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
        "record_every": st.just(1),  # the one value besides absent
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
def in_class_draws(draw, min_agents=2):
    """(ensemble, mixing): random_ensemble(m, n, epsilon, seed) on the
    Metropolis weights of a random spanning path plus random extra edges,
    with m from `min_agents` to 8."""
    m, n = draw(st.integers(min_agents, 8)), draw(st.integers(1, 3))
    order = draw(st.permutations(range(m)))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = list(zip(order, order[1:]))
    if pairs:  # one agent has no edge to draw
        edges += draw(st.lists(st.sampled_from(pairs), max_size=m))
    adjacency = np.zeros((m, m), dtype=int)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    epsilon = draw(st.floats(0.2, 2.0))
    ensemble = costs.random_ensemble(m, n, epsilon, seed=draw(st.integers(0, 2**32 - 1)))
    return ensemble, topology.metropolis_weights(adjacency)


def block_diagonal(curvatures: np.ndarray) -> np.ndarray:
    """blockdiag(A_1, ..., A_m), one block at a time."""
    m, n, _ = curvatures.shape
    b = np.zeros((m * n, m * n))
    for k, a in enumerate(curvatures):
        b[k * n : (k + 1) * n, k * n : (k + 1) * n] = a
    return b


def pencil_edge(curvatures: np.ndarray, w: np.ndarray) -> float:
    """alpha_A as perfbench/reference.py computes it, in numpy alone: with
    H(t0) = L L^T positive definite, H(t) = L (I + (t - t0) P) L^T for
    P = L^-1 B L^-T, so H(t) stays positive definite while t < t0 - 1/nu_min(P).
    t0 is the point of a geometric ladder where H's smallest eigenvalue is
    largest, which keeps L well conditioned."""
    m, n, _ = curvatures.shape
    c = np.kron(np.eye(m) - w, np.eye(n))
    b = block_diagonal(curvatures)
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


# oracle stepsizes: these multiples of m / L, and of alpha_A where it is finite
SCALED_STEPSIZES = (0.05, 0.5, 1.5, 1.9, 2.1, 4.0)
EDGE_MULTIPLES = (0.5, 0.99, 1.01, 2.0)


def assert_oracle_matches_kron(ensemble, mixing):
    """The oracle's spectral radius is that of M_alpha = W kron I_n - (alpha/m)
    blockdiag(A_k), built here with np.kron rather than from the lifted
    Hessians, to 1e-12 relative; where it is not within 1e-9 of 1, the
    verdicts agree too."""
    m, n = ensemble.m, ensemble.n
    edge = lifted.LiftedObjective(ensemble, mixing).certified_interval[1]
    alphas = [m * c / ensemble.smoothness_constant() for c in SCALED_STEPSIZES]
    if 0 < edge < math.inf:
        alphas += [f * edge for f in EDGE_MULTIPLES]
    kron, blocks = np.kron(mixing.w, np.eye(n)), block_diagonal(ensemble.curvatures)
    for alpha, verdict in zip(alphas, simulator.boundedness_verdicts(ensemble, mixing, alphas)):
        rho = float(np.abs(np.linalg.eigvalsh(kron - (alpha / m) * blocks)).max())
        assert abs(verdict.spectral_radius - rho) <= 1e-12 * rho, (alpha, verdict, rho)
        if abs(rho - 1.0) > 1e-9:
            assert verdict.bounded == (rho < 1.0), (alpha, rho)


def test_oracle_matches_the_kron_iteration_matrix_on_readme_seeds():
    mixing = topology.validate_mixing(np.array(README_W))
    for seed in range(200):
        assert_oracle_matches_kron(costs.random_ensemble(3, 2, 1.0, seed=seed), mixing)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(draw=in_class_draws(min_agents=1))
def test_oracle_matches_the_kron_iteration_matrix(draw):
    assert_oracle_matches_kron(*draw)


UNITS = 4.0 ** np.arange(-60, 61)  # s = 4^k, k in [-60, 60]


def test_schur_edges_scale_with_the_units():
    """_edges of s A is _edges of A over s on README seeds 0-199. The edge is
    checked without `scan_cap`, which is absolute: the cap is the part of the
    thresholds that does not yet scale with the units."""
    mixing = topology.validate_mixing(np.array(README_W))
    curvatures = np.stack([costs.random_ensemble(3, 2, 1.0, seed=s).curvatures for s in range(200)])
    edges = lifted.ThresholdStack(curvatures, mixing)._edges
    assert np.isinf(edges).any() and (edges == 0).any() and np.isfinite(edges[edges > 0]).any()
    scaled = (UNITS[:, None, None, None, None] * curvatures).reshape(-1, 3, 2, 2)
    scaled_edges = lifted.ThresholdStack(scaled, mixing)._edges.reshape(len(UNITS), -1)
    assert np.array_equal(scaled_edges, edges / UNITS[:, None])


# three identical agents: the aggregate's mean can round mu above L (0.1 I_2 does)
IDENTICAL_CURVATURES = [
    [[0.1, 0.0], [0.0, 0.1]],
    [[0.7, 0.0], [0.0, 0.7]],
    [[2.0, 0.5], [0.5, 1.0]],
    [[3.0, -1.0], [-1.0, 0.5]],
]


def _unit_cases():
    """(name, ensemble): README seeds 0-11, then the identical agents."""
    linear = np.array([[1.0, -1.0], [0.5, 2.0], [-1.0, 0.0]])
    cases = [(f"seed {seed}", costs.random_ensemble(3, 2, 1.0, seed=seed)) for seed in range(12)]
    return cases + [
        (f"identical {a}", costs.QuadraticEnsemble(np.array([a] * 3), linear))
        for a in IDENTICAL_CURVATURES
    ]


def test_bounds_and_verdicts_scale_with_the_units():
    """On README seeds 0-11 and on identical agents the closed-form bounds of
    s A scale by 1/s (eta by s), and the oracle's radius at alpha/s is the
    radius at alpha. Identical agents keep alpha_gd, eta and alpha_S finite
    at every scale."""
    mixing = topology.validate_mixing(np.array(README_W))
    lam, beta = mixing.spectral.lambda_min, mixing.spectral.beta
    for case, ensemble in _unit_cases():
        alpha_gd, alpha_l, eta, alpha_s = bounds.stepsize_bounds(
            lam, beta, *bounds._smoothness_and_mu(ensemble)
        )
        alphas = [3 * c / ensemble.smoothness_constant() for c in SCALED_STEPSIZES]
        rhos = [v.spectral_radius for v in simulator.boundedness_verdicts(ensemble, mixing, alphas)]
        for s in UNITS.tolist():
            scaled = costs.QuadraticEnsemble(s * ensemble.curvatures, s * ensemble.linear_terms)
            got = bounds.stepsize_bounds(lam, beta, *bounds._smoothness_and_mu(scaled))
            want = (alpha_gd / s, alpha_l / s, eta * s, None if alpha_s is None else alpha_s / s)
            assert np.array_equal(got[:3], want[:3], equal_nan=True) and got[3] == want[3], (
                case, s, got, want,
            )
            if case.startswith("identical"):
                assert got[3] is not None and np.isfinite([got[0], got[2], got[3]]).all(), (
                    case, s, got,
                )
            verdicts = simulator.boundedness_verdicts(scaled, mixing, [a / s for a in alphas])
            assert [v.spectral_radius for v in verdicts] == rhos, (case, s)


def test_stepsize_bounds_scale_exactly_across_the_float_range():
    """stepsize_bounds at (s L, s mu), s = 4^k for k in [-500, 500] in steps
    of 25, is its value at (L, mu) with alpha_gd, alpha_L and alpha_S over s
    and eta times s, with no tolerance, on README seeds 0-11 and identical
    agents. L and mu are scaled here, not taken from an eigensolve of s A,
    which LAPACK rescales at extreme norms."""
    mixing = topology.validate_mixing(np.array(README_W))
    lam, beta = mixing.spectral.lambda_min, mixing.spectral.beta
    for case, ensemble in _unit_cases():
        smooth, mu = bounds._smoothness_and_mu(ensemble)
        alpha_gd, alpha_l, eta, alpha_s = bounds.stepsize_bounds(lam, beta, smooth, mu)
        for k in range(-500, 501, 25):
            s = 4.0**k
            got = bounds.stepsize_bounds(lam, beta, s * smooth, s * mu)
            want = (alpha_gd / s, alpha_l / s, eta * s, None if alpha_s is None else alpha_s / s)
            assert np.array_equal(got[:3], want[:3], equal_nan=True) and got[3] == want[3], (
                case, k, got, want,
            )


def test_run_metrics_scale_exactly_with_the_units():
    """README's seed 5 with b and x0 times 2^k: each state and minimizer
    scales by 2^k exactly, so R(t), consensus_err and dist_lifted_min are the
    scale-1 values times 2^k, bit for bit, also where their squares overflow
    (k = 900 and 1000) and are taken again in a binary unit."""
    mixing = topology.validate_mixing(np.array(README_W))
    seed5 = costs.random_ensemble(3, 2, 1.0, seed=5)
    schedules = [simulator.StepsizeSchedule.polynomial(a=a, w=1.0, p=0.5) for a in (0.2, 0.3)]

    def records(scale):
        ensemble = costs.QuadraticEnsemble(seed5.curvatures, scale * seed5.linear_terms)
        return simulator.run_batch(
            ensemble, mixing, schedules, x0=scale * np.linspace(-1.0, 1.0, 6), horizon=300,
            divergence_threshold=math.inf,
            lifted_distance=lifted.LiftedObjective(ensemble, mixing),
        )

    plain = records(1.0)
    for k in (0, 500, 900, 1000):
        for schedule, want, got in zip(schedules, plain, records(2.0**k)):
            assert got.verdict == want.verdict == "bounded", (k, schedule)
            for name in ("r", "consensus_err", "dist_lifted_min"):
                assert np.array_equal(getattr(got, name), 2.0**k * getattr(want, name)), (
                    k, schedule, name,
                )
