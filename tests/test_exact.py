"""An exact referee for certification: positive definiteness decided in
Python integers, with no eigensolver and no rounding.

Every float is a dyadic rational, so at a float stepsize alpha the lifted
Hessian scaled by m,

    m H(alpha/m) = m (I - W) kron I_n + alpha blockdiag(A_k),

is an exact rational matrix of the floats of `mixing.w`, the stored A_k and
alpha. `exact_pd` scales it to integers and decides it by Sylvester's
criterion (every leading principal minor is positive), each minor from
Bareiss's fraction-free elimination. The referee checks the brackets that
certification returns: H is positive definite at the lower end and not at
the upper end. It also decides the oracle: the iteration matrix I - H has
spectral radius below 1 exactly where H and 2I - H are both positive
definite. And it solves H(t) y = -t b in Fractions for the minimizers of
G_alpha, which the engine takes from the Schur eigenpairs instead.
"""

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dgdlab import bounds, cli, costs, lifted, simulator, topology
from dgdlab.config import StepsizeSchedule
from dgdlab.errors import NotInClassError

GOLDEN = Path(__file__).parent / "golden"
README_W = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
TRIANGLE_ADJACENCY = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
RING8_ADJACENCY = [[1 if abs(i - j) in (1, 7) else 0 for j in range(8)] for i in range(8)]


def exact_pd(matrix) -> bool:
    """Whether a symmetric matrix of integers or Fractions is positive definite.

    The matrix is first scaled to integers by the least common multiple of
    its denominators. Bareiss's elimination then leaves the k-th leading
    principal minor as the k-th pivot, dividing each step exactly by the
    previous pivot, and stops at the first minor that is not positive,
    before dividing by it.
    """
    rows = [[Fraction(entry) for entry in row] for row in matrix]
    scale = math.lcm(*(entry.denominator for row in rows for entry in row))
    a = [[int(entry * scale) for entry in row] for row in rows]
    size, previous = len(a), 1
    for k in range(size):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // previous
        previous = pivot
    return True


def exact_hessian(objective: lifted.LiftedObjective, alpha: float) -> list[list[Fraction]]:
    """m H(alpha/m) = m (I - W) kron I_n + alpha blockdiag(A_k) of `objective`,
    exactly, from the floats of mixing.w, the stored A_k and alpha."""
    ensemble, w = objective.ensemble, objective.mixing.w.tolist()
    m, n = ensemble.m, ensemble.n
    step = Fraction(alpha)
    h = [[Fraction(0)] * (m * n) for _ in range(m * n)]
    for k in range(m):
        for l in range(m):
            weight = m * ((k == l) - Fraction(w[k][l]))
            for a in range(n):
                h[k * n + a][l * n + a] += weight
        for a, row in enumerate(ensemble.curvatures[k].tolist()):
            for b, entry in enumerate(row):
                h[k * n + a][k * n + b] += step * Fraction(entry)
    return h


@pytest.mark.parametrize(
    "matrix, definite",
    [
        ([[2, -1], [-1, 2]], True),
        ([[1, 2], [2, 1]], False),  # det -3
        ([[1, 1], [1, 1]], False),  # singular, semidefinite
        ([[0, 0], [0, 1]], False),  # a zero first minor
        ([[4, 2, 2], [2, 2, 0], [2, 0, 1]], False),  # minors 4, 4, -4
        ([[4, 2, 2], [2, 3, 0], [2, 0, 3]], True),  # minors 4, 8, 12
        ([[Fraction(1, 3), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 5)]], True),
        # one part in 10^40 from singular: past any float's digits
        ([[10**40 + 1, 10**40], [10**40, 10**40 + 1]], True),
        ([[10**40, 10**40 + 1], [10**40 + 1, 10**40]], False),
    ],
)
def test_referee_decides_small_matrices(matrix, definite):
    assert exact_pd(matrix) is definite


def test_exact_hessian_is_the_engines_in_exact_arithmetic(mix_quarter):
    # the engine rounds t = alpha/m and each of its products once
    objective = lifted.LiftedObjective(costs.random_ensemble(3, 2, 1.0, seed=5), mix_quarter)
    exact = np.array(exact_hessian(objective, 0.7), dtype=float) / 3
    np.testing.assert_allclose(objective.hessian(0.7), exact, rtol=1e-15, atol=1e-16)


def _assert_bracket_is_exact(objective):
    """The bracket of `objective`, with H(lo) positive definite and H(hi) not,
    both decided exactly; None where it is out of class or every stepsize
    certifies."""
    try:
        lo, hi = objective.strong_convexity_threshold()
    except NotInClassError:
        return None
    if lo == math.inf:
        return None
    assert exact_pd(exact_hessian(objective, lo)), lo
    assert not exact_pd(exact_hessian(objective, hi)), hi
    return lo, hi


def test_readme_brackets_are_exactly_right():
    # README's W and seeds 0-39: every in-class instance with a finite edge
    mixing = topology.validate_mixing(np.array(README_W))
    brackets = [
        _assert_bracket_is_exact(
            lifted.LiftedObjective(costs.random_ensemble(3, 2, 1.0, seed=seed), mixing)
        )
        for seed in range(40)
    ]
    assert sum(b is not None for b in brackets) == 27


def test_ring8_bracket_is_exactly_right():
    # the bounds_ring8 golden instance: an 8-agent Metropolis ring, nm = 16
    mixing = topology.metropolis_weights(np.array(RING8_ADJACENCY))
    objective = lifted.LiftedObjective(costs.random_ensemble(8, 2, 1.0, seed=3), mixing)
    assert objective.ensemble.m * objective.ensemble.n == 16
    assert _assert_bracket_is_exact(objective) is not None


def test_family_brackets_are_exactly_right():
    # the benchmark's planted family, epsilon = k/5 up to 2L at L = 10, mu = 1
    # on README's W, in sweep-epsilon's blocks: every finite bracket holds
    # exactly, and the row at epsilon = 2L is blank
    mixing = topology.validate_mixing(np.array(README_W))
    epsilons = [k / 5 for k in range(1, 101)]
    finite = 0
    for start in range(0, len(epsilons), cli._EPSILON_BLOCK):
        block = epsilons[start : start + cli._EPSILON_BLOCK]
        stack = lifted.ThresholdStack(costs.epsilon_family(10.0, 1.0, block), mixing)
        lo, hi = stack.brackets()
        for epsilon, a, b in zip(block, lo.tolist(), hi.tolist(), strict=True):
            if epsilon == 20.0:
                assert math.isnan(a) and math.isnan(b)
                continue
            objective = lifted.LiftedObjective(costs.epsilon_example(10.0, 1.0, epsilon), mixing)
            assert exact_pd(exact_hessian(objective, a)), epsilon
            assert not exact_pd(exact_hessian(objective, b)), epsilon
            finite += 1
    assert finite == 99


def exact_contraction_margin(objective: lifted.LiftedObjective, alpha: float):
    """2m I - m H(alpha/m), exactly: positive definite iff H < 2I."""
    h = exact_hessian(objective, alpha)
    twice = 2 * objective.ensemble.m
    return [[twice * (i == j) - entry for j, entry in enumerate(row)] for i, row in enumerate(h)]


def test_oracle_verdicts_are_exactly_right():
    # README's W, the in-class seeds 0-19, at alpha = c m / L: rho(I - H) < 1
    # iff H and 2I - H are positive definite, decided exactly, and the oracle's
    # eigensolve agrees wherever rho is not within 1e-9 of 1
    mixing = topology.validate_mixing(np.array(README_W))
    multiples = (0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0)
    decided = 0
    for seed in range(20):
        ensemble = costs.random_ensemble(3, 2, 1.0, seed=seed)
        if np.linalg.eigvalsh(ensemble.aggregate_a)[0] <= 0:
            continue
        objective = lifted.LiftedObjective(ensemble, mixing)
        alphas = [c * ensemble.m / ensemble.smoothness_constant() for c in multiples]
        for alpha, verdict in zip(alphas, simulator.boundedness_verdicts(objective, alphas)):
            if abs(verdict.spectral_radius - 1.0) <= 1e-9:
                continue
            exact = exact_pd(exact_hessian(objective, alpha)) and exact_pd(
                exact_contraction_margin(objective, alpha)
            )
            assert exact == verdict.bounded, (seed, alpha, verdict)
            decided += 1
    assert decided == 16 * len(multiples)


@pytest.mark.parametrize(
    "mixing",
    [
        topology.validate_mixing(np.array(README_W)),
        topology.metropolis_weights(np.array(TRIANGLE_ADJACENCY)),
    ],
    ids=["readme", "triangle"],
)
def test_nonexpansiveness_precondition_is_exactly_right(mixing):
    # nonexpansiveness_check's precondition alpha <= m (1 + lambda_min(W)) / L,
    # a relative 1e-9 inside: there H < 2I, decided exactly, on README seeds 0-39
    for seed in range(40):
        ensemble = costs.random_ensemble(3, 2, 1.0, seed=seed)
        floor = bounds.lambda_min_bound(mixing.spectral.lambda_min, ensemble.smoothness_constant())
        alpha = (1.0 - 1e-9) * ensemble.m * floor
        objective = lifted.LiftedObjective(ensemble, mixing)
        assert exact_pd(exact_contraction_margin(objective, alpha)), (seed, alpha)


def exact_minimizer(objective: lifted.LiftedObjective, alpha: float) -> list[Fraction]:
    """The minimizer y(alpha) of G_alpha, exactly: m H(alpha/m) y = -alpha b
    solved by Gaussian elimination in Fractions. Its pivots are positive
    wherever alpha is certified, so it needs no pivoting."""
    h = exact_hessian(objective, alpha)
    step = Fraction(alpha)
    rows = [
        row + [-step * Fraction(entry)]
        for row, entry in zip(h, objective.ensemble.linear_terms.reshape(-1).tolist(), strict=True)
    ]
    size = len(rows)
    for k in range(size):
        for i in range(k + 1, size):
            factor = rows[i][k] / rows[k][k]
            for j in range(k, size + 1):
                rows[i][j] -= factor * rows[k][j]
    y = [Fraction(0)] * size
    for i in reversed(range(size)):
        y[i] = (rows[i][size] - sum(rows[i][j] * y[j] for j in range(i + 1, size))) / rows[i][i]
    return y


def exact_distance(x, y) -> Fraction:
    """||x - y|| for floats x and Fractions y, to within 2^-200."""
    squares = sum((Fraction(a) - b) ** 2 for a, b in zip(x, y, strict=True))
    bits = 200
    return Fraction(math.isqrt(squares.numerator * 4**bits // squares.denominator), 2**bits)


def test_minimizers_are_exactly_right():
    # README's W and seeds 0-39, at 0.1, 0.5 and 0.9 of every finite edge: the
    # Schur basis gives y(alpha) to a relative 5e-14 of the exact solve (an
    # eigenbasis of the pencil (B, H(t0)) at t0 = half the edge reaches 9.2e-14)
    mixing = topology.validate_mixing(np.array(README_W))
    checked = 0
    for seed in range(40):
        objective = lifted.LiftedObjective(costs.random_ensemble(3, 2, 1.0, seed=seed), mixing)
        edge = objective.certified_interval[1]
        if not 0 < edge < math.inf:
            continue
        for alpha in (0.1 * edge, 0.5 * edge, 0.9 * edge):
            exact = exact_minimizer(objective, alpha)
            error = exact_distance(objective.minimizer(alpha).tolist(), exact)
            size = exact_distance([0.0] * len(exact), exact)
            assert error <= Fraction(5e-14) * size, (seed, alpha, float(error / size))
            checked += 1
    assert checked == 81


def test_golden_lifted_distance_is_exactly_right():
    # the golden trajectory's dist_lifted_min on README's seed 5 at alpha = 0.5:
    # every cell within 1e-16 of the exact distance from the run's state to y(0.5)
    mixing = topology.validate_mixing(np.array(README_W))
    ensemble = costs.random_ensemble(3, 2, 1.0, seed=5)
    exact = exact_minimizer(lifted.LiftedObjective(ensemble, mixing), 0.5)
    states = simulator.run(
        ensemble, mixing, StepsizeSchedule.constant(0.5), horizon=400, record_every=1
    ).states
    with open(GOLDEN / "simulate_readme5_trajectory.csv", newline="") as handle:
        cells = [float(row["dist_lifted_min"]) for row in csv.DictReader(handle)]
    assert len(cells) == len(states) == 401
    for t, (cell, state) in enumerate(zip(cells, states.tolist())):
        assert abs(Fraction(cell) - exact_distance(state, exact)) <= Fraction(1e-16), t
