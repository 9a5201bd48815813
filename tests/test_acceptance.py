"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Each test pins its tolerance inline.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from dgdlab import bounds, cli, costs, lifted, simulator, topology
from dgdlab.simulator import StepsizeSchedule

W_QUARTER = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
W_SKEWED = np.array([[0.4, 0.3, 0.3], [0.3, 0.3, 0.4], [0.3, 0.4, 0.3]])

# Random-recipe instances (m=3, n=2, curvature noise epsilon=1.0) whose
# aggregate is strongly convex, at least one local block is indefinite, and
# whose certified-threshold crossing is spectrally decisive, so that a 1e4
# step horizon can witness divergence just above the threshold.  Soft
# crossings (radius within ~1e-3 of 1 at 1.01x) diverge too slowly for any
# finite-horizon verdict and would make the oracle comparison vacuous.
RECIPE_EPSILON = 1.0
RECIPE_SEEDS = [5, 10, 15, 16, 21, 22, 32, 34, 42, 48, 51, 58, 60, 63, 67, 73, 77, 78, 82, 83]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {label}: FAIL ({type(exc).__name__})")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _mix(w):
    return topology.validate_mixing(w)


def _recipe_instance(seed):
    ens = costs.random_ensemble(3, 2, RECIPE_EPSILON, seed=seed)
    # recipe preconditions: strongly convex aggregate, indefinite local block
    assert ens.aggregate_mu() > 0.05
    assert np.linalg.eigvalsh(ens.curvatures).min() < -0.05
    return ens


def _aggregate_sc_seeds(count, epsilon=RECIPE_EPSILON, start=0, mu_floor=0.05):
    seeds = []
    seed = start
    while len(seeds) < count:
        if costs.random_ensemble(3, 2, epsilon, seed=seed).aggregate_mu() > mu_floor:
            seeds.append(seed)
        seed += 1
    return seeds


def test_01_bound_formulas_match_reference_values():
    with criterion("01 bound-formulas"):
        assert bounds.spectral_gap_bound(1.0, 10.0, 0.1) == pytest.approx(0.0075, abs=1e-4)
        assert bounds.lambda_min_bound(0.25, 7.2615) == pytest.approx(0.1721, abs=1e-3)
        summary = _mix(W_QUARTER).spectral
        assert summary.lambda_min == pytest.approx(0.25, abs=1e-10)


def test_02_threshold_sweep_verdicts():
    """Stepsizes below min(alpha_A, alpha_L) stay bounded; just above
    alpha_A the finite-horizon verdict matches the exact oracle."""
    with criterion("02 threshold-sweep"):
        mix = _mix(W_QUARTER)
        assert len(RECIPE_SEEDS) >= 20
        for seed in RECIPE_SEEDS:
            ens = _recipe_instance(seed)
            obj = lifted.LiftedObjective(ens, mix)
            alpha_a, _ = obj.strong_convexity_threshold()
            assert math.isfinite(alpha_a) and alpha_a > 0
            floor = bounds.lambda_min_bound(
                mix.spectral.lambda_min, ens.smoothness_constant()
            )
            safe = min(alpha_a, floor)
            # (mult, alpha, exact verdict or None where "bounded" is required)
            cases = [(mult, mult * safe, None) for mult in (0.5, 0.95, 0.99)]
            for mult in (1.01, 1.02):
                alpha = mult * alpha_a
                verdict = simulator.boundedness_oracle(ens, mix, alpha)
                if verdict.is_critical:
                    continue
                cases.append((mult, alpha, verdict))
            records = simulator.run_batch(
                ens, mix, [StepsizeSchedule.constant(alpha) for _, alpha, _ in cases],
                horizon=10_000,
            )
            for (mult, _, verdict), rec in zip(cases, records):
                if verdict is None:
                    assert rec.verdict == "bounded", (seed, mult)
                    continue
                assert (rec.verdict == "bounded") == verdict.bounded, (
                    seed, mult, verdict.spectral_radius,
                )


def test_03_oracle_equivalence_grid():
    """200 (instance, stepsize) pairs decided by spectral radius: the
    finite-horizon verdict agrees with the oracle on every one."""
    with criterion("03 oracle-equivalence"):
        mix = _mix(W_QUARTER)

        def critical_alpha(ens):
            rho = lambda a: simulator.boundedness_oracle(ens, mix, a).spectral_radius
            lo, hi = 1e-4, 64.0
            assert rho(lo) <= 1.0
            while rho(hi) <= 1.0:
                hi *= 2.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if rho(mid) <= 1.0:
                    lo = mid
                else:
                    hi = mid
            return lo

        pairs = 0
        for seed in _aggregate_sc_seeds(20):
            ens = costs.random_ensemble(3, 2, RECIPE_EPSILON, seed=seed)
            a_star = critical_alpha(ens)
            multiples = [0.15, 0.35, 0.55, 0.75, 0.9, 0.97]
            for cand in (1.05, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0):
                v = simulator.boundedness_oracle(ens, mix, cand * a_star)
                if v.spectral_radius >= 1.006:
                    multiples.append(cand)
                if len(multiples) == 10:
                    break
            cases = []
            for mult in multiples:
                alpha = mult * a_star
                verdict = simulator.boundedness_oracle(ens, mix, alpha)
                if abs(verdict.spectral_radius - 1.0) <= 1e-5:
                    continue
                cases.append((mult, alpha, verdict))
            records = simulator.run_batch(
                ens, mix, [StepsizeSchedule.constant(alpha) for _, alpha, _ in cases],
                horizon=10_000,
            )
            for (mult, _, verdict), rec in zip(cases, records):
                pairs += 1
                assert (rec.verdict == "bounded") == verdict.bounded, (
                    seed, mult, verdict.spectral_radius,
                )
        assert pairs >= 200, pairs


def test_04_modulus_scaling_monotonicity():
    """Certified at alpha implies certified at any beta <= alpha with
    modulus at least (beta/alpha) times the original."""
    with criterion("04 modulus-scaling"):
        mix = _mix(W_QUARTER)
        rng = np.random.default_rng(2024)
        checked = 0
        seed = 0
        while checked < 100:
            eps = RECIPE_EPSILON if seed % 2 == 0 else 4.5
            ens = costs.random_ensemble(3, 2, eps, seed=seed)
            seed += 1
            if ens.aggregate_mu() <= 0.02:
                continue
            obj = lifted.LiftedObjective(ens, mix)
            top = min(obj.strong_convexity_threshold()[0], 3.0)
            alpha = float(rng.uniform(0.15, 0.95)) * top
            cert = obj.certify(alpha)
            if not cert.is_strongly_convex:
                continue
            checked += 1
            for _ in range(5):
                beta = float(rng.uniform(0.01, 1.0)) * alpha
                low = obj.certify(beta)
                assert low.is_strongly_convex, (seed - 1, alpha, beta)
                assert low.modulus >= (beta / alpha) * cert.modulus - 1e-9


def test_05_certification_bounds_aggregate_curvature():
    """A certificate with modulus mu_G at stepsize alpha forces the
    aggregate curvature above mu_G/(2 alpha); the stronger mu_G/alpha
    floor is counted and reported."""
    with criterion("05 aggregate-curvature-floor"):
        mix = _mix(W_QUARTER)
        rng = np.random.default_rng(777)
        checked = 0
        strong_holds = 0
        seed = 0
        while checked < 50:
            ens = costs.random_ensemble(3, 2, RECIPE_EPSILON, seed=seed)
            seed += 1
            if ens.aggregate_mu() <= 0.02:
                continue
            obj = lifted.LiftedObjective(ens, mix)
            top = min(obj.strong_convexity_threshold()[0], 3.0)
            alpha = float(rng.uniform(0.1, 1.0)) * top
            cert = obj.certify(alpha)
            if not cert.is_strongly_convex:
                continue
            checked += 1
            mu_agg = ens.aggregate_mu()
            assert mu_agg >= cert.modulus / (2.0 * alpha) - 1e-9
            if mu_agg >= cert.modulus / alpha - 1e-9:
                strong_holds += 1
        print(f"strong-form floor held on {strong_holds}/{checked} certificates")
        assert checked == 50


def test_06_minimizer_curve_lipschitz_bound():
    """Adjacent minimizers along the stepsize grid move no faster than the
    certified Lipschitz rate."""
    with criterion("06 minimizer-lipschitz"):
        mix = _mix(W_QUARTER)
        top = 2.0
        built = 0
        seed = 0
        while built < 20:
            ens = costs.random_ensemble(3, 2, 4.5, seed=seed)
            seed += 1
            if np.linalg.eigvalsh(ens.curvatures).min() <= 0:
                continue
            assert np.linalg.norm(ens.linear_terms, axis=1).max() > 0
            built += 1
            obj = lifted.LiftedObjective(ens, mix)
            assert obj.strong_convexity_threshold()[0] >= top
            mu_top = obj.certify(top).modulus
            grid = np.linspace(top / 10, top, 10)
            points = obj._minimizers(grid)
            for alpha_lo, alpha_hi, x_a, x_b in zip(grid, grid[1:], points, points[1:]):
                # max ||grad F|| over 17 evenly spaced points of the segment,
                # grad F(x) = (1/m) (A_k x_k + b_k)_k from the stacks alone
                gradient_bound = max(
                    np.linalg.norm(
                        np.einsum("kij,kj->ki", ens.curvatures, x.reshape(3, 2))
                        + ens.linear_terms
                    ) / ens.m
                    for x in (x_a + s * (x_b - x_a) for s in np.linspace(0.0, 1.0, 17))
                )
                allowance = (
                    2.0 * top * gradient_bound
                    * (alpha_hi - alpha_lo)
                    / (mu_top * alpha_lo)
                )
                assert np.linalg.norm(x_b - x_a) <= allowance + 1e-8, (seed - 1, alpha_lo)


def test_07_distance_to_certified_minimizer_never_grows():
    """Constant certified stepsizes keep the distance to the lifted
    minimizer non-increasing at every step (tolerance 1e-9)."""
    with criterion("07 non-expansiveness"):
        mix = _mix(W_QUARTER)
        rng = np.random.default_rng(4242)
        checked = 0
        seed = 0
        while checked < 50:
            ens = costs.random_ensemble(3, 2, RECIPE_EPSILON, seed=seed)
            seed += 1
            if ens.aggregate_mu() <= 0.02:
                continue
            checked += 1
            obj = lifted.LiftedObjective(ens, mix)
            alpha_a, _ = obj.strong_convexity_threshold()
            floor = bounds.lambda_min_bound(
                mix.spectral.lambda_min, ens.smoothness_constant()
            )
            alpha = 0.9 * min(alpha_a, floor)
            rec = simulator.run(
                ens, mix, StepsizeSchedule.constant(alpha),
                x0=rng.normal(size=6), horizon=400, record_every=1,
            )
            report = simulator.nonexpansiveness_check(rec, obj)
            assert report.ok, (seed - 1, report.max_core_margin)


def test_08_single_agent_contraction_factor():
    """Plain gradient descent under the classical stepsize cap contracts
    the squared distance by (1 - 2*L*mu*alpha/(L+mu)) every step."""
    with criterion("08 single-agent-contraction"):
        mix = _mix(np.array([[1.0]]))
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = rng.normal(size=(2, 2))
            a = q @ q.T + 0.2 * np.eye(2)
            ens = costs.QuadraticEnsemble(a[None], rng.normal(size=(1, 2)))
            mu, smooth = ens.aggregate_mu(), ens.smoothness_constant()
            alpha = float(rng.uniform(0.05, 1.0)) * 2.0 / (mu + smooth)
            factor = 1.0 - 2.0 * smooth * mu * alpha / (smooth + mu)
            x_star = ens.aggregate_minimizer()
            rec = simulator.run(
                ens, mix, StepsizeSchedule.constant(alpha),
                x0=rng.normal(size=2), horizon=150, record_every=1,
            )
            sq = np.sum((rec.states - x_star) ** 2, axis=1)
            assert np.all(sq[1:] <= factor * sq[:-1] + 1e-10)


def test_09_epsilon_sweep_monotone_threshold(tmp_path, capsys):
    """Deepening the planted concavity never enlarges the certified
    threshold; the spectral-gap bound column stays at 0.0075."""
    with criterion("09 epsilon-sweep"):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "mixing": {"type": "explicit", "W": W_SKEWED.tolist()},
            "epsilons": [0.5 * k for k in range(1, 21)],
            "L": 10.0,
            "mu": 1.0,
        }))
        assert cli.main(["sweep-epsilon", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epsilon,alpha_A,alpha_L,alpha_S"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 20
        alpha_a = [float(r[1]) for r in rows]
        assert all(b <= a + 2e-6 for a, b in zip(alpha_a, alpha_a[1:]))
        gap_column = {r[3] for r in rows}
        assert len(gap_column) == 1
        assert float(rows[0][3]) == pytest.approx(0.0075, abs=1e-12)
        # crossover against the computed floor bound, kept as data
        floor = float(rows[0][2])
        crossings = [r[0] for r in rows if float(r[1]) < floor]
        print(f"threshold column falls below alpha_L={floor} at epsilon in {crossings or 'none'}")


def test_10_trajectory_envelope_radius():
    """Below half the spectral-gap bound, the agent mean stays within the
    radius R and the spread within eta*R/L at every step."""
    with criterion("10 trajectory-envelope"):
        mix = _mix(W_QUARTER)
        rng = np.random.default_rng(9090)
        for index, seed in enumerate(_aggregate_sc_seeds(20)):
            ens = costs.random_ensemble(3, 2, RECIPE_EPSILON, seed=seed)
            mu, smooth = ens.aggregate_mu(), ens.smoothness_constant()
            gap_bound = bounds.spectral_gap_bound(mu, smooth, mix.spectral.beta)
            alpha0 = 0.5 * gap_bound
            x0 = np.zeros(6) if index % 2 == 0 else rng.normal(size=6)
            radius = bounds.trajectory_radius(ens, mix, x0, alpha0)
            eta = bounds.harmonic_rate(mu, smooth)
            x_star = ens.aggregate_minimizer()
            # alpha0 is a per-agent stepsize: the engine's m alpha0
            rec = simulator.run(
                ens, mix, StepsizeSchedule.constant(3 * alpha0),
                x0=x0, horizon=3000, record_every=1,
            )
            blocks = rec.states.reshape(-1, 3, 2)
            mean_dist = np.linalg.norm(blocks.mean(axis=1) - x_star, axis=1)
            assert np.all(mean_dist <= radius + 1e-12), seed
            assert np.all(rec.consensus_err <= eta * radius / smooth + 1e-12), seed
