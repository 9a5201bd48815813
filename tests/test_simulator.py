import math
import warnings

import numpy as np
import pytest

from dgdlab import bounds, costs, lifted, simulator
from dgdlab.simulator import StepsizeSchedule


def _skewed_random(seed, epsilon=1.0):
    """Random 3x2 ensemble with a strongly convex aggregate, or None."""
    ens = costs.random_ensemble(3, 2, epsilon, seed=seed)
    return ens if ens.aggregate_mu() > 0.05 else None


def _safe_alpha(ens, mix, frac=0.5):
    obj = lifted.LiftedObjective(ens, mix)
    th = obj.strong_convexity_threshold()
    floor = bounds.lambda_min_bound(mix.spectral.lambda_min, ens.smoothness_constant())
    return frac * min(th.alpha, floor), obj


class TestSchedule:
    def test_constant(self):
        s = StepsizeSchedule.constant(0.05)
        assert s.value(0) == 0.05
        assert s.value(999) == 0.05

    def test_polynomial_values(self):
        s = StepsizeSchedule.polynomial(a=1.0, w=1.0, p=1.0)
        assert s.value(0) == pytest.approx(1.0)
        assert s.value(9) == pytest.approx(0.1)
        s = StepsizeSchedule.polynomial(a=1.0, w=1.0, p=0.5)
        assert s.value(3) == pytest.approx(0.5)

    def test_non_increasing(self):
        s = StepsizeSchedule.polynomial(a=0.3, w=2.0, p=0.8)
        values = [s.value(t) for t in range(50)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [dict(a=0.0), dict(a=-1.0), dict(a=1.0, w=0.5), dict(a=1.0, p=0.0), dict(a=1.0, p=1.5)],
    )
    def test_polynomial_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepsizeSchedule.polynomial(**kwargs)

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            StepsizeSchedule.constant(0.0)

    def test_spec_round_trip(self):
        for s in (StepsizeSchedule.constant(0.1), StepsizeSchedule.polynomial(a=2.0, w=3.0, p=0.5)):
            again = StepsizeSchedule.from_spec(s.to_spec())
            assert again == s


class TestStep:
    def test_fixed_point_when_gradients_vanish(self, mix_quarter):
        # every local optimum at the same point: consensus there is a fixed point
        rng = np.random.default_rng(0)
        x_hat = rng.normal(size=2)
        blocks = []
        for _ in range(3):
            q = rng.normal(size=(2, 2))
            a = q @ q.T + 0.1 * np.eye(2)
            blocks.append(costs.QuadraticCost(a=a, b=-a @ x_hat))
        ens = costs.QuadraticEnsemble(blocks)
        state = np.tile(x_hat, 3)
        out = simulator.step(state, ens, mix_quarter, alpha=0.2)
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_single_agent_is_plain_gradient_descent(self, mix_single):
        ens = costs.QuadraticEnsemble(
            [costs.QuadraticCost(a=np.diag([2.0, 1.0]), b=np.array([1.0, 0.0]))]
        )
        x = np.array([1.0, -1.0])
        out = simulator.step(x, ens, mix_single, alpha=0.1)
        np.testing.assert_allclose(out, x - 0.1 * ens.costs[0].gradient(x), atol=1e-15)

    def test_equals_lifted_gradient_step(self, mix_quarter):
        rng = np.random.default_rng(1)
        ens = costs.random_ensemble(3, 2, 0.5, seed=4)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        for _ in range(100):
            x = rng.normal(size=6)
            alpha = float(rng.uniform(0.01, 2.0))
            stepped = simulator.step(x, ens, mix_quarter, alpha)
            descended = x - obj.gradient(x, alpha)
            assert np.max(np.abs(stepped - descended)) <= 1e-12

    def test_agent_scale_drops_mean_factor(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 0.5, seed=4)
        x = np.ones(6)
        scaled = simulator.step(x, ens, mix_quarter, 0.3, agent_scale=True)
        default = simulator.step(x, ens, mix_quarter, 0.9)
        np.testing.assert_allclose(scaled, default, atol=1e-14)

    def test_input_validation(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 0.5, seed=4)
        with pytest.raises(ValueError):
            simulator.step(np.ones(5), ens, mix_quarter, 0.1)
        with pytest.raises(ValueError):
            simulator.step(np.ones(6), ens, mix_quarter, 0.0)
        bad = np.ones(6)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            simulator.step(bad, ens, mix_quarter, 0.1)


class TestRun:
    def test_flat_error_at_consensus_fixed_point(self, mix_quarter):
        rng = np.random.default_rng(2)
        x_hat = rng.normal(size=2)
        blocks = []
        for _ in range(3):
            q = rng.normal(size=(2, 2))
            a = q @ q.T + 0.1 * np.eye(2)
            blocks.append(costs.QuadraticCost(a=a, b=-a @ x_hat))
        ens = costs.QuadraticEnsemble(blocks)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(0.1),
            x0=np.tile(x_hat, 3) + 0.0, horizon=50,
        )
        np.testing.assert_allclose(rec.r, rec.r[0], atol=1e-10)

    def test_deterministic_replay(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        kwargs = dict(x0=np.ones(6), horizon=200, record_every=7)
        a = simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.05), **kwargs)
        b = simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.05), **kwargs)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.states, b.states)
        assert a.verdict == b.verdict

    def test_geometric_contraction_to_lifted_minimizer(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter)
        rho = simulator.boundedness_oracle(ens, mix_quarter, alpha).spectral_radius
        assert rho < 1
        target = obj.minimizer(alpha)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(alpha),
            x0=np.ones(6), horizon=300, record_every=1,
        )
        dist = np.linalg.norm(rec.states - target, axis=1)
        envelope = dist[0] * rho ** np.arange(dist.size)
        assert np.all(dist <= envelope * (1 + 1e-9) + 1e-12)

    def test_neighborhood_size_scales_with_stepsize(self, mix_quarter):
        # the limit point sits within O(alpha) of the replicated optimum
        ens = _skewed_random(5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        cons_opt = np.tile(ens.aggregate_minimizer(), 3)
        ratios = []
        for alpha in (0.001, 0.01, 0.1):
            ratios.append(np.linalg.norm(obj.minimizer(alpha) - cons_opt) / alpha)
        assert max(ratios) / min(ratios) <= 1.5

    def test_polynomial_schedule_decays_like_t_power(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, _ = _safe_alpha(ens, mix_quarter)
        horizon = 4000
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.polynomial(a=alpha, w=1.0, p=0.7),
            x0=np.ones(6), horizon=horizon,
        )
        assert rec.verdict == "bounded"
        tail_t = rec.t[horizon // 2 :]
        tail_r = rec.r[horizon // 2 :]
        scaled = tail_r * tail_t ** 0.7
        assert np.max(scaled) <= 3.0 * scaled[0]
        assert tail_r[-1] < tail_r[0]

    def test_divergence_early_stop_and_truncation(self, mix_quarter):
        ens = _skewed_random(5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        th = obj.strong_convexity_threshold()
        alpha = 1.5 * th.alpha
        assert simulator.boundedness_oracle(ens, mix_quarter, alpha).spectral_radius > 1
        rec = simulator.run(ens, mix_quarter, StepsizeSchedule.constant(alpha), horizon=10_000)
        assert rec.verdict == "diverged"
        assert rec.divergence_step is not None
        assert rec.r[-1] > rec.divergence_threshold
        assert rec.t.size < 10_001
        # CSV drops the crossing row and keeps numeric columns finite
        lines = rec.to_csv_string().splitlines()
        assert lines[0] == "t,alpha,R,consensus_err,dist_lifted_min"
        assert len(lines) - 1 == rec.divergence_step
        for line in lines[1:]:
            r_field = float(line.split(",")[2])
            assert math.isfinite(r_field)

    def test_record_thinning(self, mix_quarter):
        ens = _skewed_random(5)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(0.05), horizon=100, record_every=10
        )
        assert list(rec.state_ts) == list(range(0, 101, 10))
        assert rec.r.size == 101
        with pytest.raises(KeyError):
            rec.state_at(5)

    def test_lifted_distance_column(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(alpha),
            horizon=50, lifted_distance=obj,
        )
        assert np.all(np.isfinite(rec.dist_lifted_min))
        assert np.all(np.diff(rec.dist_lifted_min) <= 1e-9)

    def test_lifted_distance_blank_when_uncertified(self, mix_quarter):
        ens = _skewed_random(5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        th = obj.strong_convexity_threshold()
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(1.5 * th.alpha),
            horizon=10, lifted_distance=obj, divergence_threshold=1e30,
        )
        assert np.all(np.isnan(rec.dist_lifted_min))
        for line in rec.to_csv_string().splitlines()[1:]:
            assert line.endswith(",")

    def test_lifted_distance_blank_at_huge_stepsize(self, mix_quarter):
        # README's seed-5 instance at 1e155: certify must refuse the stepsize,
        # so the minimizer's SPD solve is never attempted
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = simulator.run(
                ens, mix_quarter, StepsizeSchedule.constant(1e155),
                x0=np.ones(6), horizon=50, lifted_distance=obj,
            )
        assert rec.verdict == "diverged"
        assert np.all(np.isnan(rec.dist_lifted_min))
        for line in rec.to_csv_string().splitlines()[1:]:
            assert line.endswith(",")

    def test_rejects_bad_inputs(self, mix_quarter):
        ens = _skewed_random(5)
        with pytest.raises(ValueError):
            simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.1), horizon=0)
        with pytest.raises(ValueError):
            simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.1), x0=np.ones(4))


def _assert_same_record(batched, single):
    for name in ("t", "alpha", "r", "state_ts", "states"):
        assert np.array_equal(getattr(batched, name), getattr(single, name)), name
    assert np.array_equal(batched.dist_lifted_min, single.dist_lifted_min, equal_nan=True)
    assert batched.verdict == single.verdict
    assert batched.divergence_step == single.divergence_step
    assert batched.to_csv_string() == single.to_csv_string()


def _per_run_loop(ens, mix, schedule, x0, horizon, threshold, states=None):
    """R(t) and divergence step from one state stepped alone, as run did before batching.

    Every visited state is appended to `states` when a list is given.
    """
    m, n = ens.m, ens.n
    x_star = ens.aggregate_minimizer()
    blocks = x0.reshape(m, n).copy()
    rs = []
    for t in range(horizon + 1):
        if states is not None:
            states.append(blocks.reshape(-1))
        finite = bool(np.all(np.isfinite(blocks)))
        with np.errstate(over="ignore"):  # the reference's own overflow, not the engine's
            rs.append(float(np.linalg.norm(blocks - x_star, axis=1).sum()) if finite else math.inf)
        if rs[-1] > threshold or not finite:
            return np.array(rs), t
        if t < horizon:
            grads = np.einsum("kij,kj->ki", ens.curvatures, blocks) + ens.linear_terms
            with np.errstate(over="ignore", invalid="ignore"):
                blocks = mix.w @ blocks - (schedule.value(t) / m) * grads
    return np.array(rs), None


class TestRunBatch:
    def test_matches_the_per_run_loop_bit_for_bit(self, mix_quarter):
        ens = _skewed_random(5)
        safe, _ = _safe_alpha(ens, mix_quarter, frac=1.0)
        schedules = [StepsizeSchedule.constant(k * safe) for k in (0.5, 0.99, 2.0, 4.0, 6.0)]
        schedules += [
            StepsizeSchedule.polynomial(a=3.0 * safe, p=0.6),
            StepsizeSchedule.constant(1e308),  # the first step overflows the state
        ]
        x0 = np.linspace(-10.0, 10.0, 6)
        batch = simulator.run_batch(ens, mix_quarter, schedules, x0=x0, horizon=1500)
        assert {rec.verdict for rec in batch} == {"bounded", "diverged"}
        for schedule, batched in zip(schedules, batch):
            r, step = _per_run_loop(ens, mix_quarter, schedule, x0, 1500, 1e12)
            assert np.array_equal(batched.r, r)
            assert batched.divergence_step == step

    def test_rows_equal_single_runs(self, mix_quarter):
        ens = _skewed_random(5)
        safe, obj = _safe_alpha(ens, mix_quarter)
        th = obj.strong_convexity_threshold().alpha
        schedules = [
            StepsizeSchedule.constant(safe),  # bounded
            StepsizeSchedule.constant(1.5 * th),  # R(t) crosses the threshold
            StepsizeSchedule.constant(1e150),  # crosses at once, never certified
            StepsizeSchedule.polynomial(a=2.0 * safe, w=1.0, p=0.5),
        ]
        kwargs = dict(
            x0=np.linspace(-1.0, 1.0, 6), horizon=200, record_every=7,
            divergence_threshold=1e100, lifted_distance=obj,
        )
        batch = simulator.run_batch(ens, mix_quarter, schedules, **kwargs)
        assert [rec.verdict for rec in batch] == ["bounded", "diverged", "diverged", "bounded"]
        assert batch[2].divergence_step == 1 < batch[1].divergence_step < 200
        assert np.all(np.isfinite(batch[0].dist_lifted_min))
        assert np.all(np.isnan(batch[2].dist_lifted_min))
        for schedule, batched in zip(schedules, batch):
            _assert_same_record(batched, simulator.run(ens, mix_quarter, schedule, **kwargs))

    def test_overflowing_rows_leave_the_batch(self, mix_quarter):
        ens = _skewed_random(5)
        safe, obj = _safe_alpha(ens, mix_quarter)
        th = obj.strong_convexity_threshold().alpha
        schedules = [
            StepsizeSchedule.constant(safe),
            StepsizeSchedule.constant(1e306),  # R(t) overflows, the state stays finite
            StepsizeSchedule.constant(1e308),  # the state itself overflows
            StepsizeSchedule.constant(1.5 * th),
        ]
        kwargs = dict(x0=np.linspace(-10.0, 10.0, 6), horizon=200, record_every=7)
        batch = simulator.run_batch(ens, mix_quarter, schedules, **kwargs)
        assert [rec.verdict for rec in batch] == ["bounded", "diverged", "diverged", "diverged"]
        for blown, finite_state in ((batch[1], True), (batch[2], False)):
            assert blown.divergence_step == 1 and list(blown.state_ts) == [0, 1]
            assert bool(np.all(np.isfinite(blown.states[-1]))) is finite_state
            assert blown.r[-1] == math.inf
        # an infinite threshold still stops a row whose state is infinite
        (endless,) = simulator.run_batch(
            ens, mix_quarter, schedules[2:3], **dict(kwargs, divergence_threshold=math.inf)
        )
        assert endless.divergence_step == 1
        for schedule, batched in zip(schedules, batch):
            single = simulator.run(ens, mix_quarter, schedule, **kwargs)
            _assert_same_record(batched, single)
            assert np.array_equal(batched.consensus_err, single.consensus_err)

    def test_nan_state_is_recorded_as_infinite(self, mix_single):
        # an infinite threshold lets a finite state with overflowing R(t) keep
        # stepping, and A x sums +inf and -inf into nan
        ens = costs.QuadraticEnsemble(
            [costs.QuadraticCost(a=np.array([[3.0, -2.0], [-2.0, 3.0]]), b=np.zeros(2))]
        )
        schedule = StepsizeSchedule.constant(0.1)
        x0 = np.full(2, 1e308)
        (rec,) = simulator.run_batch(
            ens, mix_single, [schedule], x0=x0, horizon=5, divergence_threshold=math.inf
        )
        assert rec.divergence_step == 1 and np.all(np.isnan(rec.states[-1]))
        assert list(rec.r) == [math.inf, math.inf] and rec.consensus_err[-1] == math.inf
        r, step = _per_run_loop(ens, mix_single, schedule, x0, 5, math.inf)
        assert np.array_equal(rec.r, r) and rec.divergence_step == step

    def test_engine_raises_no_runtime_warning(self, mix_quarter, mix_single):
        ens = _skewed_random(5)
        safe, _ = _safe_alpha(ens, mix_quarter)
        schedules = [StepsizeSchedule.constant(a) for a in (safe, 1e306, 1e308)]
        nan_ens = costs.QuadraticEnsemble(
            [costs.QuadraticCost(a=np.array([[3.0, -2.0], [-2.0, 3.0]]), b=np.zeros(2))]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = simulator.run_batch(
                ens, mix_quarter, schedules, x0=np.linspace(-10.0, 10.0, 6), horizon=200
            )
            (nan_rec,) = simulator.run_batch(
                nan_ens, mix_single, [StepsizeSchedule.constant(0.1)],
                x0=np.full(2, 1e308), horizon=5, divergence_threshold=math.inf,
            )
            # README's seed-5 instance: 2.4 is certified (alpha_A is 2.53) but
            # diverges, so the state grows until it is no longer finite
            readme = costs.random_ensemble(3, 2, 1.0, seed=5)
            (blown,) = simulator.run_batch(
                readme, mix_quarter, [StepsizeSchedule.constant(2.4)], x0=np.ones(6),
                horizon=2000, divergence_threshold=math.inf,
                lifted_distance=lifted.LiftedObjective(readme, mix_quarter),
            )
        assert [rec.verdict for rec in batch] == ["bounded", "diverged", "diverged"]
        assert nan_rec.divergence_step == 1 and np.all(np.isnan(nan_rec.states[-1]))
        assert blown.verdict == "diverged" and not np.all(np.isfinite(blown.states[-1]))
        # the distance is taken at every finite state and left blank at the last
        assert not np.any(np.isnan(blown.dist_lifted_min[:-1]))
        assert np.isnan(blown.dist_lifted_min[-1])

    @pytest.mark.parametrize("record_every", [1, 5, 7])
    def test_chunk_boundaries_match_the_per_run_loop(self, mix_quarter, record_every):
        chunk = simulator._CHUNK
        ens = _skewed_random(5)
        safe, obj = _safe_alpha(ens, mix_quarter)
        steep = StepsizeSchedule.constant(1.5 * obj.strong_convexity_threshold().alpha)
        calm = [StepsizeSchedule.constant(safe), StepsizeSchedule.polynomial(a=2.0 * safe, p=0.5)]
        x0 = np.linspace(-1.0, 1.0, 6)
        growth, _ = _per_run_loop(ens, mix_quarter, steep, x0, 3 * chunk, math.inf)
        cases = [(calm, chunk - 1, 1e12, None), (calm, chunk, 1e12, None)]
        for crossing in (chunk - 1, chunk, chunk + 1):
            threshold = float(np.max(growth[:crossing]))  # R(t) first exceeds it at `crossing`
            cases.append(([steep] + calm, 3 * chunk, threshold, crossing))
        for schedules, horizon, threshold, crossing in cases:
            batch = simulator.run_batch(
                ens, mix_quarter, schedules, x0=x0, horizon=horizon,
                divergence_threshold=threshold, record_every=record_every,
            )
            assert batch[0].divergence_step == crossing
            for schedule, rec in zip(schedules, batch):
                states = []
                r, stop = _per_run_loop(ens, mix_quarter, schedule, x0, horizon, threshold, states)
                assert np.array_equal(rec.r, r) and rec.divergence_step == stop
                last = len(r) - 1
                ts = [t for t in range(last + 1) if t % record_every == 0 or t == horizon]
                if stop is not None and ts[-1] != stop:
                    ts.append(stop)
                assert list(rec.state_ts) == ts
                assert np.array_equal(rec.states, np.array([states[t] for t in ts]))

    def test_batch_of_one_is_run(self, mix_quarter):
        ens = _skewed_random(5)
        schedule = StepsizeSchedule.polynomial(a=0.4, w=2.0, p=0.8)
        kwargs = dict(x0=np.ones(6), horizon=120, record_every=5)
        (batched,) = simulator.run_batch(ens, mix_quarter, [schedule], **kwargs)
        single = simulator.run(ens, mix_quarter, schedule, **kwargs)
        _assert_same_record(batched, single)
        assert np.array_equal(batched.consensus_err, single.consensus_err)

    def test_batch_empties_when_every_row_diverges(self, mix_quarter):
        ens = _skewed_random(5)
        th = lifted.LiftedObjective(ens, mix_quarter).strong_convexity_threshold().alpha
        schedules = [StepsizeSchedule.constant(k * th) for k in (3.0, 1.5)]
        batch = simulator.run_batch(ens, mix_quarter, schedules, horizon=10_000)
        for schedule, batched in zip(schedules, batch):
            assert batched.verdict == "diverged"
            assert batched.t.size == batched.divergence_step + 1 < 10_001
            _assert_same_record(
                batched, simulator.run(ens, mix_quarter, schedule, horizon=10_000)
            )
        assert simulator.run_batch(ens, mix_quarter, []) == []


class TestBoundednessOracle:
    def test_vanishing_stepsize_keeps_consensus_eigenvalue(self, mix_quarter):
        ens = _skewed_random(5)
        verdict = simulator.boundedness_oracle(ens, mix_quarter, 1e-12)
        assert verdict.bounded
        assert verdict.spectral_radius == pytest.approx(1.0, abs=1e-10)
        assert verdict.is_critical

    def test_single_agent_scalar_rule(self, mix_single):
        big_l = 4.0
        ens = costs.QuadraticEnsemble([costs.QuadraticCost(a=np.array([[big_l]]), b=np.zeros(1))])
        for alpha in (0.1, 0.3, 2.0 / big_l):
            v = simulator.boundedness_oracle(ens, mix_single, alpha)
            assert v.spectral_radius == pytest.approx(abs(1 - alpha * big_l), abs=1e-12)
            assert v.bounded
        assert not simulator.boundedness_oracle(ens, mix_single, 2.01 / big_l).bounded

    def test_matrix_matches_step(self, mix_quarter):
        # applying the iteration matrix must reproduce the homogeneous step
        ens = costs.random_ensemble(3, 2, 1.0, seed=9)
        hom = costs.QuadraticEnsemble(
            [costs.QuadraticCost(a=c.a, b=np.zeros(2)) for c in ens.costs]
        )
        rng = np.random.default_rng(3)
        m = simulator.iteration_matrix(hom, mix_quarter, 0.4)
        for _ in range(10):
            x = rng.normal(size=6)
            np.testing.assert_allclose(
                m @ x, simulator.step(x, hom, mix_quarter, 0.4), atol=1e-13
            )

    def test_run_agrees_on_clearly_decided_instances(self, mix_quarter):
        checked = 0
        seed = 0
        while checked < 6:
            ens = _skewed_random(seed)
            seed += 1
            if ens is None:
                continue
            checked += 1
            alpha, _ = _safe_alpha(ens, mix_quarter)
            verdict = simulator.boundedness_oracle(ens, mix_quarter, alpha)
            rec = simulator.run(ens, mix_quarter, StepsizeSchedule.constant(alpha), horizon=2000)
            assert verdict.bounded and rec.verdict == "bounded"


class TestNonexpansiveness:
    def test_constant_schedule_monotone(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter, frac=0.9)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(alpha),
            x0=np.ones(6), horizon=300, record_every=1,
        )
        report = simulator.nonexpansiveness_check(rec, obj)
        assert report.ok
        assert report.max_core_margin <= 1e-9
        assert np.all(report.drift_bound == 0)

    def test_started_at_minimizer_stays_there(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(alpha),
            x0=obj.minimizer(alpha), horizon=100, record_every=1,
        )
        report = simulator.nonexpansiveness_check(rec, obj)
        np.testing.assert_allclose(report.distances, 0.0, atol=1e-9)

    def test_polynomial_schedule_with_drift_allowance(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter, frac=0.9)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.polynomial(a=alpha, w=1.0, p=0.7),
            x0=np.ones(6), horizon=200, record_every=1,
        )
        report = simulator.nonexpansiveness_check(rec, obj)
        assert report.ok
        # measured minimizer shift never exceeds its allowance
        assert np.all(report.drift_measured <= report.drift_bound + 1e-12)
        # the distance sequence obeys the shifted-target inequality
        deltas = report.distances[1:] - report.distances[:-1]
        assert np.all(deltas <= report.drift_bound + 1e-9)

    def test_run_and_check_solve_each_alpha_once(self, mix_quarter, monkeypatch):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter, frac=0.9)
        solves = []
        solve_spd = lifted.solve_spd
        monkeypatch.setattr(
            lifted, "solve_spd", lambda a, b: solves.append(1) or solve_spd(a, b)
        )
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.polynomial(a=alpha, w=1.0, p=0.7),
            x0=np.ones(6), horizon=80, record_every=1, lifted_distance=obj,
        )
        assert simulator.nonexpansiveness_check(rec, obj).ok
        assert len(solves) == len(set(rec.alpha.tolist())) == 81

    def test_requires_full_state_history(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter)
        rec = simulator.run(ens, mix_quarter, StepsizeSchedule.constant(alpha), horizon=50)
        with pytest.raises(ValueError):
            simulator.nonexpansiveness_check(rec, obj)

    def test_rejects_uncertified_stepsize(self, mix_quarter):
        ens = _skewed_random(5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        th = obj.strong_convexity_threshold()
        floor = bounds.lambda_min_bound(
            mix_quarter.spectral.lambda_min, ens.smoothness_constant()
        )
        bad = 1.05 * th.alpha
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(bad),
            horizon=20, record_every=1, divergence_threshold=1e30,
        )
        if bad > floor:
            with pytest.raises(ValueError):
                simulator.nonexpansiveness_check(rec, obj)
        else:
            with pytest.raises(Exception):
                simulator.nonexpansiveness_check(rec, obj)


class TestTrajectoryEnvelope:
    @pytest.mark.parametrize("agent_scale", [True, False])
    def test_mean_and_spread_stay_inside_radius(self, mix_quarter, agent_scale):
        ens = _skewed_random(10)
        mu, smooth = ens.aggregate_mu(), ens.smoothness_constant()
        gap_bound = bounds.spectral_gap_bound(mu, smooth, mix_quarter.spectral.beta)
        alpha0 = 0.5 * gap_bound
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=6)
        radius = bounds.trajectory_radius(ens, mix_quarter, x0, alpha0)
        eta = bounds.harmonic_rate(mu, smooth)
        x_star = ens.aggregate_minimizer()
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(alpha0),
            x0=x0, horizon=2000, record_every=1, agent_scale=agent_scale,
        )
        blocks = rec.states.reshape(-1, 3, 2)
        mean_dist = np.linalg.norm(blocks.mean(axis=1) - x_star, axis=1)
        assert np.all(mean_dist <= radius + 1e-12)
        assert np.all(rec.consensus_err <= eta * radius / smooth + 1e-12)


class TestSingleAgentContraction:
    def test_per_step_factor(self, mix_single):
        rng = np.random.default_rng(17)
        for _ in range(10):
            q = rng.normal(size=(2, 2))
            a = q @ q.T + 0.2 * np.eye(2)
            ens = costs.QuadraticEnsemble([costs.QuadraticCost(a=a, b=rng.normal(size=2))])
            mu, smooth = ens.aggregate_mu(), ens.smoothness_constant()
            alpha = float(rng.uniform(0.1, 1.0)) * 2.0 / (mu + smooth)
            factor = 1.0 - 2.0 * smooth * mu * alpha / (smooth + mu)
            x_star = ens.aggregate_minimizer()
            rec = simulator.run(
                ens, mix_single, StepsizeSchedule.constant(alpha),
                x0=rng.normal(size=2), horizon=100, record_every=1,
            )
            sq = np.sum((rec.states - x_star) ** 2, axis=1)
            assert np.all(sq[1:] <= factor * sq[:-1] + 1e-12)
