import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dgdlab import bounds, config, costs, lifted, numerics, simulator, topology
from dgdlab.errors import ParameterError
from dgdlab.simulator import StepsizeSchedule


def _csv_text(record):
    buf = io.StringIO()
    record.to_csv(buf)
    return buf.getvalue()


def _skewed_random(seed, epsilon=1.0):
    """Random 3x2 ensemble with a strongly convex aggregate, or None."""
    ens = costs.random_ensemble(3, 2, epsilon, seed=seed)
    return ens if ens.aggregate_mu() > 0.05 else None


def _safe_alpha(ens, mix, frac=0.5):
    obj = lifted.LiftedObjective(ens, mix)
    alpha_a, _ = obj.strong_convexity_threshold()
    floor = bounds.lambda_min_bound(mix.spectral.lambda_min, ens.smoothness_constant())
    return frac * min(alpha_a, floor), obj


# one instance on each side of the step's nm crossover (`simulator._DENSE_NM`)
_SIDES = ["dense", "structured"]


def _instance(side, mix_quarter):
    """README's skewed seed 5 on the quarter mixing (nm = 6), stepped with the
    dense iteration matrix, or a (50, 6) Metropolis ring (nm = 300), stepped
    structured; and a stepsize whose `_mixed_schedules` multiples 0.5 and 0.99
    stay bounded and 4 and 6 diverge: min(alpha_A, floor), or the ring's
    alpha_A, as every multiple of its floor stays bounded."""
    if side == "dense":
        ens, mix = _skewed_random(5), mix_quarter
        base, _ = _safe_alpha(ens, mix, frac=1.0)
    else:
        ens, mix = costs.random_ensemble(50, 6, 2.0, seed=2), _ring(50)
        base = lifted.LiftedObjective(ens, mix).strong_convexity_threshold()[0]
    assert (ens.m * ens.n <= simulator._DENSE_NM) == (side == "dense")
    return ens, mix, base


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

    @pytest.mark.parametrize("name", ["a", "w", "p"])
    def test_polynomial_refuses_an_infinite_parameter_by_name(self, name):
        kwargs = {"a": 1.0, "w": 1.0, "p": 1.0, name: math.inf}
        with pytest.raises(ParameterError, match="finite") as excinfo:
            StepsizeSchedule.polynomial(**kwargs)
        assert excinfo.value.parameter == name

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            StepsizeSchedule.constant(0.0)

    def test_value_before_step_zero_is_refused(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            StepsizeSchedule.constant(0.05).value(-1)

    def test_spec_round_trip(self):
        # config reads a schedule spec, and reads its canonical form back unchanged
        for s, spec in (
            (StepsizeSchedule.constant(0.1), {"type": "constant", "alpha": 0.1}),
            (
                StepsizeSchedule.polynomial(a=2.0, w=3.0, p=0.5),
                {"type": "polynomial", "a": 2.0, "w": 3.0, "p": 0.5},
            ),
        ):
            cfg = config.parse_config({"schedule": spec})
            assert cfg.schedule == s and cfg.canonical()["schedule"] == spec
            again = config.parse_config(cfg.canonical()).schedule
            assert again == s


class TestStep:
    def test_fixed_point_when_gradients_vanish(self, mix_quarter):
        # every local optimum at the same point: consensus there is a fixed point
        rng = np.random.default_rng(0)
        x_hat = rng.normal(size=2)
        curvatures = []
        for _ in range(3):
            q = rng.normal(size=(2, 2))
            curvatures.append(q @ q.T + 0.1 * np.eye(2))
        curvatures = np.stack(curvatures)
        ens = costs.QuadraticEnsemble(curvatures, -curvatures @ x_hat)
        state = np.tile(x_hat, 3)
        out = simulator.step(state, ens, mix_quarter, alpha=0.2)
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_single_agent_is_plain_gradient_descent(self, mix_single):
        a, b = np.diag([2.0, 1.0]), np.array([1.0, 0.0])
        ens = costs.QuadraticEnsemble(a[None], b[None])
        x = np.array([1.0, -1.0])
        out = simulator.step(x, ens, mix_single, alpha=0.1)
        np.testing.assert_allclose(out, x - 0.1 * (a @ x + b), atol=1e-15)

    def test_equals_lifted_gradient_step(self, mix_quarter):
        # grad G_alpha(x) = (alpha/m) (A_k x_k + b_k)_k + ((I - W) kron I_n) x,
        # from the stacks alone
        rng = np.random.default_rng(1)
        ens = costs.random_ensemble(3, 2, 0.5, seed=4)
        consensus = np.kron(np.eye(3) - mix_quarter.w, np.eye(2))
        for _ in range(100):
            x = rng.normal(size=6)
            alpha = float(rng.uniform(0.01, 2.0))
            stepped = simulator.step(x, ens, mix_quarter, alpha)
            per_agent = np.einsum("kij,kj->ki", ens.curvatures, x.reshape(3, 2)) + ens.linear_terms
            descended = x - ((alpha / ens.m) * per_agent.reshape(-1) + consensus @ x)
            assert np.max(np.abs(stepped - descended)) <= 1e-12

    @pytest.mark.parametrize("side", _SIDES)
    def test_is_the_first_step_of_run_batch(self, side, mix_quarter):
        # step builds the operator run_batch builds, so each row's state at
        # t = 1 is its step bit for bit, on either side of the crossover
        ens, mix, base = _instance(side, mix_quarter)
        x0 = np.linspace(-10.0, 10.0, ens.m * ens.n)
        alphas = [0.5 * base, 0.99 * base, 4.0 * base]
        batch = simulator.run_batch(
            ens, mix, [StepsizeSchedule.constant(a) for a in alphas], x0=x0, horizon=1,
            record_every=1,
        )
        for alpha, rec in zip(alphas, batch):
            assert np.array_equal(simulator.step(x0, ens, mix, alpha), rec.states[1])

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
        curvatures = []
        for _ in range(3):
            q = rng.normal(size=(2, 2))
            curvatures.append(q @ q.T + 0.1 * np.eye(2))
        curvatures = np.stack(curvatures)
        ens = costs.QuadraticEnsemble(curvatures, -curvatures @ x_hat)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(0.1),
            x0=np.tile(x_hat, 3) + 0.0, horizon=50,
        )
        np.testing.assert_allclose(rec.r, rec.r[0], atol=1e-10)

    def test_deterministic_replay(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        kwargs = dict(x0=np.ones(6), horizon=200, record_every=1)
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
        alpha_a, _ = obj.strong_convexity_threshold()
        alpha = 1.5 * alpha_a
        assert simulator.boundedness_oracle(ens, mix_quarter, alpha).spectral_radius > 1
        rec = simulator.run(ens, mix_quarter, StepsizeSchedule.constant(alpha), horizon=10_000)
        assert rec.verdict == "diverged"
        assert rec.divergence_step is not None
        assert rec.r[-1] > rec.divergence_threshold
        assert rec.t.size < 10_001
        # CSV drops the crossing row and keeps numeric columns finite
        lines = _csv_text(rec).splitlines()
        assert lines[0] == "t,alpha,R,consensus_err,dist_lifted_min"
        assert len(lines) - 1 == rec.divergence_step
        for line in lines[1:]:
            r_field = float(line.split(",")[2])
            assert math.isfinite(r_field)

    @pytest.mark.parametrize("record_every", [0, 7, 10])
    def test_rejects_a_record_every_other_than_one(self, mix_quarter, record_every):
        # a run keeps every state or none: there is no stride
        ens = _skewed_random(5)
        with pytest.raises(ValueError, match="record_every must be None or 1"):
            simulator.run_batch(
                ens, mix_quarter, [StepsizeSchedule.constant(0.05)], horizon=100,
                record_every=record_every,
            )

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
        # past the edge, and at alpha_A itself: the certified interval is open
        ens = _skewed_random(5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        alpha_a, _ = obj.strong_convexity_threshold()
        for alpha in (1.5 * alpha_a, obj.certified_interval[1]):
            rec = simulator.run(
                ens, mix_quarter, StepsizeSchedule.constant(alpha),
                horizon=10, lifted_distance=obj, divergence_threshold=1e30,
            )
            assert rec.dist_lifted_min.size == 11
            assert np.all(np.isnan(rec.dist_lifted_min))
            for line in _csv_text(rec).splitlines()[1:]:
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
        for line in _csv_text(rec).splitlines()[1:]:
            assert line.endswith(",")

    @pytest.mark.parametrize("other", ["ensemble", "curvatures", "linear_terms", "W"])
    def test_rejects_the_objective_of_another_instance(self, mix_quarter, mix_skewed, other):
        # README's seed 5 at alpha 0.3 with seed 6's objective would report
        # distances to seed 6's minimizers: dist_lifted_min[0] 103.06, not 0.49
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        seed6 = costs.random_ensemble(3, 2, 1.0, seed=6)
        curvatures, linear_terms, mix = {
            "ensemble": (seed6.curvatures, seed6.linear_terms, mix_quarter),
            "curvatures": (seed6.curvatures, ens.linear_terms, mix_quarter),
            "linear_terms": (ens.curvatures, seed6.linear_terms, mix_quarter),
            "W": (ens.curvatures, ens.linear_terms, mix_skewed),
        }[other]
        objective = lifted.LiftedObjective(costs.QuadraticEnsemble(curvatures, linear_terms), mix)
        with pytest.raises(ValueError, match="lifted_distance is the objective of another"):
            simulator.run(
                ens, mix_quarter, StepsizeSchedule.constant(0.3), horizon=50,
                lifted_distance=objective,
            )

    def test_takes_an_equal_objective_built_anew(self, mix_quarter):
        # equal curvatures, linear terms and W in new arrays: the same distances
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        rebuilt = lifted.LiftedObjective(
            costs.random_ensemble(3, 2, 1.0, seed=5),
            topology.validate_mixing(np.array(mix_quarter.w)),
        )
        own = lifted.LiftedObjective(ens, mix_quarter)
        records = [
            simulator.run(
                ens, mix_quarter, StepsizeSchedule.constant(0.3), horizon=50, lifted_distance=obj
            )
            for obj in (own, rebuilt)
        ]
        assert np.array_equal(records[0].dist_lifted_min, records[1].dist_lifted_min)
        assert records[0].dist_lifted_min[0] == pytest.approx(0.4927, abs=1e-4)

    def test_rejects_bad_inputs(self, mix_quarter):
        ens = _skewed_random(5)
        with pytest.raises(ValueError):
            simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.1), horizon=0)
        with pytest.raises(ValueError):
            simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.1), x0=np.ones(4))
        x0 = np.array([0.0, 1.0, math.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.1), x0=x0)
        # three agents on a two-agent W, in a run and in one step
        halves = topology.validate_mixing(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="ensemble has 3 agents, mixing has 2"):
            simulator.run(ens, halves, StepsizeSchedule.constant(0.1), horizon=10)
        with pytest.raises(ValueError, match="ensemble has 3 agents, mixing has 2"):
            simulator.step(np.zeros(6), ens, halves, 0.1)

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
    def test_rejects_a_threshold_that_is_not_positive(self, mix_quarter, threshold):
        # README's seed 5 at alpha = 4.0: a nan threshold never compares, so
        # the run would read "bounded" at R(300) = 6.7e204, and a threshold of
        # 0 or -1 would stop it at step 0
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        with pytest.raises(ValueError, match="divergence_threshold"):
            simulator.run_batch(
                ens, mix_quarter, [StepsizeSchedule.constant(4.0)], horizon=300,
                divergence_threshold=threshold,
            )

    def test_infinite_threshold_stays_legal(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(0.3), horizon=50,
            divergence_threshold=math.inf,
        )
        assert rec.verdict == "bounded" and rec.r.size == 51


def _assert_same_record(batched, single):
    for name in ("t", "alpha", "r", "states"):
        assert np.array_equal(getattr(batched, name), getattr(single, name)), name
    assert np.array_equal(batched.dist_lifted_min, single.dist_lifted_min, equal_nan=True)
    assert batched.verdict == single.verdict
    assert batched.divergence_step == single.divergence_step
    assert _csv_text(batched) == _csv_text(single)


def _folded_update(ens, mix, scale, blocks):
    """The structured step: W x and the local products (scale A_k) x_k apart,
    with the stepsize folded into A_k and b_k first, in the engine's product shapes."""
    sa, sb = scale * ens.curvatures, scale * ens.linear_terms
    return mix.w @ blocks - (sa @ blocks[:, :, None])[:, :, 0] - sb


def _dense_update(ens, mix, scale, blocks):
    """The dense step: M = kron(W, I_n) - scale blkdiag(A_k), whose diagonal
    blocks round w_kk I - scale A_k first, times x as its products, each
    rounded, summed left to right from 0, then minus scale b."""
    m, n = blocks.shape
    op = np.kron(mix.w, np.eye(n))
    for k in range(m):
        op[k * n : (k + 1) * n, k * n : (k + 1) * n] -= scale * ens.curvatures[k]
    x, total = blocks.reshape(-1), np.zeros(m * n)
    for j in range(m * n):
        total += op[:, j] * x[j]
    return total.reshape(m, n) - scale * ens.linear_terms


def _engine_update(ens):
    """The reference update of the step representation the engine takes for `ens`."""
    return _dense_update if ens.m * ens.n <= simulator._DENSE_NM else _folded_update


def _literal_update(ens, mix, scale, blocks):
    """One DGD step as the update rule reads: W x - scale * (A x + b)."""
    grads = np.einsum("kij,kj->ki", ens.curvatures, blocks) + ens.linear_terms
    return mix.w @ blocks - scale * grads


def _rescaled_norms(dev):
    """np.linalg.norm(dev, axis=1), with each row whose squares overflow
    divided first by the largest power of 2 not above its largest entry."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(dev, axis=1)
    for k in np.flatnonzero(np.isinf(norms)):
        unit = 2.0 ** math.floor(math.log2(abs(dev[k]).max()))
        norms[k] = unit * np.linalg.norm(dev[k : k + 1] / unit, axis=1)[0]
    return norms


def _consensus_formula(blocks):
    """The per-step consensus: the agent mean by numpy's reduce over the agent
    axis, then the flattened sum of squares."""
    dev = blocks - np.add.reduce(blocks, axis=0) / blocks.shape[0]
    return float(np.sqrt(np.add.reduce((dev * dev).reshape(-1))))


def _rescaled_consensus(blocks):
    """`_consensus_formula`, taken in the largest power of 2 not above the
    state's largest entry where its squares overflow."""
    with np.errstate(over="ignore"):
        value = _consensus_formula(blocks)
    if math.isinf(value):
        unit = 2.0 ** math.floor(math.log2(abs(blocks).max()))
        value = unit * _consensus_formula(blocks / unit)
    return value


def _per_run_loop(
    ens, mix, schedule, x0, horizon, threshold, states=None,
    update=None, rescale=False, consensus=None,
):
    """R(t) and divergence step from one state stepped alone by `update`,
    by default the reference of the representation the engine takes (`_engine_update`).

    Every visited state is appended to `states` when a list is given, and its
    `_rescaled_consensus` to `consensus`. With `rescale`, each agent's
    distance is `_rescaled_norms`'s, otherwise its squares may overflow.
    """
    m, n = ens.m, ens.n
    update = update or _engine_update(ens)
    x_star = ens.aggregate_minimizer()
    blocks = x0.reshape(m, n).copy()
    rs = []
    for t in range(horizon + 1):
        if states is not None:
            states.append(blocks.reshape(-1))
        if consensus is not None:
            consensus.append(_rescaled_consensus(blocks))
        finite = bool(np.all(np.isfinite(blocks)))
        with np.errstate(over="ignore"):  # the reference's own overflow, not the engine's
            if not finite:
                rs.append(math.inf)
            elif rescale:
                rs.append(float(_rescaled_norms(blocks - x_star).sum()))
            else:
                rs.append(float(np.linalg.norm(blocks - x_star, axis=1).sum()))
        if rs[-1] > threshold or not finite:
            return np.array(rs), t
        if t < horizon:
            alpha = schedule.value(t)
            with np.errstate(over="ignore", invalid="ignore"):
                blocks = update(ens, mix, alpha / m, blocks)
    return np.array(rs), None


def _mixed_schedules(safe):
    """Bounded and diverging constant rows, a polynomial row, and one that overflows."""
    schedules = [StepsizeSchedule.constant(k * safe) for k in (0.5, 0.99, 2.0, 4.0, 6.0)]
    return schedules + [
        StepsizeSchedule.polynomial(a=3.0 * safe, p=0.6),
        StepsizeSchedule.constant(1e308),  # the first step overflows the state
    ]


def _nan_ensemble():
    """One agent whose step at alpha = 10 from (1e308, 1e308) is nan in every entry."""
    return costs.QuadraticEnsemble(np.diag([3.0, 3.0])[None], np.full((1, 2), -1e308))


def _ring(m):
    """Metropolis weights on an m-agent ring."""
    adjacency = np.zeros((m, m), dtype=int)
    for i in range(m):
        adjacency[i, (i + 1) % m] = adjacency[(i + 1) % m, i] = 1
    return topology.metropolis_weights(adjacency)


def _csv_reference(record):
    """to_csv's bytes, one row per f-string: the format the block writer must keep."""
    cutoff = record.divergence_step
    text = "t,alpha,R,consensus_err,dist_lifted_min\r\n"
    for t, alpha, r, cons, dist in zip(
        record.t[:cutoff].tolist(), record.alpha[:cutoff].tolist(), record.r[:cutoff].tolist(),
        record.consensus_err[:cutoff].tolist(), record.dist_lifted_min[:cutoff].tolist(),
    ):
        text += f"{t},{alpha!r},{r!r},{cons!r},{'' if math.isnan(dist) else repr(dist)}\r\n"
    return text


class TestRunBatch:
    @pytest.mark.parametrize("side", _SIDES)
    def test_matches_the_per_run_loop_bit_for_bit(self, side, mix_quarter):
        ens, mix, base = _instance(side, mix_quarter)
        schedules = _mixed_schedules(base)
        x0 = np.linspace(-10.0, 10.0, ens.m * ens.n)
        batch = simulator.run_batch(ens, mix, schedules, x0=x0, horizon=1500)
        assert {rec.verdict for rec in batch} == {"bounded", "diverged"}
        assert sum(rec.verdict == "diverged" for rec in batch) >= 3
        for schedule, batched in zip(schedules, batch):
            r, step = _per_run_loop(ens, mix, schedule, x0, 1500, 1e12)
            assert np.array_equal(batched.r, r)
            assert batched.divergence_step == step

    @pytest.mark.parametrize("side", _SIDES)
    def test_agrees_with_the_literal_update_rule(self, side, mix_quarter):
        # either step representation rounds differently from scaling the
        # gradient, so R(t) agrees to rounding, and the verdicts and
        # divergence steps exactly
        ens, mix, base = _instance(side, mix_quarter)
        x0 = np.linspace(-10.0, 10.0, ens.m * ens.n)
        # the second batch is the per-agent stepsize 0.5 base, m times it on this axis
        per_agent = [StepsizeSchedule.constant(ens.m * 0.5 * base)]
        for batch_schedules in (_mixed_schedules(base), per_agent):
            batch = simulator.run_batch(ens, mix, batch_schedules, x0=x0, horizon=1500)
            for schedule, batched in zip(batch_schedules, batch):
                r, step = _per_run_loop(ens, mix, schedule, x0, 1500, 1e12, update=_literal_update)
                assert batched.verdict == ("bounded" if step is None else "diverged")
                assert batched.divergence_step == step
                np.testing.assert_allclose(batched.r, r, rtol=1e-12, atol=0)

    def test_rows_equal_single_runs(self, mix_quarter):
        ens = _skewed_random(5)
        safe, obj = _safe_alpha(ens, mix_quarter)
        th = obj.strong_convexity_threshold()[0]
        schedules = [
            StepsizeSchedule.constant(safe),  # bounded
            StepsizeSchedule.constant(1.5 * th),  # R(t) crosses the threshold
            StepsizeSchedule.constant(1e150),  # crosses at once, never certified
            StepsizeSchedule.polynomial(a=2.0 * safe, w=1.0, p=0.5),
        ]
        kwargs = dict(
            x0=np.linspace(-1.0, 1.0, 6), horizon=200, record_every=1,
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
        th = obj.strong_convexity_threshold()[0]
        schedules = [
            StepsizeSchedule.constant(safe),
            StepsizeSchedule.constant(1e306),  # R(t) overflows, the state stays finite
            StepsizeSchedule.constant(1e308),  # the state itself overflows
            StepsizeSchedule.constant(1.5 * th),
        ]
        kwargs = dict(x0=np.linspace(-10.0, 10.0, 6), horizon=200, record_every=1)
        batch = simulator.run_batch(ens, mix_quarter, schedules, **kwargs)
        assert [rec.verdict for rec in batch] == ["bounded", "diverged", "diverged", "diverged"]
        for blown, finite_state in ((batch[1], True), (batch[2], False)):
            assert blown.divergence_step == 1 and blown.states.shape == (2, 6)
            assert np.array_equal(blown.states[0], kwargs["x0"])
            assert bool(np.all(np.isfinite(blown.states[-1]))) is finite_state
        # a finite state's R(t) is re-scaled, not read as the inf of its squares
        dev = batch[1].states[-1].reshape(3, 2) - ens.aggregate_minimizer()
        assert batch[1].r[-1] == _rescaled_norms(dev).sum() > 1e300
        assert batch[2].r[-1] == math.inf
        # an infinite threshold still stops a row whose state is infinite
        (endless,) = simulator.run_batch(
            ens, mix_quarter, schedules[2:3], **dict(kwargs, divergence_threshold=math.inf)
        )
        assert endless.divergence_step == 1
        for schedule, batched in zip(schedules, batch):
            single = simulator.run(ens, mix_quarter, schedule, **kwargs)
            _assert_same_record(batched, single)
            assert np.array_equal(batched.consensus_err, single.consensus_err)

    def test_overflowing_distance_with_a_contracting_step_stays_bounded(self, mix_single):
        # the squares in R(t) overflow for thousands of steps, but the folded
        # step's 0.1 A x stays finite; the oracle's radius is 0.9, and the run
        # agrees with it. R(t) is re-scaled there, so it and the CSV stay finite.
        ens = costs.QuadraticEnsemble(np.array([[[3.0, -2.0], [-2.0, 3.0]]]), np.zeros((1, 2)))
        oracle = simulator.boundedness_oracle(ens, mix_single, 0.1)
        assert oracle.bounded and oracle.spectral_radius == pytest.approx(0.9)
        x0 = np.full(2, 1e308)  # an eigenvector of 0.9
        (rec,) = simulator.run_batch(
            ens, mix_single, [StepsizeSchedule.constant(0.1)], x0=x0,
            horizon=4000, divergence_threshold=math.inf, record_every=1,
        )
        assert rec.verdict == "bounded" and np.all(np.isfinite(rec.states))
        decay = 0.9 ** np.arange(4001)
        np.testing.assert_allclose(rec.states, decay[:, None] * x0, rtol=1e-9)
        assert rec.r[0] == 1.4142135623730951e308 > rec.r[-1]
        assert np.all(np.isfinite(rec.r)) and "inf" not in _csv_text(rec)

    @pytest.mark.parametrize("dense", [True, False], ids=_SIDES)
    def test_overflowing_consensus_squares_are_rescaled(self, dense, monkeypatch):
        # two agents at +-1e200 mix to their mean 0 and contract by 0.05 per
        # step: R(t) = 2e200 * 0.05^t and consensus sqrt(2) * 1e200 * 0.05^t,
        # whose squares overflow for the first steps. Both are taken again in
        # the state's binary unit there, as the per-step reference takes them.
        if not dense:
            monkeypatch.setattr(simulator, "_DENSE_NM", 0)  # nm = 2 stepped structured
        ens = costs.QuadraticEnsemble(np.ones((2, 1, 1)), np.zeros((2, 1)))
        mix = topology.validate_mixing(np.full((2, 2), 0.5))
        schedule, x0 = StepsizeSchedule.constant(0.1), np.array([1e200, -1e200])
        (rec,) = simulator.run_batch(
            ens, mix, [schedule], x0=x0, horizon=200, divergence_threshold=math.inf
        )
        assert rec.verdict == "bounded"
        cons = []
        r, _ = _per_run_loop(ens, mix, schedule, x0, 200, math.inf, rescale=True, consensus=cons)
        assert np.array_equal(rec.r, r) and np.array_equal(rec.consensus_err, cons)
        assert "inf" not in _csv_text(rec)
        decay = 0.05 ** np.arange(201)
        np.testing.assert_allclose(rec.r, 2e200 * decay, rtol=1e-13)
        np.testing.assert_allclose(rec.consensus_err, math.sqrt(2) * 1e200 * decay, rtol=1e-13)

    @pytest.mark.parametrize(
        "identical, x0",
        [(False, np.zeros(6)), (True, np.zeros(6)), (True, np.tile([0.0, 2.0], 3))],
        ids=["readme-from-0", "identical-from-0", "identical-from-consensus"],
    )
    def test_exact_zero_consensus_is_kept_as_the_rescue_keeps_it(
        self, identical, x0, mix_quarter, monkeypatch
    ):
        # a consensus cell of exactly 0 whose state deviates from the agent
        # mean by exactly 0 everywhere never sends its chunk to the rescue:
        # README seed 5 from x0 = 0, three identical agents from x0 = 0 (whose
        # first states peak below 1) and from a consensual x0 never call it.
        # Every record is that of a chunk test that rescues every zero.
        if identical:
            a, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
            ens = costs.QuadraticEnsemble(np.array([a] * 3), np.array([b] * 3))
        else:
            ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        kwargs = dict(x0=x0, horizon=1000, record_every=1)
        rescues = []  # the rescue takes every metric it redoes with `norm`
        norm = simulator.norm
        monkeypatch.setattr(simulator, "norm", lambda x, axis: rescues.append(x) or norm(x, axis))
        (rec,) = simulator.run_batch(ens, mix_quarter, [StepsizeSchedule.constant(0.3)], **kwargs)
        zeros = np.flatnonzero(rec.consensus_err == 0)
        assert zeros.size and zeros[0] == 0
        assert rescues == []
        if identical and not x0.any():  # zeros past the first chunk too
            assert zeros[-1] >= simulator._CHUNK
        monkeypatch.setattr(simulator, "_zeros_kept", lambda states, cons: False)
        (rescued,) = simulator.run_batch(
            ens, mix_quarter, [StepsizeSchedule.constant(0.3)], **kwargs
        )
        assert rescues
        _assert_same_record(rec, rescued)
        assert np.array_equal(rec.consensus_err, rescued.consensus_err)

    def test_subnormal_consensus_keeps_its_exact_zero(self):
        # three agents at the largest subnormal, 2^-1022 - 2^-1074, stay
        # consensual: every deviation from the agent mean is exactly 0, and
        # so is every consensus cell. Divided by the state's unit, the mean
        # rounds: a rescue of these cells in that unit read 5e-324.
        ens = costs.QuadraticEnsemble(np.ones((3, 1, 1)), np.zeros((3, 1)))
        mix = topology.validate_mixing(np.full((3, 3), 1 / 3))
        (rec,) = simulator.run_batch(
            ens, mix, [StepsizeSchedule.constant(0.5)], x0=np.full(3, 2.225073858507201e-308),
            horizon=3, record_every=1,
        )
        assert not simulator._deviations(rec.states.reshape(4, 3, 1)).any()
        assert rec.consensus_err.tolist() == [0.0] * 4

    @pytest.mark.parametrize("peak", [2.0**-100, 1.0, 1e300], ids=["2^-100", "1", "1e300"])
    def test_zero_consensus_of_a_state_below_unit_peak_is_rescued(self, peak, mix_quarter):
        # one coordinate at `peak` on every agent and one at +-1e-200: the
        # squares of the deviations underflow, so consensus reads exactly 0,
        # but it is the norm of those deviations, sqrt(2) 1e-200, whatever
        # the state's peak. A peak far above the squares' floor does not
        # make such a zero exact.
        ens = costs.QuadraticEnsemble(np.array([np.eye(2)] * 3), np.zeros((3, 2)))
        x0 = np.array([peak, 1e-200, peak, -1e-200, peak, 0.0])
        (rec,) = simulator.run_batch(
            ens, mix_quarter, [StepsizeSchedule.constant(0.3)], x0=x0, horizon=3
        )
        blocks = x0.reshape(3, 2)
        assert rec.consensus_err[0] == numerics.norm(blocks - blocks.mean(axis=0))
        assert rec.consensus_err[0] == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15)

    def test_consensus_of_an_overflowing_agent_mean(self):
        # two agents at 1.7e308 and 1.0e308: their sum, and so the agent mean,
        # overflows, so the deviations are taken in the state's unit 2^1023
        ens = costs.QuadraticEnsemble(np.ones((2, 1, 1)), np.zeros((2, 1)))
        mix = topology.validate_mixing(np.array([[0.75, 0.25], [0.25, 0.75]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (rec,) = simulator.run_batch(
                ens, mix, [StepsizeSchedule.constant(0.1)], x0=np.array([1.7e308, 1.0e308]),
                horizon=3, divergence_threshold=math.inf,
            )
        assert rec.verdict == "bounded"
        assert rec.consensus_err.tolist() == [
            4.949747468305832e307, 2.2273863607376232e307,
            1.0023238623319301e307, 4.510457380493692e306,
        ]

    def test_finite_threshold_beyond_the_squares_overflow(self, mix_quarter):
        # README seed 5 at alpha = 2.0 (rho 2.08) passes R = 1.3e154, where
        # the squares overflow, hundreds of steps before R reaches 1e300; the
        # crossing is taken on the re-scaled R(t), as a per-step loop takes it
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        schedule = StepsizeSchedule.constant(2.0)
        x0 = np.zeros(6)
        (rec,) = simulator.run_batch(
            ens, mix_quarter, [schedule], x0=x0, horizon=2000, divergence_threshold=1e300
        )
        r, step = _per_run_loop(ens, mix_quarter, schedule, x0, 2000, 1e300, rescale=True)
        assert rec.divergence_step == step and step > 447  # an agent's squares overflow at 447
        assert np.array_equal(rec.r, r)
        assert 1e300 < rec.r[-1] < math.inf and rec.r[step - 1] <= 1e300
        assert np.all(np.isfinite(rec.consensus_err[:step]))
        assert "inf" not in _csv_text(rec)

    def test_nan_state_is_recorded_as_infinite(self, mix_single):
        # an infinite threshold lets a finite state with overflowing squares in
        # R(t) keep stepping, its R(t) re-scaled; its step is x - (30 I) x =
        # -inf, and subtracting 10 b = -inf makes it nan. The oracle's radius
        # is 29. The per-run loop squares without re-scaling, so its R(0) is inf.
        ens = _nan_ensemble()
        assert not simulator.boundedness_oracle(ens, mix_single, 10.0).bounded
        schedule = StepsizeSchedule.constant(10.0)
        x0 = np.full(2, 1e308)
        (rec,) = simulator.run_batch(
            ens, mix_single, [schedule], x0=x0, horizon=5, divergence_threshold=math.inf,
            record_every=1,
        )
        assert rec.divergence_step == 1 and np.all(np.isnan(rec.states[-1]))
        assert rec.states.shape == (2, 2) and np.array_equal(rec.states[0], x0)
        distance = math.dist(x0, ens.aggregate_minimizer())  # 9.4e307
        assert rec.r[0] == pytest.approx(distance, rel=1e-15) and rec.r[1] == math.inf
        assert rec.consensus_err[-1] == math.inf
        r, step = _per_run_loop(ens, mix_single, schedule, x0, 5, math.inf)
        assert r[0] == math.inf and np.array_equal(rec.r[1:], r[1:])
        assert rec.divergence_step == step

    def test_engine_raises_no_runtime_warning(self, mix_quarter, mix_single):
        ens = _skewed_random(5)
        safe, _ = _safe_alpha(ens, mix_quarter)
        schedules = [StepsizeSchedule.constant(a) for a in (safe, 1e306, 1e308)]
        nan_ens = _nan_ensemble()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = simulator.run_batch(
                ens, mix_quarter, schedules, x0=np.linspace(-10.0, 10.0, 6), horizon=200
            )
            (nan_rec,) = simulator.run_batch(
                nan_ens, mix_single, [StepsizeSchedule.constant(10.0)],
                x0=np.full(2, 1e308), horizon=5, divergence_threshold=math.inf,
                record_every=1,
            )
            # README's seed-5 instance: 2.4 is certified (alpha_A is 2.53) but
            # diverges, so the state grows until it is no longer finite
            readme = costs.random_ensemble(3, 2, 1.0, seed=5)
            (blown,) = simulator.run_batch(
                readme, mix_quarter, [StepsizeSchedule.constant(2.4)], x0=np.ones(6),
                horizon=2000, divergence_threshold=math.inf, record_every=1,
                lifted_distance=lifted.LiftedObjective(readme, mix_quarter),
            )
        assert [rec.verdict for rec in batch] == ["bounded", "diverged", "diverged"]
        assert nan_rec.divergence_step == 1 and np.all(np.isnan(nan_rec.states[-1]))
        assert blown.verdict == "diverged" and not np.all(np.isfinite(blown.states[-1]))
        # the state is finite up to the crossing, which is the first state that is not
        assert len(blown.states) == blown.r.size and np.isfinite(blown.states[:-1]).all()
        # the distance is taken at every finite state and left blank at the last
        assert not np.any(np.isnan(blown.dist_lifted_min[:-1]))
        assert np.isnan(blown.dist_lifted_min[-1])

    @pytest.mark.parametrize("side", _SIDES)
    def test_chunk_boundaries_match_the_per_run_loop(self, side, mix_quarter):
        chunk = simulator._CHUNK
        ens, mix, _ = _instance(side, mix_quarter)
        safe, obj = _safe_alpha(ens, mix)
        steep = StepsizeSchedule.constant(1.5 * obj.strong_convexity_threshold()[0])
        calm = [StepsizeSchedule.constant(safe), StepsizeSchedule.polynomial(a=2.0 * safe, p=0.5)]
        x0 = np.linspace(-1.0, 1.0, ens.m * ens.n)
        growth, _ = _per_run_loop(ens, mix, steep, x0, 3 * chunk, math.inf)
        cases = [(calm, chunk - 1, 1e12, None), (calm, chunk, 1e12, None)]
        for crossing in (chunk - 1, chunk, chunk + 1):
            threshold = float(np.max(growth[:crossing]))  # R(t) first exceeds it at `crossing`
            cases.append(([steep] + calm, 3 * chunk, threshold, crossing))
        for schedules, horizon, threshold, crossing in cases:
            batch = simulator.run_batch(
                ens, mix, schedules, x0=x0, horizon=horizon,
                divergence_threshold=threshold, record_every=1,
            )
            assert batch[0].divergence_step == crossing
            for schedule, rec in zip(schedules, batch):
                states = []
                r, stop = _per_run_loop(ens, mix, schedule, x0, horizon, threshold, states)
                assert np.array_equal(rec.r, r) and rec.divergence_step == stop
                # every state, up to the crossing or the horizon
                assert np.array_equal(rec.states, np.array(states))

    @pytest.mark.parametrize("m, n", [(3, 2), (12, 1), (9, 9), (50, 6), (8, 2)])
    def test_metrics_equal_the_per_step_formulas(self, m, n):
        # R(t) and consensus are taken once per chunk of states; on every state
        # they are bit for bit the per-step formulas: the agent mean by numpy's
        # reduce over the agent axis, then the flattened sum of squares. With
        # n = 1 that axis is contiguous and numpy sums it pairwise.
        # epsilon 2 keeps each aggregate strongly convex, so that x* exists
        ens = costs.random_ensemble(m, n, 2.0, seed=2)
        mix = _ring(m)
        x_star = ens.aggregate_minimizer()
        base = m * bounds.lambda_min_bound(mix.spectral.lambda_min, ens.smoothness_constant())
        schedules = [
            StepsizeSchedule.constant(0.5 * base),
            StepsizeSchedule.constant(40.0 * base),  # crosses the threshold inside the horizon
            StepsizeSchedule.polynomial(a=base, p=0.5),
        ]
        batch = simulator.run_batch(
            ens, mix, schedules, x0=np.linspace(3.0, -3.0, m * n), horizon=150,
            record_every=1,
        )
        assert batch[1].verdict == "diverged" and batch[0].t.size == 151
        for rec in batch:
            r, cons = [], []
            for t in rec.t:
                blocks = rec.state_at(int(t)).reshape(m, n)
                r.append(np.linalg.norm(blocks - x_star, axis=1).sum())
                dev = blocks - np.add.reduce(blocks, axis=0) / m
                cons.append(np.sqrt(np.add.reduce((dev * dev).reshape(-1))))
            assert np.array_equal(rec.r, r)
            assert np.array_equal(rec.consensus_err, cons)

    def test_csv_rows_keep_the_per_row_format(self, mix_quarter):
        # the block writer's bytes against one f-string per row: CRLF endings,
        # 601 and 451 rows (not whole blocks), blank distance cells next to
        # filled ones in one block, all-blank cells, and a diverged run cut
        # off at its divergence step
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        uncertified_first = StepsizeSchedule.polynomial(a=4.0, p=0.5)  # alpha_A is 2.53
        assert math.isnan(simulator.run(
            ens, mix_quarter, uncertified_first, horizon=1, lifted_distance=obj,
        ).dist_lifted_min[0])
        records = simulator.run_batch(
            ens, mix_quarter,
            [uncertified_first, StepsizeSchedule.constant(0.3), StepsizeSchedule.constant(2.0)],
            x0=np.linspace(-1.0, 1.0, 6), horizon=600, lifted_distance=obj,
        )
        records.append(simulator.run(ens, mix_quarter, StepsizeSchedule.constant(0.3), horizon=450))
        assert [rec.verdict for rec in records] == ["bounded", "bounded", "diverged", "bounded"]
        dist = records[0].dist_lifted_min
        assert np.isnan(dist[0]) and np.isfinite(dist[-1])
        for rec in records:
            assert _csv_text(rec) == _csv_reference(rec)

    def test_batch_of_one_is_run(self, mix_quarter):
        ens = _skewed_random(5)
        schedule = StepsizeSchedule.polynomial(a=0.4, w=2.0, p=0.8)
        kwargs = dict(x0=np.ones(6), horizon=120, record_every=1)
        (batched,) = simulator.run_batch(ens, mix_quarter, [schedule], **kwargs)
        single = simulator.run(ens, mix_quarter, schedule, **kwargs)
        _assert_same_record(batched, single)
        assert np.array_equal(batched.consensus_err, single.consensus_err)

    def test_batch_empties_when_every_row_diverges(self, mix_quarter):
        ens = _skewed_random(5)
        th = lifted.LiftedObjective(ens, mix_quarter).strong_convexity_threshold()[0]
        schedules = [StepsizeSchedule.constant(k * th) for k in (3.0, 1.5)]
        batch = simulator.run_batch(ens, mix_quarter, schedules, horizon=10_000)
        for schedule, batched in zip(schedules, batch):
            assert batched.verdict == "diverged"
            assert batched.t.size == batched.divergence_step + 1 < 10_001
            _assert_same_record(
                batched, simulator.run(ens, mix_quarter, schedule, horizon=10_000)
            )
        assert simulator.run_batch(ens, mix_quarter, []) == []

    def test_optional_histories_leave_the_kept_metrics_unchanged(self, mix_quarter):
        # bounded, diverging, polynomial and overflowing rows, with every
        # optional history and without each: R(t), the verdicts and the
        # divergence steps are the same bits, and so is each kept history
        ens = _skewed_random(5)
        safe, obj = _safe_alpha(ens, mix_quarter, frac=1.0)
        schedules = _mixed_schedules(safe)
        kwargs = dict(x0=np.linspace(-10.0, 10.0, 6), horizon=1500, record_every=1)
        full = simulator.run_batch(ens, mix_quarter, schedules, **kwargs)
        assert {rec.verdict for rec in full} == {"bounded", "diverged"}
        bare = simulator.run_batch(
            ens, mix_quarter, schedules, **dict(kwargs, record_every=None), consensus=False
        )
        no_states = simulator.run_batch(
            ens, mix_quarter, schedules, **dict(kwargs, record_every=None)
        )
        no_consensus = simulator.run_batch(ens, mix_quarter, schedules, **kwargs, consensus=False)
        for whole, alone, with_cons, with_states in zip(full, bare, no_states, no_consensus):
            for rec in (alone, with_cons, with_states):
                assert np.array_equal(rec.r, whole.r)
                assert rec.verdict == whole.verdict
                assert rec.divergence_step == whole.divergence_step
            assert np.array_equal(with_cons.consensus_err, whole.consensus_err)
            assert len(whole.states) == whole.r.size
            assert np.array_equal(with_states.states, whole.states)
            # no consensus history: a read-only NaN broadcast, as an untracked distance
            for rec in (alone, with_states):
                cons = rec.consensus_err
                assert cons.strides == (0,) and cons.size == whole.r.size
                assert np.isnan(cons).all()
                with pytest.raises(ValueError):
                    cons[0] = 0
            # no state history: no states, and none to look up
            for rec in (alone, with_cons):
                assert rec.states.shape == (0, 6) and not rec.states.flags.writeable
                with pytest.raises(KeyError):
                    rec.state_at(0)
        # the check needs every state, and refuses a record with none
        half = StepsizeSchedule.constant(0.5 * safe)
        stepwise = simulator.run(ens, mix_quarter, half, horizon=50, record_every=1)
        assert simulator.nonexpansiveness_check(stepwise, obj).ok
        stateless = simulator.run(ens, mix_quarter, half, horizon=50, record_every=None)
        with pytest.raises(ValueError, match="record_every=1"):
            simulator.nonexpansiveness_check(stateless, obj)


_PEAK_HORIZON = 20_000


def _readme_batch_peak(mix, **kwargs):
    """README's seed-5 instance at six bounded multiples of alpha_main over
    _PEAK_HORIZON steps: the tracemalloc peak of the run, B and nm."""
    ens = costs.random_ensemble(3, 2, 1.0, seed=5)
    bracket = lifted.LiftedObjective(ens, mix).strong_convexity_threshold()
    base = bounds.build_report(ens, mix, bracket=bracket).alpha_main
    schedules = [StepsizeSchedule.constant(k * base) for k in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)]
    simulator.run_batch(ens, mix, schedules, horizon=10)  # x* solved and cached
    tracemalloc.start()
    try:
        records = simulator.run_batch(ens, mix, schedules, horizon=_PEAK_HORIZON, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rec.verdict for rec in records] == ["bounded"] * len(schedules)
    return peak, len(schedules), ens.m * ens.n


class TestRecordMemory:
    def test_peak_is_the_histories_once(self, mix_quarter):
        # the peak is the R and consensus histories and a state per step
        # (with 6% slack), plus two chunk-sized buffers (the chunk and a
        # metric's temporary); nothing else is held per step, and the records
        # add no copies
        horizon = _PEAK_HORIZON
        peak, b, mn = _readme_batch_peak(mix_quarter, record_every=1)
        floats = 2 * b * (horizon + 1) + b * (horizon + 1) * mn
        chunk_buffers = 2 * simulator._CHUNK * b * mn
        assert peak < 8 * (1.06 * floats + chunk_buffers)

    def test_peak_is_r_alone_without_the_optional_histories(self, mix_quarter):
        # kept as sweep-alpha keeps it, R(t) alone: the peak is the R history
        # (with 10% slack) plus the two chunk buffers
        peak, b, mn = _readme_batch_peak(mix_quarter, record_every=None, consensus=False)
        floats = b * (_PEAK_HORIZON + 1)
        chunk_buffers = 2 * simulator._CHUNK * b * mn
        assert peak < 8 * (1.1 * floats + chunk_buffers)

    @pytest.mark.parametrize("shape", ["sweep-alpha", "simulate"])
    def test_early_divergence_holds_no_horizon(self, mix_quarter, shape):
        # README's seed 5 under a 10^7-step horizon, where every row diverges
        # within 120 steps: R alone at the five multiples of alpha_A that CI's
        # edge sweep runs, or, as `simulate` keeps them, R, consensus, a
        # polynomial schedule's alpha and the lifted distance (certified
        # from step 15 on). The rows hold the cells they reach, where
        # whole-horizon histories would take 80 MB per row and metric.
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        alpha_a = obj.strong_convexity_threshold()[0]
        if shape == "sweep-alpha":
            multiples = (0.5, 0.95, 0.99, 1.01, 1.02)
            schedules = [StepsizeSchedule.constant(k * alpha_a) for k in multiples]
            kwargs = dict(record_every=None, consensus=False)
        else:
            schedules = [StepsizeSchedule.polynomial(a=4.0 * alpha_a, p=0.5)]
            kwargs = dict(record_every=None, lifted_distance=obj)
        short = simulator.run_batch(ens, mix_quarter, schedules, horizon=300, **kwargs)
        tracemalloc.start()
        try:
            records = simulator.run_batch(ens, mix_quarter, schedules, horizon=10**7, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        for rec, same in zip(records, short):
            assert rec.verdict == "diverged" and rec.divergence_step < 120
            for name in ("alpha", "r", "consensus_err", "dist_lifted_min"):
                assert np.array_equal(getattr(rec, name), getattr(same, name), equal_nan=True)
        if shape == "simulate":
            assert np.isfinite(records[0].dist_lifted_min).any()

    @pytest.mark.parametrize("batched", [False, True])
    def test_defaults_keep_no_state_history(self, mix_quarter, batched):
        # README's seed 5 at alpha = 4.0 diverges within 30 steps: with the
        # defaults a run keeps no states, and a 10^7-step horizon holds a few
        # cells
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        schedule = StepsizeSchedule.constant(4.0)
        simulator.run(ens, mix_quarter, schedule, horizon=10)  # x* solved and cached
        tracemalloc.start()
        try:
            if batched:
                (rec,) = simulator.run_batch(ens, mix_quarter, [schedule], horizon=10**7)
            else:
                rec = simulator.run(ens, mix_quarter, schedule, horizon=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.verdict == "diverged" and rec.divergence_step < 30
        assert rec.states.shape == (0, 6)
        assert peak < 1e6

    def test_kept_states_hold_no_horizon(self, mix_quarter):
        # the same run keeping every state: its state history holds the 6
        # floats of each step it reaches, where one allocated for the whole
        # 10^8-step horizon would take 4.8 GB
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        schedule = StepsizeSchedule.constant(4.0)
        short = simulator.run(ens, mix_quarter, schedule, horizon=300, record_every=1)
        tracemalloc.start()
        try:
            rec = simulator.run(ens, mix_quarter, schedule, horizon=10**8, record_every=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.verdict == "diverged" and rec.divergence_step < 30
        assert rec.states.shape == (rec.divergence_step + 1, 6) == short.states.shape
        assert np.array_equal(rec.states, short.states, equal_nan=True)
        assert rec.states.base.shape == rec.states.shape  # trimmed to the cells reached
        assert peak < 1e6

    def test_histories_grow_by_doubling(self, mix_quarter, monkeypatch):
        # a bounded row's histories double from one chunk up to horizon + 1
        # cells, so growth copies fewer than twice that many cells, and a
        # diverged row's are trimmed to its divergence step
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        grow = simulator._RowHistories._grow
        sizes = []

        def logged(self, buffer, stop):
            before = buffer.size
            grow(self, buffer, stop)
            sizes.append((before, buffer.size))

        monkeypatch.setattr(simulator._RowHistories, "_grow", logged)
        horizon = 10_000
        bounded, diverged = simulator.run_batch(
            ens, mix_quarter, [StepsizeSchedule.constant(0.3), StepsizeSchedule.constant(4.0)],
            horizon=horizon, record_every=None, consensus=False,
        )
        assert bounded.verdict == "bounded" and diverged.verdict == "diverged"
        assert sizes[0][0] == simulator._CHUNK
        assert all(after == min(2 * before, horizon + 1) for before, after in sizes)
        assert sizes[-1][1] == horizon + 1 and sum(before for before, _ in sizes) < 2 * horizon
        assert diverged.r.base.size == diverged.divergence_step + 1

    def test_record_arrays_are_read_only_views(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        constant = StepsizeSchedule.constant(0.3)
        untracked = simulator.run_batch(
            ens, mix_quarter, [constant, StepsizeSchedule.constant(2.0)],  # the second diverges
            horizon=300, record_every=1,
        )
        tracked = simulator.run_batch(
            ens, mix_quarter, [constant, StepsizeSchedule.polynomial(a=0.3, p=0.5)],
            horizon=300, lifted_distance=obj,
        )
        assert untracked[1].verdict == "diverged"
        held = ("alpha", "r", "consensus_err", "dist_lifted_min", "states")
        for rec in untracked + tracked:
            for name in held + ("t",):
                with pytest.raises(ValueError):
                    getattr(rec, name)[0] = 0
            # views and broadcasts only; `t` is derived
            assert not any(getattr(rec, name).flags.owndata for name in held)
        # no history behind a constant schedule's alpha or an untracked distance
        for rec in untracked:
            assert rec.alpha.strides == (0,) and rec.dist_lifted_min.strides == (0,)
        assert np.array_equal(untracked[0].alpha, np.full(301, 0.3))
        assert tracked[0].alpha.strides == tracked[0].dist_lifted_min.strides == (8,)

    @pytest.mark.parametrize("side", _SIDES)
    def test_crossing_state_ends_the_state_history(self, side, mix_quarter):
        # a crossing at 65, one step into the second chunk: the diverged row
        # keeps every state up to and including the crossing one, in a buffer
        # trimmed to those cells, and none after it
        ens, mix, _ = _instance(side, mix_quarter)
        nm = ens.m * ens.n
        safe, obj = _safe_alpha(ens, mix)
        steep = StepsizeSchedule.constant(1.5 * obj.strong_convexity_threshold()[0])
        x0, horizon, crossing = np.linspace(-1.0, 1.0, nm), 200, 65
        growth, _ = _per_run_loop(ens, mix, steep, x0, horizon, math.inf)
        threshold = float(np.max(growth[:crossing]))  # R(t) first exceeds it at `crossing`
        batch = simulator.run_batch(
            ens, mix, [steep, StepsizeSchedule.constant(safe)], x0=x0,
            horizon=horizon, divergence_threshold=threshold, record_every=1,
        )
        diverged, bounded = batch
        assert diverged.divergence_step == crossing and bounded.verdict == "bounded"
        assert diverged.states.base.shape == (crossing + 1, nm)
        assert bounded.states.shape == (horizon + 1, nm)
        states = []
        _per_run_loop(ens, mix, steep, x0, horizon, threshold, states)
        assert np.array_equal(diverged.states, np.array(states))
        assert np.array_equal(diverged.states[-1], states[crossing])
        assert np.array_equal(diverged.state_at(crossing), states[crossing])
        for rec in batch:
            for t in range(rec.r.size):
                assert np.array_equal(rec.state_at(t), rec.states[t])
            # before the first step and one past the last
            for t in (-1, rec.r.size):
                with pytest.raises(KeyError):
                    rec.state_at(t)


class TestBoundednessOracle:
    def test_vanishing_stepsize_keeps_consensus_eigenvalue(self, mix_quarter):
        ens = _skewed_random(5)
        verdict = simulator.boundedness_oracle(ens, mix_quarter, 1e-12)
        assert verdict.bounded
        assert verdict.spectral_radius == pytest.approx(1.0, abs=1e-10)
        assert verdict.is_critical

    def test_single_agent_scalar_rule(self, mix_single):
        big_l = 4.0
        ens = costs.QuadraticEnsemble(np.array([[[big_l]]]), np.zeros((1, 1)))
        for alpha in (0.1, 0.3, 2.0 / big_l):
            v = simulator.boundedness_oracle(ens, mix_single, alpha)
            assert v.spectral_radius == pytest.approx(abs(1 - alpha * big_l), abs=1e-12)
            assert v.bounded
        assert not simulator.boundedness_oracle(ens, mix_single, 2.01 / big_l).bounded

    def test_matrix_matches_step(self, mix_quarter):
        # the oracle's iteration matrix I - H(0.4/m), from the lifted Hessian
        # builder, must reproduce the homogeneous step
        ens = costs.random_ensemble(3, 2, 1.0, seed=9)
        hom = costs.QuadraticEnsemble(ens.curvatures, np.zeros((3, 2)))
        rng = np.random.default_rng(3)
        m = np.eye(6) - lifted.LiftedObjective(hom, mix_quarter)._hessians([0.4])[0]
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
        # measured minimizer shift never exceeds its bound
        assert np.all(report.drift_measured <= report.drift_bound + 1e-12)
        # the distance sequence obeys the shifted-target inequality
        deltas = report.distances[1:] - report.distances[:-1]
        assert np.all(deltas <= report.drift_bound + 1e-9)

    def test_drift_matches_the_per_step_loop(self, mix_quarter):
        # the reference evaluates the closed-form shift bound one step at a
        # time, one basis direction at a time; the check does all steps in one
        # product, so the sums round in another order
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter, frac=0.9)
        schedule = StepsizeSchedule.polynomial(a=alpha, w=1.0, p=0.7)
        rec = simulator.run(ens, mix_quarter, schedule, x0=np.ones(6), horizon=120, record_every=1)
        report = simulator.nonexpansiveness_check(rec, obj)
        alphas, targets = rec.alpha, obj._minimizers(rec.alpha)
        _, z, mu, ur = obj._basis
        measured, bound = np.zeros((2, len(alphas) - 1))
        for i in range(len(alphas) - 1):
            measured[i] = np.linalg.norm(targets[i] - targets[i + 1])
            t_a, t_b = alphas[i] / 3, alphas[i + 1] / 3
            for j in range(len(mu)):
                g_a = -t_a * ur[j] / (1 - t_a * mu[j])
                g_b = -t_b * ur[j] / (1 - t_b * mu[j])
                bound[i] += np.linalg.norm(z[:, j]) * abs(g_b - g_a)
        assert np.count_nonzero(bound) == len(bound)
        np.testing.assert_allclose(report.drift_bound, bound, rtol=1e-13, atol=0)
        np.testing.assert_allclose(report.drift_measured, measured, rtol=1e-15, atol=0)

    def test_closed_form_shift_bound_on_readme_class_seeds(self, mix_quarter):
        # polynomial schedules on README-class instances: the bound covers
        # every measured shift and every step's growth of the distance, and
        # its per-step values telescope to the whole-run bound between the
        # first stepsize and the last
        rng = np.random.default_rng(12)
        checked = 0
        for seed in range(30):
            ens = costs.random_ensemble(3, 2, 1.0, seed=seed)
            if ens.aggregate_mu() <= 0.02:
                continue
            obj = lifted.LiftedObjective(ens, mix_quarter)
            floor = 3 * bounds.lambda_min_bound(
                mix_quarter.spectral.lambda_min, ens.smoothness_constant()
            )
            top = 0.9 * min(obj.strong_convexity_threshold()[0], floor)
            schedule = StepsizeSchedule.polynomial(a=top, w=1.0, p=float(rng.uniform(0.3, 1.0)))
            rec = simulator.run(
                ens, mix_quarter, schedule, x0=rng.normal(size=6), horizon=150, record_every=1
            )
            report = simulator.nonexpansiveness_check(rec, obj)
            assert report.ok, seed
            assert np.all(report.drift_measured <= report.drift_bound), seed
            assert np.all(np.diff(report.distances) <= report.drift_bound + 1e-9), seed
            _, z, mu, ur = obj._basis
            t = rec.alpha[[0, -1], None] / 3
            g = -t * ur / (1 - t * mu)
            whole = np.linalg.norm(z, axis=0) @ abs(g[1] - g[0])
            assert report.drift_bound.sum() == pytest.approx(whole, rel=1e-12, abs=0), seed
            checked += 1
        assert checked >= 15

    def test_minimizer_cost_does_not_grow_with_horizon(self, mix_quarter, monkeypatch):
        # the minimizers come from one Schur basis: no eigensolve or SPD
        # solve per stepsize, in the run or in the check
        eigensolves, solves = [], []
        eigensolve, solve_spd = numerics._eigensolve, numerics.solve_spd
        # every eigensolve, through sym_eigen's check or not, is one _eigensolve call
        for module in (numerics, lifted):
            monkeypatch.setattr(
                module, "_eigensolve", lambda *a, **k: eigensolves.append(1) or eigensolve(*a, **k)
            )
        for module in (numerics, lifted, costs):
            monkeypatch.setattr(
                module, "solve_spd", lambda a, b: solves.append(1) or solve_spd(a, b)
            )
        counts = []
        for horizon in (80, 160):
            ens = _skewed_random(5)
            alpha, obj = _safe_alpha(ens, mix_quarter, frac=0.9)
            eigensolves.clear()
            solves.clear()
            rec = simulator.run(
                ens, mix_quarter, StepsizeSchedule.polynomial(a=alpha, w=1.0, p=0.7),
                x0=np.ones(6), horizon=horizon, record_every=1, lifted_distance=obj,
            )
            assert simulator.nonexpansiveness_check(rec, obj).ok
            assert np.all(np.isfinite(rec.dist_lifted_min))
            assert len(set(rec.alpha.tolist())) == horizon + 1
            counts.append(len(eigensolves))
            assert solves == []
        assert counts[0] == counts[1] > 0

    def test_requires_full_state_history(self, mix_quarter):
        ens = _skewed_random(5)
        alpha, obj = _safe_alpha(ens, mix_quarter)
        rec = simulator.run(ens, mix_quarter, StepsizeSchedule.constant(alpha), horizon=50)
        with pytest.raises(ValueError):
            simulator.nonexpansiveness_check(rec, obj)

    @pytest.mark.parametrize("alpha0, ok", [(0.9, True), (0.95, False)])
    def test_precondition_lives_on_the_alpha_over_m_axis(self, mix_quarter, alpha0, ok):
        # README's seed-5 instance: alpha_L = (1 + lambda_min) / L is 0.314 and
        # alpha_A is 2.53, so both stepsizes are certified; only 0.9 is below
        # m alpha_L = 0.942
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        alpha_l = bounds.lambda_min_bound(
            mix_quarter.spectral.lambda_min, ens.smoothness_constant()
        )
        assert alpha_l < alpha0 < obj.strong_convexity_threshold()[0]
        assert (alpha0 <= 3 * alpha_l) is ok
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(alpha0),
            x0=np.ones(6), horizon=300, record_every=1,
        )
        if ok:
            assert simulator.nonexpansiveness_check(rec, obj).ok
        else:
            with pytest.raises(ValueError, match="exceeds m"):
                simulator.nonexpansiveness_check(rec, obj)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("factor, ok", [(1.0, True), (1.2, False)])
    def test_precondition_slack_is_relative(self, mix_quarter, scale, factor, ok):
        # README's seed 5 with A_k and b_k scaled by s: the floor
        # m (1 + lambda_min(W)) / L scales as 1/s (9.43e-13 at s = 1e12), and
        # at every scale the check takes the floor itself and refuses 1.2 times
        # it, which an absolute slack of 1e-12 let through at s = 1e12
        seed5 = costs.random_ensemble(3, 2, 1.0, seed=5)
        ens = costs.QuadraticEnsemble(scale * seed5.curvatures, scale * seed5.linear_terms)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        floor = 3 * bounds.lambda_min_bound(
            mix_quarter.spectral.lambda_min, ens.smoothness_constant()
        )
        rec = simulator.run(
            ens, mix_quarter, StepsizeSchedule.constant(factor * floor),
            x0=np.ones(6), horizon=300, record_every=1,
        )
        if ok:
            assert simulator.nonexpansiveness_check(rec, obj).ok
        else:
            with pytest.raises(ValueError, match="exceeds m"):
                simulator.nonexpansiveness_check(rec, obj)

    @pytest.mark.parametrize("k", [600, 1000])
    def test_report_scales_exactly_past_the_squares_overflow(self, mix_quarter, k):
        # README's seed 5 with b and x0 times 2^k: every state and minimizer
        # scales by 2^k, and each norm whose squares overflow is taken in a
        # binary unit, so the report is the scale-1 report times 2^k, bit for bit
        seed5 = costs.random_ensemble(3, 2, 1.0, seed=5)
        schedule = StepsizeSchedule.polynomial(a=0.3, w=1.0, p=0.5)

        def report(scale):
            ens = costs.QuadraticEnsemble(seed5.curvatures, scale * seed5.linear_terms)
            obj = lifted.LiftedObjective(ens, mix_quarter)
            rec = simulator.run(
                ens, mix_quarter, schedule, x0=scale * np.linspace(-1.0, 1.0, 6),
                horizon=80, record_every=1, lifted_distance=obj, divergence_threshold=math.inf,
            )
            return simulator.nonexpansiveness_check(rec, obj)

        plain, scaled = report(1.0), report(2.0**k)
        assert scaled.ok and plain.ok
        for name in ("distances", "core_margin", "drift_measured", "drift_bound"):
            assert np.array_equal(getattr(scaled, name), 2.0**k * getattr(plain, name)), name
        assert scaled.max_core_margin == 2.0**k * plain.max_core_margin

    def test_rejects_uncertified_stepsize(self, mix_quarter):
        ens = _skewed_random(5)
        obj = lifted.LiftedObjective(ens, mix_quarter)
        alpha_a, _ = obj.strong_convexity_threshold()
        floor = 3 * bounds.lambda_min_bound(
            mix_quarter.spectral.lambda_min, ens.smoothness_constant()
        )
        bad = 1.05 * alpha_a
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
    # the radius's alpha0 is a per-agent stepsize, the engine's 3 alpha0;
    # the run at alpha0 itself is a smaller stepsize on the same axis
    @pytest.mark.parametrize("factor", [3, 1])
    def test_mean_and_spread_stay_inside_radius(self, mix_quarter, factor):
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
            ens, mix_quarter, StepsizeSchedule.constant(factor * alpha0),
            x0=x0, horizon=2000, record_every=1,
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
            ens = costs.QuadraticEnsemble(a[None], rng.normal(size=(1, 2)))
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
