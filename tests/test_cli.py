import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dgdlab import bounds, cli, config, costs, lifted, numerics, simulator
from dgdlab.config import parse_config
from dgdlab.errors import ConfigError

W_QUARTER = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
W_SKEWED = [[0.4, 0.3, 0.3], [0.3, 0.3, 0.4], [0.3, 0.4, 0.3]]
W_UNIFORM = [[1 / 3] * 3] * 3
README_ENSEMBLE = {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5}
# every A_k positive definite: every stepsize certifies, and alpha_A is inf
POSITIVE_DEFINITE_ENSEMBLE = {
    "type": "explicit",
    "costs": [
        {"A": [[2.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0]},
        {"A": [[1.0, 0.3], [0.3, 0.5]], "b": [0.5, -1.0]},
        {"A": [[3.0, 1.0], [1.0, 2.0]], "b": [0.0, 2.0]},
    ],
}
PLANE_COST = {"A": [[2.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0]}  # a cost on R^2
BENCH_EPSILONS = [k / 5 for k in range(1, 101)]  # 0.2, ..., 20.0 = 2L: the benchmark's family
GOLDEN = Path(__file__).parent / "golden"


def _explicit(cost):
    """An explicit three-agent ensemble spec: `cost` for every agent."""
    return {"type": "explicit", "costs": [cost] * 3}


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def planted_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "ensemble": {"type": "epsilon_example", "L": 10, "mu": 1, "epsilon": 2.0},
            "mixing": {"type": "explicit", "W": W_SKEWED},
            "schedule": {"type": "constant", "alpha": 0.01},
            "horizon": 200,
        },
    )


@pytest.fixture
def random_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 0.05},
            "horizon": 300,
        },
    )


class TestConfigParsing:
    def test_round_trip_is_canonical(self):
        data = {
            "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "polynomial", "a": 0.1},
            "horizon": 50,
        }
        first = parse_config(data).canonical()
        second = parse_config(first).canonical()
        assert first == second

    @pytest.mark.parametrize(
        "patch",
        [
            {"horizon": 0},
            {"record_every": 0},
            {"record_every": 10},  # a run keeps every state or none: 1 or absent
            {"divergence_threshold": -1.0},
            {"alpha_multiples": [0.5, -1.0]},
            {"sweep_base": "other"},
            {"mystery_key": 1},
            {"schedule": {"type": "polynomial", "a": 0.1, "p": 2.0}},
            {"mixing": {"type": "explicit", "W": [[1.0, 0.0], [0.0, 1.0]]}},
            # a connected two-agent W under the three-agent ensemble
            {"mixing": {"type": "explicit", "W": [[0.5, 0.5], [0.5, 0.5]]}},
            {"x0": [0.0, 0.0]},
            {"epsilons": [1.0, -0.5]},
            {"L": 1.0, "mu": 1.0},
            {"L": 1.0, "mu": 2.0},
        ],
    )
    def test_invalid_configs_rejected(self, patch):
        data = {
            "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 0.05},
        }
        data.update(patch)
        with pytest.raises(ConfigError):
            parse_config(data)

    @pytest.mark.parametrize(
        "patch",
        [
            {"horizon": "abc"},
            {"horizon": 2.5},
            {"track_lifted": "false"},
            {"record_every": None},
            {"divergence_threshold": float("nan")},
            {"alpha_multiples": 0.5},
            {"epsilons": ["x"]},
            {"x0": [0.0, 0.0, 0.0, 0.0, 0.0, float("inf")]},
            {"ensemble": [1, 2]},
            {"ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": float("inf")}},
            {"schedule": "constant"},
            {"mixing": 3},
            {"threshold": 5},
            {"threshold": {"method": "grid"}},
            {"threshold": {"resolution": 1e-6, "grid_n": 100}},
            {"threshold": {"scan_cap": 0.0}},
            {"threshold": {"scan_cap": float("inf")}},
            {"threshold": {"scan_cap": "big"}},
            {"horizon": 1e300},
            {"ensemble": dict(README_ENSEMBLE, n=10**6)},
            {"ensemble": dict(README_ENSEMBLE, epsilon=1.7e308)},
            {"ensemble": {"type": "explicit", "costs": [{"A": [[1.0]], "b": [float("nan")]}] * 3}},
            {"ensemble": {"type": "explicit", "costs": [{"A": [[[1.0]]], "b": [0.0]}] * 3}},
            {"ensemble": {"type": "explicit", "costs": {"A": [[1.0]], "b": [0.0]}}},
        ],
    )
    def test_malformed_values_exit_2_without_traceback(self, patch, tmp_path, capsys):
        data = {
            "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 0.05},
        }
        data.update(patch)
        assert cli.main(["bounds", "--config", _write_config(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("ensemble", "m"), 3.7, "ensemble.m"),
            (("ensemble", "seed"), 5.9, "ensemble.seed"),
            (("ensemble", "n"), True, "ensemble.n"),
            (("ensemble", "epsilon"), "1.0", "ensemble.epsilon"),
            (("ensemble", "seed"), None, "ensemble.seed"),
            (("ensemble", "sead"), 5, "ensemble keys ['sead']"),
            (("mixing", "W"), [[0.5, "0.25", 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
             "mixing.W"),
            (("mixing", "W"), [[0.5, 0.5, False], [0.5, 0.25, 0.25], [0.0, 0.25, 0.75]],
             "mixing.W"),
            (("mixing", "adjacency"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
             "mixing keys ['adjacency']"),
            (("schedule", "alpha"), True, "schedule.alpha"),
            (("schedule", "alpha"), [0.05], "schedule.alpha"),
            (("schedule",), {"type": "polynomial", "a": 0.3, "q": 0.5}, "schedule keys ['q']"),
            (("schedule",), {"type": "constant", "alpha": 0.05, "w": 2.0}, "schedule keys ['w']"),
            (("horizon",), "50", "horizon"),
            (("ensemble",), _explicit({"A": [[True, 0.0], [0.0, 1.0]], "b": [1.0, 0.0]}),
             "ensemble.costs[0].A"),
            (("ensemble",), _explicit({"A": [[2.0, 0.0], [0.0, 1.0]], "b": ["1", 0.0]}),
             "ensemble.costs[0].b"),
            (("ensemble",), _explicit({"A": [[2.0]], "b": [1.0], "c": 0}),
             "ensemble.costs[0] keys ['c']"),
            # well-typed values that a constructor refuses
            (("ensemble", "seed"), -1, "ensemble.seed:"),
            (("ensemble", "n"), 0, "ensemble.n:"),
            (("ensemble", "epsilon"), -1.0, "ensemble.epsilon:"),
            (("ensemble",), {"type": "epsilon_example", "L": 10, "mu": 0, "epsilon": 1},
             "ensemble.mu:"),
            (("ensemble",), {"type": "explicit", "costs": [
                dict(PLANE_COST, b=[1.0, 0.0, 0.0]), PLANE_COST, PLANE_COST,
            ]}, "ensemble.costs[0]:"),
            (("ensemble",), {"type": "explicit", "costs": [
                {"A": [[1.0]], "b": [0.0]}, {"A": [[1.0]], "b": [0.0]}, PLANE_COST,
            ]}, "ensemble.costs:"),
            (("schedule",), {"type": "polynomial", "a": -0.3}, "schedule.a:"),
            (("schedule",), {"type": "polynomial", "a": 0.3, "w": 0.5}, "schedule.w:"),
            (("schedule",), {"type": "polynomial", "a": 0.3, "p": 2.0}, "schedule.p:"),
            (("schedule", "alpha"), 0, "schedule.alpha:"),
        ],
    )
    def test_mistyped_or_unknown_nested_values_exit_2_naming_their_path(
        self, path, value, named, tmp_path, capsys
    ):
        # README's seed-5 config with one value changed, at any depth; the
        # line names the narrowest key path it can
        data = {
            "ensemble": dict(README_ENSEMBLE),
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 0.05},
            "horizon": 50,
        }
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert cli.main(["simulate", "--config", _write_config(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and named in captured.err

    @pytest.mark.parametrize(
        "cost_list, line",
        [
            ([{"A": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "b": [0.0, 0.0]}, PLANE_COST, PLANE_COST],
             "ensemble.costs[0]: expected a square matrix, got shape (3, 2)"),
            ([PLANE_COST, dict(PLANE_COST, b=[1.0, 0.0, 0.0]), PLANE_COST],
             "ensemble.costs[1]: b has shape (3,), expected (2,)"),
            # tolerance 1e-12 times the largest entry, 2.0; the first two are symmetric
            ([PLANE_COST, PLANE_COST, {"A": [[2.0, 0.5], [0.5 + 1e-7, 1.0]], "b": [0.0, 0.0]}],
             "ensemble.costs[2]: matrix is not symmetric within 2e-12"),
            ([{"A": [[1.0]], "b": [0.0]}, {"A": [[1.0]], "b": [0.0]}, PLANE_COST],
             "ensemble.costs: all costs must share one ambient dimension"),
            ([], "ensemble.costs: an ensemble needs at least one cost"),
            ([{"A": [[1.7e308, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}] * 3,
             "ensemble.costs: the curvatures are too large: their sum overflows"),
        ],
        ids=["non-square", "b-shape", "asymmetric", "dimensions", "empty", "overflow"],
    )
    def test_explicit_cost_diagnostics(self, cost_list, line, tmp_path, capsys):
        # the exact line for each way an explicit cost list can be refused
        data = {
            "ensemble": {"type": "explicit", "costs": cost_list},
            "mixing": {"type": "explicit", "W": W_QUARTER},
        }
        assert cli.main(["bounds", "--config", _write_config(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {line}\n")

    @pytest.mark.parametrize("command", ["bounds", "simulate", "sweep-alpha", "sweep-epsilon"])
    def test_removed_agent_scale_key_exits_2(self, command, random_config, tmp_path, capsys):
        # one stepsize axis: the per-agent stepsize a is the stepsize m a
        data = dict(json.loads(Path(random_config).read_text()), agent_scale=True)
        assert cli.main([command, "--config", _write_config(tmp_path, data, "old.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: unknown configuration keys ['agent_scale']")

    @pytest.mark.parametrize("command", ["bounds", "simulate", "sweep-alpha", "sweep-epsilon"])
    def test_removed_threshold_key_exits_2(self, command, random_config, tmp_path, capsys):
        # no scan cap truncates alpha_A: it is the confirmed Schur edge, in any units
        data = dict(json.loads(Path(random_config).read_text()), threshold={"scan_cap": 1000})
        assert cli.main([command, "--config", _write_config(tmp_path, data, "old.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: unknown configuration keys ['threshold']")

    def test_removed_agent_scale_flag_is_refused(self, random_config, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--config", random_config, "--agent-scale"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --agent-scale" in capsys.readouterr().err

    def test_specs_are_read_into_one_normal_form(self):
        bare = parse_config(
            {"mixing": {"W": W_QUARTER}, "schedule": {"type": "polynomial", "a": 1}}
        ).canonical()
        full = parse_config(
            {
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "schedule": {"type": "polynomial", "a": 1.0, "w": 1.0, "p": 1.0},
            }
        ).canonical()
        assert bare == full
        assert full["mixing"] == {"type": "explicit", "W": W_QUARTER}
        assert full["schedule"] == {"type": "polynomial", "a": 1.0, "w": 1.0, "p": 1.0}
        ensemble = parse_config({"ensemble": dict(README_ENSEMBLE, m=3.0, epsilon=1)})
        assert ensemble.canonical()["ensemble"] == README_ENSEMBLE
        assert type(ensemble.ensemble_spec["m"]) is int

    def test_seed_override(self):
        data = {"ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5}}
        cfg = parse_config(data, seed_override=9)
        assert cfg.ensemble_spec["seed"] == 9


class TestBoundsCommand:
    def test_planted_instance_values(self, planted_config, capsys):
        assert cli.main(["bounds", "--config", planted_config]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha_S"] == pytest.approx(0.0075)
        assert data["alpha_L"] == pytest.approx(0.09)
        assert data["lambda_min"] == pytest.approx(-0.1, abs=1e-10)
        assert data["alpha_main"] == pytest.approx(min(data["alpha_L"], data["alpha_A"]))

    def test_quarter_matrix_lambda_min(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
                "mixing": {"type": "explicit", "W": W_QUARTER},
            },
        )
        assert cli.main(["bounds", "--config", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["lambda_min"] == pytest.approx(0.25, abs=1e-10)

    def test_single_agent(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "ensemble": {
                    "type": "explicit",
                    "costs": [{"A": [[1.0, 0.0], [0.0, 10.0]], "b": [0.0, 0.0]}],
                },
                "mixing": {"type": "explicit", "W": [[1.0]]},
            },
        )
        assert cli.main(["bounds", "--config", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha_L"] == pytest.approx(0.2)
        assert data["alpha_gd"] == pytest.approx(2.0 / 11.0)
        assert data["alpha_A"] == "inf"

    def test_uncertifiable_instance_exits_3(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "ensemble": {"type": "epsilon_example", "L": 10, "mu": 1, "epsilon": 25.0},
                "mixing": {"type": "explicit", "W": W_SKEWED},
            },
        )
        assert cli.main(["bounds", "--config", path]) == 3

    def test_identical_agents_keep_their_bounds(self, tmp_path, capsys):
        # the aggregate of three 0.1 I_2 agents rounds mu to 0.10000000000000002,
        # above L = 0.1: mu is clamped to L, so no bound is lost to rounding
        cost = {"A": [[0.1, 0.0], [0.0, 0.1]], "b": [0.0, 0.0]}
        data = {"ensemble": _explicit(cost), "mixing": {"type": "explicit", "W": W_QUARTER}}
        assert cli.main(["bounds", "--config", _write_config(tmp_path, data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mu"] > report["L"] == 0.1
        assert report["alpha_gd"] == 10.0
        assert report["eta"] == pytest.approx(0.05, rel=1e-15)
        assert math.isfinite(report["alpha_S"]) and math.isfinite(report["radius_R"])

    @pytest.mark.parametrize("k", [256, -256])
    def test_readme_instance_at_any_scale(self, k, tmp_path, capsys):
        # README's instance with every A_k and b_k times 4^k, exact in binary:
        # x* is the same, so alpha_S scales by 4^-k and the radius not at all
        # (at 4^256, mu L overflowed and alpha_S was NaN, which the radius refused)
        readme = costs.random_ensemble(3, 2, 1.0, seed=5)

        def report(scale):
            instance = [
                {"A": (scale * a).tolist(), "b": (scale * b).tolist()}
                for a, b in zip(readme.curvatures, readme.linear_terms)
            ]
            data = {
                "ensemble": {"type": "explicit", "costs": instance},
                "mixing": {"type": "explicit", "W": W_QUARTER},
            }
            path = _write_config(tmp_path, data, f"scale_{scale!r}.json")
            assert cli.main(["bounds", "--config", path]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            return json.loads(captured.out)

        s = 4.0**k
        plain, scaled = report(1.0), report(s)
        assert scaled["alpha_S"] == pytest.approx(plain["alpha_S"] / s, rel=1e-12)
        assert scaled["radius_R"] == pytest.approx(plain["radius_R"], rel=1e-12)

    def test_gap_bound_whose_denominator_underflows_keeps_its_value(self, tmp_path, capsys):
        # L (eta + L) underflows to 0 at L = 1e-300, but alpha_S, about
        # 0.75 mu / L^2 = 7.5e279, is representable: it is the closed form at
        # L and mu times 4^498, an exact rescaling, scaled back
        data = {
            "ensemble": {"type": "epsilon_example", "L": 1e-300, "mu": 1e-320, "epsilon": 5e-301},
            "mixing": {"type": "explicit", "W": W_QUARTER},
        }
        instance = costs.epsilon_example(1e-300, 1e-320, 5e-301)
        mixing = config.mixing_from_spec(data["mixing"])
        report = bounds.build_report(instance, mixing, bracket=(math.inf, math.inf)).to_dict()
        big_l, mu = instance.smoothness_constant(), instance.aggregate_mu()
        s = 4.0**498
        closed = bounds.spectral_gap_bound(mu * s, big_l * s, mixing.spectral.beta) * s
        assert report["alpha_S"] == closed == pytest.approx(7.5e279, rel=1e-3)
        # b = 0 puts x* and x0 = 0 together, with D = 0: the radius is 0
        assert report["radius_R"] == 0.0
        assert report["alpha_L"] == pytest.approx(1.25e300)
        # the Schur edge, 2.25e300, is the closed form 3 (2L - epsilon) / (4 L
        # epsilon), but at mu / L = 1e-20 the sign of H's smallest eigenvalue
        # does not confirm it, and the command exits 3
        assert cli.main(["bounds", "--config", _write_config(tmp_path, data)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "does not confirm the Schur edge 2.25e+300" in captured.err

    def test_bad_config_exits_2(self, tmp_path):
        path = _write_config(tmp_path, {"ensemble": {"type": "nope"}})
        assert cli.main(["bounds", "--config", path]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["bounds", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", ["bounds", "sweep-alpha"])
    def test_radius_past_the_float_range_warns_nothing(self, command, tmp_path, capsys):
        # b = 1e300 puts x* at -2e300 and D at 3e300, whose squares are past
        # the float range. The radius is max(2e300, 0, sqrt(2) 3e300 / 2.4),
        # each norm taken in a binary unit, exactly, with no numpy warning
        agents = [{"A": [[2.0]], "b": [1e300]}, {"A": [[-1.0]], "b": [1e300]}]
        data = {
            "ensemble": {"type": "explicit", "costs": agents},
            "mixing": {"type": "explicit", "W": [[0.75, 0.25], [0.25, 0.75]]},
            "alpha_multiples": [0.5],
            "horizon": 5,
        }
        path = _write_config(tmp_path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([command, "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "bounds":
            assert json.loads(captured.out)["radius_R"] == 2e300

    def test_radius_of_a_minimizer_whose_squares_overflow(self, tmp_path, capsys):
        # identical agents: D = 0, and the radius is ||x*|| = ||(3e200, 5e199)||
        cost = {"A": [[1.0, 0.0], [0.0, 2.0]], "b": [3e200, 1e200]}
        data = {"ensemble": _explicit(cost), "mixing": {"type": "explicit", "W": W_QUARTER}}
        assert cli.main(["bounds", "--config", _write_config(tmp_path, data)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["radius_R"] == 3.04138126514911e200

    @pytest.mark.parametrize("command", ["bounds", "sweep-alpha"])
    def test_gradient_bound_at_the_float_range(self, command, tmp_path, capsys):
        # x* = 0 and the gradients are the b_k: D = 1e308 is taken in their
        # binary unit 2^1023, which is finite, and no square overflows
        agents = [{"A": [[1.0]], "b": [b]} for b in (1e308, -1e308, 0.0)]
        data = {
            "ensemble": {"type": "explicit", "costs": agents},
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "horizon": 50,
        }
        path = _write_config(tmp_path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([command, "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "bounds":
            assert json.loads(captured.out)["radius_R"] == 1.1547005383792515e308

    def test_writes_output_file(self, planted_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli.main(["bounds", "--config", planted_config, "--out", str(out)]) == 0
        data = json.loads((out / "bounds.json").read_text())
        assert data["alpha_S"] == pytest.approx(0.0075)


class TestSimulateCommand:
    def test_flat_error_at_optimum(self, planted_config, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", planted_config, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "bounded"
        assert summary["max_R"] == pytest.approx(0.0, abs=1e-12)
        assert summary["oracle"]["bounded"] is True

        with open(out / "trajectory.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 201
        assert set(rows[0]) == {"t", "alpha", "R", "consensus_err", "dist_lifted_min"}
        assert all(math.isfinite(float(r["R"])) for r in rows)

    def test_divergent_run_is_a_finding_not_an_error(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "schedule": {"type": "constant", "alpha": 4.0},
                "horizon": 5000,
            },
        )
        out = tmp_path / "div"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "diverged"
        assert summary["oracle"]["bounded"] is False
        with open(out / "trajectory.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == summary["divergence_step"]
        assert all(float(r["R"]) <= summary["divergence_threshold"] for r in rows)

    @pytest.mark.parametrize(
        "schedule",
        [
            {"type": "constant", "alpha": float("nan")},
            {"type": "constant", "alpha": float("inf")},
            {"type": "polynomial", "a": float("nan")},
            {"type": "polynomial", "a": 0.1, "w": float("inf")},
        ],
    )
    def test_non_finite_stepsize_exits_2(self, schedule, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "schedule": schedule,
                "horizon": 10,
            },
        )
        assert cli.main(["simulate", "--config", path]) == 2
        assert "finite" in capsys.readouterr().err

    def test_lifted_distance_stays_finite_near_overflow(self, tmp_path):
        # README's instance at alpha 2.0 diverges; under a 1e300 threshold its
        # states reach 1e154, where the nm squares of the distance overflow
        config = {
            "ensemble": README_ENSEMBLE,
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 2.0},
            "horizon": 10000,
            "divergence_threshold": 1e300,
            "track_lifted": True,
        }
        out = tmp_path / "out"
        path = _write_config(tmp_path, config)
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.values() if cell)
        cfg = parse_config(config)
        objective = simulator.LiftedObjective(cfg.ensemble, cfg.mixing)
        record = simulator.run(
            cfg.ensemble, cfg.mixing, cfg.schedule, horizon=cfg.horizon,
            divergence_threshold=cfg.divergence_threshold, record_every=1,
        )
        target = objective.minimizer(2.0)
        for t in (445, 446):
            expected = math.dist(record.state_at(t), target)
            assert float(rows[t]["dist_lifted_min"]) == pytest.approx(expected, rel=1e-15)

    def test_lifted_distance_and_oracle_read_one_objective(self, tmp_path, monkeypatch, capsys):
        # the minimizers and the oracle's Hessians come from one threshold stack
        stacks = []
        init = lifted.ThresholdStack.__init__

        def counted(self, *args):
            stacks.append(self)
            init(self, *args)

        monkeypatch.setattr(lifted.ThresholdStack, "__init__", counted)
        config = {
            "ensemble": README_ENSEMBLE,
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 0.3},
            "horizon": 50,
            "track_lifted": True,
        }
        assert cli.main(["simulate", "--config", _write_config(tmp_path, config)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(stacks) == 1
        cfg = parse_config(config)
        oracle = simulator.boundedness_oracle(cfg.ensemble, cfg.mixing, 0.3)
        assert summary["oracle"]["spectral_radius"] == oracle.spectral_radius

    # three identical agents with a 2e300 curvature: rounding places the Schur
    # edge at about 2.7e31 (identical agents have none), where t A_k overflows
    OVERFLOW_CONFIG = {
        "ensemble": _explicit({"A": [[2e300, 0.5], [0.5, 1.0]], "b": [1.0, -1.0]}),
        "mixing": {"type": "metropolis", "adjacency": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
        "schedule": {"type": "constant", "alpha": 1e-301},
        "track_lifted": True,
        "horizon": 20,
    }

    @pytest.mark.parametrize("command", ["bounds", "sweep-alpha"])
    def test_hessian_past_the_float_range_exits_3(self, command, tmp_path, capsys):
        # the threshold's bracket needs H at the edge, which refuses it
        path = _write_config(tmp_path, self.OVERFLOW_CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([command, "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: certification failed: a Hessian block")

    def test_identical_agents_past_the_float_range_simulate_to_consensus(self, tmp_path, capsys):
        # the minimizers need no Hessian at the edge, only at the run's
        # stepsize, where H(t) is a float matrix: the minimizer is 1 kron x*,
        # as for any identical agents, and so is each distance the run tracks
        out = tmp_path / "sim"
        path = _write_config(tmp_path, self.OVERFLOW_CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        cfg = parse_config(self.OVERFLOW_CONFIG)
        consensus = np.tile(cfg.ensemble.aggregate_minimizer(), 3)
        objective = lifted.LiftedObjective(cfg.ensemble, cfg.mixing)
        assert np.array_equal(objective.minimizer(1e-301), consensus)
        states = simulator.run(
            cfg.ensemble, cfg.mixing, cfg.schedule, horizon=20, record_every=1
        ).states
        with open(out / "trajectory.csv", newline="") as handle:
            cells = [float(row["dist_lifted_min"]) for row in csv.DictReader(handle)]
        assert cells == numerics.norm(states - consensus, axis=1).tolist()

    def test_lifted_distance_within_rounding_of_the_edge_exits_3(self, tmp_path, capsys):
        # one float below README seed 5's edge, 1/t - mu_i rounds to 0 or below:
        # the minimizer there is refused, and so is the run that tracks it
        data = {"ensemble": README_ENSEMBLE, "mixing": {"type": "explicit", "W": W_QUARTER}}
        cfg = parse_config(data)
        edge = lifted.LiftedObjective(cfg.ensemble, cfg.mixing).certified_interval[1]
        data.update(
            schedule={"type": "constant", "alpha": float(np.nextafter(edge, 0.0))},
            horizon=20,
            track_lifted=True,
        )
        path = _write_config(tmp_path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["simulate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "is within rounding of the edge" in captured.err
        data["track_lifted"] = False
        assert cli.main(["simulate", "--config", _write_config(tmp_path, data)]) == 0

    def test_stepsize_overflowing_the_oracle_exits_2(self, tmp_path, capsys):
        # alpha and the curvature are each legal; their product is not a float
        costs = [{"A": [[2e300, 0.0], [0.0, 1.0]], "b": [1.0, 0.0]}] * 3
        path = _write_config(
            tmp_path,
            {
                "ensemble": {"type": "explicit", "costs": costs},
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "schedule": {"type": "constant", "alpha": 1e300},
                "horizon": 5,
            },
        )
        assert cli.main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflows" in err

    def test_stepsize_that_underflows_is_blank_in_the_lifted_distance(self, tmp_path, capsys):
        # a = 5e-324 is the smallest subnormal: alpha(0) = 5e-324 is certified,
        # and alpha(t) = 5e-324 / (t + 1) rounds to 0.0 from t = 1, which no
        # minimizer takes, so those rows leave dist_lifted_min blank
        data = {
            "ensemble": README_ENSEMBLE,
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "polynomial", "a": 5e-324, "w": 1, "p": 1},
            "horizon": 3,
            "track_lifted": True,
        }
        out = tmp_path / "sim"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["simulate", "--config", _write_config(tmp_path, data), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out / "trajectory.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["t"] for row in rows] == ["0", "1", "2", "3"]
        assert rows[0]["alpha"] == "5e-324" and float(rows[0]["dist_lifted_min"]) > 0
        assert [(row["alpha"], row["dist_lifted_min"]) for row in rows[1:]] == [("0.0", "")] * 3

    def test_polynomial_schedule_has_no_oracle(self, tmp_path, capsys):
        # the oracle is the constant-stepsize one: a polynomial schedule's
        # summary has none, and its alpha cells are a / (t + w) ** p
        data = {
            "ensemble": README_ENSEMBLE,
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "polynomial", "a": 0.3, "w": 1, "p": 0.5},
            "horizon": 50,
        }
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", _write_config(tmp_path, data), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "oracle" not in json.loads((out / "summary.json").read_text())
        with open(out / "trajectory.csv", newline="") as handle:
            cells = [row["alpha"] for row in csv.DictReader(handle)]
        assert cells[:2] == ["0.3", "0.21213203435596423"]
        assert [float(cell) for cell in cells] == [0.3 / (t + 1) ** 0.5 for t in range(51)]

    def test_horizon_override(self, random_config, capsys):
        assert cli.main(["simulate", "--config", random_config, "--horizon", "37"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["horizon"] == 37


class TestSweepAlphaCommand:
    def test_default_multiples_and_determinism(self, tmp_path, capsys):
        # instance whose certified threshold is the binding constraint
        path = _write_config(
            tmp_path,
            {
                "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 0.3, "seed": 1},
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "horizon": 300,
            },
        )
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["sweep-alpha", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["sweep-alpha", "--config", path, "--out", str(out2)]) == 0
        capsys.readouterr()
        csv1 = (out1 / "sweep_alpha.csv").read_bytes()
        csv2 = (out2 / "sweep_alpha.csv").read_bytes()
        assert csv1 == csv2

        with open(out1 / "sweep_alpha.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        multiples = sorted({float(r["alpha_multiple"]) for r in rows})
        assert multiples == [0.5, 0.95, 0.99, 1.01, 1.02]
        assert all(math.isfinite(float(r["R"])) for r in rows)

        summary = json.loads((out1 / "sweep_alpha_summary.json").read_text())
        assert summary["alpha_A"] < summary["alpha_L"]
        assert summary["runs"]["0.5"]["verdict"] == "bounded"
        assert summary["runs"]["0.5"]["oracle"]["bounded"] is True
        # past the certified threshold the exact verdict flips
        assert summary["runs"]["1.01"]["oracle"]["bounded"] is False
        assert summary["runs"]["1.02"]["oracle"]["bounded"] is False

    def test_matches_one_run_per_multiple(self, tmp_path, capsys):
        # the batched sweep reports exactly what one run per multiple would
        data = {
            "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "sweep_base": "main",
            "alpha_multiples": [0.5, 0.9, 1.1, 4.0, 6.0],
            "horizon": 600,
            "x0": [0.5, -1.0, 0.25, 2.0, -0.75, 1.0],
        }
        path = _write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["sweep-alpha", "--config", path, "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        cfg = parse_config(data)
        with open(out / "sweep_alpha.csv", newline="") as handle:
            text = handle.read()
        expected = "alpha_multiple,t,R\r\n"
        verdicts = set()
        for mult in data["alpha_multiples"]:
            record = simulator.run(
                cfg.ensemble, cfg.mixing,
                simulator.StepsizeSchedule.constant(mult * payload["base_alpha"]),
                x0=cfg.x0, horizon=cfg.horizon, record_every=None,
            )
            entry = dict(payload["runs"][repr(mult)])
            del entry["oracle"]
            assert entry == json.loads(json.dumps(record.summary_dict())), mult
            verdicts.add(record.verdict)
            # a diverged run stops before its crossing step; 601 rows are not whole blocks
            cutoff = record.divergence_step
            expected += "".join(
                f"{mult!r},{t},{r!r}\r\n"
                for t, r in zip(record.t[:cutoff].tolist(), record.r[:cutoff].tolist())
            )
        assert text == expected
        assert verdicts == {"bounded", "diverged"}

    def test_outputs_do_not_depend_on_record_every(self, tmp_path, capsys):
        # record_every keeps only the library's state history, which no CLI
        # output holds: the sweep writes the same bytes with the key as without
        data = {
            "ensemble": README_ENSEMBLE,
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "sweep_base": "main",
            "alpha_multiples": [0.5, 0.99, 4.0, 6.0],  # the last two diverge
            "horizon": 1500,
        }
        outputs = set()
        for extra in ({}, {"record_every": 1}):
            path = _write_config(tmp_path, dict(data, **extra))
            out = tmp_path / f"out{len(extra)}"
            assert cli.main(["sweep-alpha", "--config", path, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out
            files = tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
            outputs.add((stdout, files))
        assert len(outputs) == 1
        (stdout, files), = outputs
        assert [name for name, _ in files] == ["sweep_alpha.csv", "sweep_alpha_summary.json"]
        verdicts = {run["verdict"] for run in json.loads(stdout)["runs"].values()}
        assert verdicts == {"bounded", "diverged"}

    @pytest.mark.parametrize(
        "sweep_base, ensemble, base",
        [
            ("main", README_ENSEMBLE, "alpha_main"),
            ("alpha_A", README_ENSEMBLE, "alpha_A"),
            ("alpha_A", POSITIVE_DEFINITE_ENSEMBLE, "alpha_L"),
        ],
        ids=["main", "alpha_A", "alpha_A-inf"],
    )
    def test_base_and_bounds_are_the_bounds_commands(
        self, sweep_base, ensemble, base, tmp_path, capsys
    ):
        # README's instance: alpha_L 0.31 < alpha_A 2.53, so the two bases
        # differ; where every A_k is positive definite every stepsize
        # certifies, alpha_A is inf, and the alpha_A base falls back to alpha_L
        data = {
            "ensemble": ensemble,
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "sweep_base": sweep_base,
            "alpha_multiples": [0.5],
            "horizon": 5,
        }
        path = _write_config(tmp_path, data)
        out = tmp_path / "out"
        for command in ("bounds", "sweep-alpha"):
            assert cli.main([command, "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "bounds.json").read_text())
        summary = json.loads((out / "sweep_alpha_summary.json").read_text())
        assert (report["alpha_A"] == "inf") == (base == "alpha_L")
        assert summary["base_alpha"] == report[base]
        assert summary["alpha_A"] == report["alpha_A"]
        assert summary["alpha_L"] == report["alpha_L"]

    @pytest.mark.parametrize("j", [-150, -7, 7, 150])
    def test_units_scale_alpha_a_and_keep_every_verdict(self, j, tmp_path, capsys):
        # README's instance with every A_k and b_k times 4^j, exact in binary:
        # alpha_A and the sweep's base scale by 4^-j exactly, and each run
        # takes the same states, so its verdict, divergence step, max_R and
        # oracle radius are the same
        readme = costs.random_ensemble(3, 2, 1.0, seed=5)

        def outputs(scale):
            instance = [
                {"A": (scale * a).tolist(), "b": (scale * b).tolist()}
                for a, b in zip(readme.curvatures, readme.linear_terms)
            ]
            data = {
                "ensemble": {"type": "explicit", "costs": instance},
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "horizon": 200,
            }
            path = _write_config(tmp_path, data, f"scale_{scale!r}.json")
            results = []
            for command in ("bounds", "sweep-alpha"):
                assert cli.main([command, "--config", path]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                results.append(json.loads(captured.out))
            return results

        def runs(summary):
            return {
                mult: (run["verdict"], run["divergence_step"], run["max_R"],
                       run["oracle"]["spectral_radius"])
                for mult, run in summary["runs"].items()
            }

        (report, summary), (scaled_report, scaled_summary) = outputs(1.0), outputs(4.0**j)
        assert scaled_report["alpha_A"] == report["alpha_A"] * 4.0**-j
        assert scaled_summary["base_alpha"] == summary["base_alpha"] * 4.0**-j
        assert scaled_summary["base_alpha"] == scaled_report["alpha_A"]
        assert runs(scaled_summary) == runs(summary)
        assert {verdict for verdict, *_ in runs(summary).values()} == {"diverged"}

    @pytest.mark.parametrize("multiple", [1.7e308, 5e-324])
    def test_multiple_overflowing_the_stepsize_exits_2(self, multiple, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "ensemble": README_ENSEMBLE,
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "alpha_multiples": [0.5, multiple],
                "sweep_base": "main",  # 0.31: 5e-324 times it underflows to 0
                "horizon": 5,
            },
        )
        assert cli.main(["sweep-alpha", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stepsize" in err

    def test_nonpositive_multiple_rejected(self, tmp_path):
        path = _write_config(
            tmp_path,
            {
                "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "alpha_multiples": [0.5, 0.0],
            },
        )
        assert cli.main(["sweep-alpha", "--config", path]) == 2


class TestSweepEpsilonCommand:
    def test_threshold_column_non_increasing(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "mixing": {"type": "explicit", "W": W_SKEWED},
                "epsilons": [0.5, 1.0, 2.0, 4.0, 8.0],
                "L": 10.0,
                "mu": 1.0,
            },
        )
        assert cli.main(["sweep-epsilon", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epsilon,alpha_A,alpha_L,alpha_S"
        body = [line.split(",") for line in lines[1:]]
        alpha_a = [float(row[1]) for row in body]
        assert all(b <= a + 2e-6 for a, b in zip(alpha_a, alpha_a[1:]))
        assert len({row[3] for row in body}) == 1
        assert float(body[0][3]) == pytest.approx(0.0075)
        assert len({row[2] for row in body}) == 1
        assert float(body[0][2]) == pytest.approx(0.09)

    @pytest.mark.parametrize("w", [W_QUARTER, W_UNIFORM], ids=["quarter", "uniform"])
    @pytest.mark.parametrize("big_l, mu", [(10.0, 1.0), (4.0, 0.5)])
    def test_bound_columns_are_each_instances_own(self, w, big_l, mu, tmp_path, capsys):
        # above epsilon = L the planted instance's L is epsilon, and above
        # 2L - 3 mu its mu is (2L - epsilon) / 3: every row's alpha_L and
        # alpha_S are what `bounds` reports for that instance
        epsilons = [big_l * k / 20 for k in range(41)]
        config_data = {"mixing": {"W": w}, "epsilons": epsilons, "L": big_l, "mu": mu}
        assert cli.main(["sweep-epsilon", "--config", _write_config(tmp_path, config_data)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        mixing = config.mixing_from_spec({"W": w})
        # build_report reads alpha_A from the bracket it is given; the
        # bound columns do not depend on it
        for eps, row in zip(epsilons, rows, strict=True):
            instance = costs.epsilon_example(big_l, mu, eps)
            report = bounds.build_report(instance, mixing, bracket=(math.inf, math.inf)).to_dict()
            assert float(row[2]) == report["alpha_L"], eps
            assert row[3] == ("" if report["alpha_S"] is None else repr(report["alpha_S"])), eps

    def test_gap_bound_whose_denominator_underflows_is_written(self, tmp_path, capsys):
        # L (eta + L) underflows to 0 at L = 1e-300: each row's alpha_S is still
        # the closed form, evaluated at L and mu times 4^498 and scaled back
        data = {
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "epsilons": [0.0, 5e-301, 1e-300],
            "L": 1e-300,
            "mu": 1e-320,
        }
        summary = config.mixing_from_spec(data["mixing"]).spectral
        s = 4.0**498
        closed = bounds.spectral_gap_bound(1e-320 * s, 1e-300 * s, summary.beta) * s
        assert closed == pytest.approx(7.5e279, rel=1e-3)
        for eps in data["epsilons"]:
            big_l, mu = costs.epsilon_family_constants(1e-300, 1e-320, eps)
            _, alpha_l, _, alpha_s = bounds.stepsize_bounds(
                summary.lambda_min, summary.beta, big_l, mu
            )
            assert alpha_l and alpha_s == closed, eps
        # the edge at epsilon = 5e-301, 2.25e300, is not confirmed at mu / L
        # = 1e-20 (see TestBoundsCommand): the sweep exits 3 and writes no row
        assert cli.main(["sweep-epsilon", "--config", _write_config(tmp_path, data)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "does not confirm the Schur edge 2.25e+300" in captured.err
        # at epsilon = 0 every agent is positive definite and every stepsize certifies
        data["epsilons"] = [0.0]
        assert cli.main(["sweep-epsilon", "--config", _write_config(tmp_path, data)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:2] == ["0.0", "inf"] and row[3] == repr(closed)

    @pytest.mark.parametrize("w", [W_QUARTER, W_UNIFORM], ids=["quarter", "uniform"])
    def test_bound_cells_are_the_scalar_bounds_bit_for_bit(self, w, tmp_path, capsys, monkeypatch):
        # the sweep takes every row's alpha_L and alpha_S from one call on
        # arrays of L and mu; each cell is the repr of the scalar call on the
        # row's own L and mu, at the default scale and across the float range.
        # alpha_A is stubbed out (blank): at L = 10, mu = 1 the epsilons
        # k/1000 exit 3 on 15 rows just below 2L.
        monkeypatch.setattr(
            lifted.ThresholdStack, "brackets",
            lambda stack: (np.full(len(stack._sets), math.nan),) * 2,
        )
        mixing = config.mixing_from_spec({"W": w})
        lam, beta = mixing.spectral.lambda_min, mixing.spectral.beta
        scales = [(1e200, 1e199), (1e-300, 1e-320), (1e12, 1e-12), (1e300, 1.0), (2.0, 1.0)]
        families = [(10.0, 1.0, [k / 1000 for k in range(1, 20001)])] + [
            (big_l, mu, [big_l * k / 8 for k in range(21)] + [mu, 2 * big_l - 3 * mu])
            for big_l, mu in scales
        ]
        rows = 0
        for big_l, mu, epsilons in families:
            data = {"mixing": {"W": w}, "epsilons": epsilons, "L": big_l, "mu": mu}
            assert cli.main(["sweep-epsilon", "--config", _write_config(tmp_path, data)]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            for eps, line in zip(epsilons, lines, strict=True):
                own = (float(v) for v in costs.epsilon_family_constants(big_l, mu, eps))
                _, alpha_l, _, alpha_s = bounds.stepsize_bounds(lam, beta, *own)
                cells = [repr(alpha_l), "" if alpha_s is None else repr(alpha_s)]
                assert line.split(",")[2:] == cells, (big_l, mu, eps)
            rows += len(lines)
        assert rows == 20115

    def test_mixing_of_the_wrong_size_exits_2(self, tmp_path, capsys):
        mixing = {"type": "explicit", "W": [[0.5, 0.5], [0.5, 0.5]]}
        path = _write_config(tmp_path, {"mixing": mixing})
        assert cli.main(["sweep-epsilon", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "3-agent" in err and "has 2 agents" in err

    def test_uncertifiable_epsilon_leaves_blank(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "mixing": {"type": "explicit", "W": W_SKEWED},
                "epsilons": [1.0, 25.0],
            },
        )
        assert cli.main(["sweep-epsilon", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        last = lines[-1].split(",")
        assert last[0] == repr(25.0)
        assert last[1] == ""


    @pytest.mark.parametrize(
        "golden, config",
        [
            ("default", {"mixing": {"type": "explicit", "W": W_QUARTER}}),
            ("bench", {"mixing": {"type": "explicit", "W": W_QUARTER}, "epsilons": BENCH_EPSILONS}),
            (
                "uniform",
                {"mixing": {"type": "explicit", "W": W_UNIFORM}, "epsilons": BENCH_EPSILONS},
            ),
        ],
    )
    def test_output_is_byte_identical_to_golden(self, golden, config, tmp_path, capsys):
        # Each row of the golden files is its epsilon's one-row threshold
        # (TestThresholdStack checks that the stack reproduces those). They
        # cover the blank row at 2L and a W without alpha_S. Rows
        # above epsilon = L = 10 carry each instance's own alpha_L and alpha_S.
        expected = (GOLDEN / f"sweep_epsilon_{golden}.csv").read_bytes()
        path = _write_config(tmp_path, config)
        assert cli.main(["sweep-epsilon", "--config", path]) == 0
        assert capsys.readouterr().out.encode() == expected
        out = tmp_path / "out"
        assert cli.main(["sweep-epsilon", "--config", path, "--out", str(out)]) == 0
        assert (out / "sweep_epsilon.csv").read_bytes() == expected

    @pytest.mark.parametrize("k", [-10, 0, 10])
    def test_alpha_a_brackets_hold_the_closed_form(self, k, tmp_path, capsys):
        # On README's W the planted family's first coordinate reduces to a 2x2
        # problem, whose edge is exactly 3 (2L - epsilon) / (4 L epsilon). In
        # the units 4^k (L, mu), where the edge at epsilon = 1e-7 L is 1.5e6
        # 4^-k, each CSV alpha_A is the lower end of a confirmed bracket that
        # holds the closed form, from epsilon << L up to near 2L.
        scale = 4.0**k
        big_l, mu = 10.0 * scale, scale
        ratios = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 1.5, 1.9)
        epsilons = [r * big_l for r in ratios]
        data = {
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "epsilons": epsilons,
            "L": big_l,
            "mu": mu,
        }
        assert cli.main(["sweep-epsilon", "--config", _write_config(tmp_path, data)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        family = costs.epsilon_family(big_l, mu, epsilons)
        stack = lifted.ThresholdStack(family, config.mixing_from_spec(data["mixing"]))
        ends = [end.tolist() for end in stack.brackets()]
        for eps, row, lo, hi in zip(epsilons, rows, *ends, strict=True):
            closed = 3.0 * (2.0 * big_l - eps) / (4.0 * big_l * eps)
            assert float(row[0]) == eps and float(row[1]) == lo, eps
            assert lo < closed < hi, (eps, lo, closed, hi)

    def test_alpha_a_at_epsilon_1e_8_l_is_not_confirmed(self, tmp_path, capsys):
        # a known limit: at epsilon = 1e-8 L (L = 10, mu = 1) the edge, about
        # 1.5e7, lies so far out that the sign of H's smallest eigenvalue a
        # relative 1e-9 on each side does not confirm it, and the row exits 3
        data = {"mixing": {"type": "explicit", "W": W_QUARTER}, "epsilons": [1e-7]}
        assert cli.main(["sweep-epsilon", "--config", _write_config(tmp_path, data)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "does not confirm the Schur edge" in captured.err

    @pytest.mark.parametrize("block", [1, 8, 30, cli._EPSILON_BLOCK])
    def test_output_does_not_depend_on_the_block(self, block, tmp_path, capsys, monkeypatch):
        # 100 epsilons leave a partial last block at 8 and at 30; the default
        # block of 20 takes them in five full blocks
        monkeypatch.setattr(cli, "_EPSILON_BLOCK", block)
        config = {"mixing": {"type": "explicit", "W": W_QUARTER}, "epsilons": BENCH_EPSILONS}
        assert cli.main(["sweep-epsilon", "--config", _write_config(tmp_path, config)]) == 0
        expected = (GOLDEN / "sweep_epsilon_bench.csv").read_bytes()
        assert capsys.readouterr().out.encode() == expected

    def test_unconfirmed_edge_exits_3(self, tmp_path, capsys):
        # at curvatures near 1e12 rounding in W's eigenbasis moves the edge
        # further than the Hessian's smallest eigenvalue can confirm
        path = _write_config(
            tmp_path, {"mixing": {"type": "explicit", "W": W_QUARTER}, "L": 1e12, "mu": 1e-12}
        )
        assert cli.main(["sweep-epsilon", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "does not confirm the Schur edge" in err

    def test_unconfirmed_edge_is_named(self, tmp_path, capsys):
        # at epsilon 5.5 the Schur edge lies within 6e-6 of the planted 1.5/5.5,
        # but the smallest Hessian eigenvalue does not change sign across it
        path = _write_config(
            tmp_path,
            {
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "L": 1e12,
                "mu": 1e-12,
                "epsilons": [5.5],
            },
        )
        assert cli.main(["sweep-epsilon", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "does not confirm the Schur edge 0.2727" in captured.err

    def test_failure_in_a_later_block_writes_nothing(self, tmp_path, capsys):
        # at curvatures near 1e12 a block of epsilons confirms its edges, and
        # the next epsilon, 3.5, the first row of the second block, does not:
        # the error names its edge, near 1.5 / 3.5
        block = cli._EPSILON_BLOCK
        config = {
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "L": 1e12,
            "mu": 1e-12,
            "epsilons": ([1.5, 2.0, 2.5, 3.0] * block)[:block],
        }
        assert len(config["epsilons"]) == block
        first_block = _write_config(tmp_path, config, name="first_block.json")
        assert cli.main(["sweep-epsilon", "--config", first_block]) == 0
        capsys.readouterr()
        path = _write_config(tmp_path, dict(config, epsilons=config["epsilons"] + [3.5]))
        out = tmp_path / "out"
        for extra in ([], ["--out", str(out)]):
            assert cli.main(["sweep-epsilon", "--config", path, *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert "does not confirm the Schur edge 0.42857" in captured.err
        assert not (out / "sweep_epsilon.csv").exists()


RING8_ADJACENCY = [[1 if abs(i - j) in (1, 7) else 0 for j in range(8)] for i in range(8)]


class TestGoldenOutputs:
    """bounds, simulate and sweep-alpha against fixed bytes: stdout and every
    file under --out must not move."""

    CASES = {
        "bounds_ring8": (
            "bounds",
            {
                "ensemble": {"type": "random", "m": 8, "n": 2, "epsilon": 1.0, "seed": 3},
                "mixing": {"type": "metropolis", "adjacency": RING8_ADJACENCY},
            },
            {"bounds.json": "bounds_ring8.json"},
        ),
        "bounds_readme5": (
            "bounds",
            {"ensemble": README_ENSEMBLE, "mixing": {"type": "explicit", "W": W_QUARTER}},
            {"bounds.json": "bounds_readme5.json"},
        ),
        "simulate_readme5": (
            "simulate",
            {
                "ensemble": README_ENSEMBLE,
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "schedule": {"type": "constant", "alpha": 0.5},
                "horizon": 400,
                "track_lifted": True,
            },
            {
                "summary.json": "simulate_readme5_summary.json",
                "trajectory.csv": "simulate_readme5_trajectory.csv",
            },
        ),
        "sweep_alpha_readme5": (
            "sweep-alpha",
            {
                "ensemble": README_ENSEMBLE,
                "mixing": {"type": "explicit", "W": W_QUARTER},
                "sweep_base": "main",
                "alpha_multiples": [0.5, 2.0, 4.0, 6.0],
                "horizon": 300,
            },
            {
                "sweep_alpha_summary.json": "sweep_alpha_readme5_summary.json",
                "sweep_alpha.csv": "sweep_alpha_readme5.csv",
            },
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_is_byte_identical_to_golden(self, case, tmp_path, capsys):
        command, config, files = self.CASES[case]
        path = _write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 0
        # the JSON file is the one stdout prints
        json_name = next(name for name in files if name.endswith(".json"))
        assert capsys.readouterr().out.encode() == (GOLDEN / files[json_name]).read_bytes()
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        for name, golden in files.items():
            assert (out / name).read_bytes() == (GOLDEN / golden).read_bytes(), name


def test_bounds_decomposes_each_matrix_once_but_the_aggregate(tmp_path, monkeypatch, capsys):
    # one bounds pass makes 7 LAPACK eigensolves, named here by their argument:
    # W once, with its eigenvectors, as it is validated; the aggregate
    # curvature twice, for mu and, with its eigenvectors, for the Schur edge
    command, spec, _ = TestGoldenOutputs.CASES["bounds_ring8"]
    w = config.mixing_from_spec(spec["mixing"]).w
    ensemble = config.ensemble_from_spec(spec["ensemble"])
    names = [
        (ensemble.curvatures, "A_k"), (ensemble.aggregate_a[None], "aggregate"),
        (ensemble.aggregate_a, "aggregate"), (w, "W"),
    ]
    calls = []

    def counted(solver):
        lapack = getattr(np.linalg, solver)

        def call(a, *args, **kwargs):
            name = next((n for m, n in names if m.shape == a.shape and np.array_equal(m, a)), None)
            calls.append((solver, name or f"{a.shape[-1]}x{a.shape[-1]}"))
            return lapack(a, *args, **kwargs)

        return call

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, counted(solver))
    assert cli.main([command, "--config", _write_config(tmp_path, spec)]) == 0
    capsys.readouterr()
    assert sorted(calls) == [
        ("eigh", "W"), ("eigh", "aggregate"),
        ("eigvalsh", "14x14"),  # the Schur complement, (m - 1) n
        ("eigvalsh", "16x16"), ("eigvalsh", "16x16"),  # H at the two bracket ends
        ("eigvalsh", "A_k"), ("eigvalsh", "aggregate"),
    ]


def test_lifted_eigensolves_only_finite_exactly_symmetric_matrices(tmp_path, monkeypatch, capsys):
    # lifted hands the matrices it builds to LAPACK without sym_eigen's
    # symmetry check, which LAPACK's one-triangle read makes safe only on an
    # exactly symmetric, finite matrix; every one it builds is, on README
    # seeds 0-199 (bounds and sweep-alpha), the ring of 8, the benchmark's
    # family and README seed 5 from the float range's ends to its middle
    # (also simulated with the minimizer basis)
    eigensolve, bad, kinds = lifted._eigensolve, [], set()

    def checked(a, vectors=False):
        kinds.add((a.shape[-1], vectors))
        if not (np.isfinite(a).all() and np.array_equal(a, a.swapaxes(-1, -2))):
            bad.append(a.copy())
        return eigensolve(a, vectors)

    monkeypatch.setattr(lifted, "_eigensolve", checked)
    mixing = {"type": "explicit", "W": W_QUARTER}
    readme5 = costs.random_ensemble(3, 2, 1.0, seed=5)
    runs = [
        (command, {"ensemble": dict(README_ENSEMBLE, seed=seed), "mixing": mixing})
        for seed in range(200)
        for command in ("bounds", "sweep-alpha")
    ]
    runs += [TestGoldenOutputs.CASES["bounds_ring8"][:2]]
    runs += [("sweep-epsilon", {"mixing": mixing, "epsilons": BENCH_EPSILONS})]
    for k in (-150, -7, 7, 150):
        costs_k = [
            {"A": (4.0**k * a).tolist(), "b": (4.0**k * b).tolist()}
            for a, b in zip(readme5.curvatures, readme5.linear_terms)
        ]
        spec = {"ensemble": {"type": "explicit", "costs": costs_k}, "mixing": mixing}
        track = dict(spec, schedule={"type": "constant", "alpha": 0.5 * 4.0**-k}, track_lifted=True)
        runs += [("bounds", spec), ("sweep-alpha", spec), ("simulate", track)]
    codes = [
        cli.main([command, "--config", _write_config(tmp_path, spec), "--horizon", "50"])
        for command, spec in runs
    ]
    capsys.readouterr()
    assert bad == []
    assert set(codes) <= {0, 3} and codes[-12:] == [0] * 12  # every scaled run
    # the aggregate, the Schur matrix (with vectors too, for the minimizer
    # basis) and H of three agents; the ring's Schur matrix and H: no
    # nm-sized matrix is solved with vectors
    assert kinds == {(2, True), (4, False), (4, True), (6, False), (14, False), (16, False)}


# row sums within 1e-10 of 1 and column sums 1.00000008e-10 off it
W_COLUMN_SUMS = [
    [0.5, 0.250000000099, 0.25], [0.250000000098, 0.5, 0.25], [0.25, 0.250000000001, 0.5],
]


@pytest.mark.parametrize(
    "command, data, line",
    [
        ("bounds", {"mixing": {"type": "explicit", "W": W_QUARTER}},
         "error: config is missing required sections: ['ensemble']"),
        ("sweep-alpha", {"mixing": {"type": "explicit", "W": W_QUARTER}},
         "error: config is missing required sections: ['ensemble']"),
        ("simulate", {"ensemble": README_ENSEMBLE, "mixing": {"type": "explicit", "W": W_QUARTER}},
         "error: config is missing required sections: ['schedule']"),
        ("sweep-epsilon", {"L": 10, "mu": 1},
         "error: config is missing required sections: ['mixing']"),
        ("bounds", '{"ensemble": ', "is not valid JSON"),
        ("bounds", {"ensemble": README_ENSEMBLE, "mixing": {"type": "explicit", "W": W_QUARTER},
                    "divergence_threshold": 10**399},
         "error: divergence_threshold must be a number, got 1000"),
        ("bounds", {"ensemble": {"type": "explicit", "costs": 5},
                    "mixing": {"type": "explicit", "W": W_QUARTER}},
         "error: ensemble.costs must be a list, got 5"),
        ("validate-topology", {"type": "explicit", "W": W_COLUMN_SUMS},
         "error [col_sum]: column sums deviate from 1 by 1e-10"),
        ("bounds", {"ensemble": README_ENSEMBLE, "mixing": {"type": "explicit", "W": W_COLUMN_SUMS}},
         "error: mixing spec invalid [col_sum]: column sums deviate from 1 by 1e-10"),
    ],
    ids=["bounds-no-ensemble", "sweep-alpha-no-ensemble", "simulate-no-schedule",
         "sweep-epsilon-no-mixing", "not-json", "400-digit-threshold", "costs-not-a-list",
         "validate-topology-col-sum", "bounds-col-sum"],
)
def test_malformed_config_exits_2_with_one_line(command, data, line, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert line in captured.err


class TestValidateTopologyCommand:
    def test_valid_matrix(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"type": "explicit", "W": W_QUARTER}, name="w.json")
        assert cli.main(["validate-topology", "--config", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["lambda_min"] == pytest.approx(0.25, abs=1e-10)
        assert data["beta"] == pytest.approx(0.25, abs=1e-10)

    def test_disconnected_matrix(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"type": "explicit", "W": np.eye(3).tolist()}, name="w.json")
        assert cli.main(["validate-topology", "--config", path]) == 2
        assert "disconnected" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "metropolis"},
            {"type": "explicit"},
            {"type": "ring"},
            {"type": "explicit", "W": "abc"},
            {"type": "explicit", "W": [[1.0, 0.0], [0.0]]},
            {"type": "metropolis", "adjacency": [[0, "x"], ["x", 0]]},
            [[0.5, 0.5], [0.5, 0.5]],
            "W",
            None,
        ],
    )
    def test_malformed_spec_exits_2(self, spec, tmp_path, capsys):
        path = _write_config(tmp_path, spec, name="w.json")
        assert cli.main(["validate-topology", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [malformed_spec]: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "explicit", "W": [[0.5, "0.5"], [0.5, 0.5]]},
            {"W": [[True, 0.0], [0.0, 1.0]]},
            {"W": W_QUARTER, "adjacency": [[0, 1], [1, 0]]},
            {"type": "metropolis", "adjacency": [[0, True], [True, 0]]},
        ],
    )
    def test_mistyped_entries_and_unknown_keys_are_malformed(self, spec, tmp_path, capsys):
        path = _write_config(tmp_path, spec, name="w.json")
        assert cli.main(["validate-topology", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error [malformed_spec]: ") and "mixing" in captured.err

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert cli.main(["validate-topology", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ") and err.count("\n") == 1

    def test_metropolis_ring(self, tmp_path, capsys):
        ring = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        path = _write_config(tmp_path, {"type": "metropolis", "adjacency": ring}, name="w.json")
        assert cli.main(["validate-topology", "--config", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 4
        assert data["lambda_min"] == pytest.approx(-1.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("command", ["bounds", "validate-topology"])
def test_non_utf8_config_exits_2(command, tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config file {path} is not UTF-8 text: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep-alpha", "sweep-epsilon"])
def test_unwritable_output_dir_exits_4(command, planted_config, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert cli.main([command, "--config", planted_config, "--out", str(blocker)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "sweep-alpha"])
def test_horizon_too_long_for_memory_exits_2(command, random_config, tmp_path, monkeypatch, capsys):
    # a legal horizon whose histories numpy cannot allocate; the engine is
    # stood in for, so the test itself allocates nothing large
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 59.6 GiB")

    monkeypatch.setattr(simulator, "run_batch", out_of_memory)
    out = tmp_path / "out"
    argv = [command, "--config", random_config, "--horizon", str(10**9), "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(out.iterdir()) == []
    assert captured.err == "error: horizon 1000000000 needs more memory than is available\n"


@pytest.mark.parametrize("command", ["simulate", "sweep-alpha"])
def test_histories_outgrowing_memory_partway_exits_2(command, tmp_path, monkeypatch, capsys):
    # the histories grow as the rows reach new cells: the growth step is
    # stood in for, so that it fails partway through a bounded run, after
    # the first chunks were written, and the run still exits 2 with one line
    path = _write_config(
        tmp_path,
        {
            "ensemble": {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5},
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 0.05},
            "sweep_base": "main",
            "alpha_multiples": [0.5],
        },
    )
    grow = simulator._RowHistories._grow
    grown = []

    def grow_until_memory_runs_out(self, buffer, stop):
        if len(grown) == 3:
            raise MemoryError
        grown.append(stop)
        grow(self, buffer, stop)

    monkeypatch.setattr(simulator._RowHistories, "_grow", grow_until_memory_runs_out)
    out = tmp_path / "out"
    argv = [command, "--config", path, "--horizon", "10000", "--out", str(out)]
    assert cli.main(argv) == 2
    assert len(grown) == 3 and max(grown) > simulator._CHUNK
    captured = capsys.readouterr()
    assert captured.out == "" and list(out.iterdir()) == []
    assert captured.err == "error: horizon 10000 needs more memory than is available\n"


def test_problem_too_large_for_memory_exits_2(planted_config, monkeypatch, capsys):
    # a command that runs no simulation names itself, not the horizon
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(lifted, "LiftedObjective", out_of_memory)
    assert cli.main(["bounds", "--config", planted_config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bounds needs more memory than is available\n"


@pytest.mark.parametrize(
    "command, solver",
    # eigh validates W, and takes its eigenbasis, as the config is read; eigvalsh
    # runs later, for the curvatures, the Schur edges, the brackets and the oracle
    [
        (command, "eigh")
        for command in ("bounds", "simulate", "sweep-alpha", "sweep-epsilon", "validate-topology")
    ]
    + [(command, "eigvalsh") for command in ("bounds", "simulate", "sweep-alpha", "sweep-epsilon")],
)
def test_eigensolve_that_does_not_converge_exits_3(command, solver, tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    config_path = _write_config(
        tmp_path,
        {
            "ensemble": README_ENSEMBLE,
            "mixing": {"type": "explicit", "W": W_QUARTER},
            "schedule": {"type": "constant", "alpha": 0.05},
            "horizon": 50,
        },
    )
    spec_path = _write_config(tmp_path, {"type": "explicit", "W": W_QUARTER}, "mixing.json")
    monkeypatch.setattr(np.linalg, solver, no_convergence)
    out = tmp_path / "out"
    argv = [command, "--config", config_path, "--out", str(out)]
    if command == "validate-topology":
        argv = [command, "--config", spec_path]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == (
        "error: symmetric eigensolve did not converge: Eigenvalues did not converge\n"
    )
    assert not out.exists() or list(out.iterdir()) == []


def test_unwritable_output_file_exits_4(planted_config, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    assert cli.main(["simulate", "--config", planted_config, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trajectory.csv" in err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    path = _write_config(tmp_path, {"type": "explicit", "W": W_QUARTER}, name="w.json")
    proc = subprocess.run(
        [sys.executable, "-m", "dgdlab", "validate-topology", "--config", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda_min"] == pytest.approx(0.25, abs=1e-10)


def test_help_epilog_quotes_each_csv_header():
    epilog = cli.build_parser().epilog
    assert f"'{','.join(simulator.TRAJECTORY_CSV_HEADER)}'" in epilog
    assert f"'{cli.SWEEP_ALPHA_CSV_HEADER}'" in epilog
    assert f"'{cli.SWEEP_EPSILON_CSV_HEADER}'" in epilog
