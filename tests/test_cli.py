import csv
import json
import math

import numpy as np
import pytest

from dgdlab import cli, simulator
from dgdlab.config import parse_config
from dgdlab.errors import ConfigError

W_QUARTER = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
W_SKEWED = [[0.4, 0.3, 0.3], [0.3, 0.3, 0.4], [0.3, 0.4, 0.3]]


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
            {"divergence_threshold": -1.0},
            {"alpha_multiples": [0.5, -1.0]},
            {"sweep_base": "other"},
            {"mystery_key": 1},
            {"schedule": {"type": "polynomial", "a": 0.1, "p": 2.0}},
            {"mixing": {"type": "explicit", "W": [[1.0, 0.0], [0.0, 1.0]]}},
            {"x0": [0.0, 0.0]},
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
            {"agent_scale": "false"},
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

    def test_threshold_scan_cap_round_trips(self):
        data = {"threshold": {"scan_cap": 50}}
        cfg = parse_config(data)
        assert cfg.scan_cap == 50.0
        assert cfg.canonical()["threshold"] == {"scan_cap": 50.0}

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

    def test_bad_config_exits_2(self, tmp_path):
        path = _write_config(tmp_path, {"ensemble": {"type": "nope"}})
        assert cli.main(["bounds", "--config", path]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["bounds", "--config", str(tmp_path / "absent.json")]) == 2

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
            "record_every": 7,
            "x0": [0.5, -1.0, 0.25, 2.0, -0.75, 1.0],
        }
        path = _write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["sweep-alpha", "--config", path, "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        cfg = parse_config(data)
        with open(out / "sweep_alpha.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        expected_rows = []
        verdicts = set()
        for mult in data["alpha_multiples"]:
            record = simulator.run(
                cfg.ensemble, cfg.mixing,
                simulator.StepsizeSchedule.constant(mult * payload["base_alpha"]),
                x0=cfg.x0, horizon=cfg.horizon, record_every=cfg.record_every,
            )
            entry = dict(payload["runs"][repr(mult)])
            del entry["oracle"]
            assert entry == json.loads(json.dumps(record.summary_dict())), mult
            verdicts.add(record.verdict)
            cutoff = record.divergence_step if record.divergence_step is not None else record.t.size
            expected_rows += [[repr(mult), str(t), repr(float(r))]
                              for t, r in zip(record.t[:cutoff], record.r[:cutoff])]
        assert rows == expected_rows
        assert verdicts == {"bounded", "diverged"}

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

    def test_metropolis_ring(self, tmp_path, capsys):
        ring = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        path = _write_config(tmp_path, {"type": "metropolis", "adjacency": ring}, name="w.json")
        assert cli.main(["validate-topology", "--config", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 4
        assert data["lambda_min"] == pytest.approx(-1.0 / 3.0, abs=1e-10)


def test_unwritable_output_dir_exits_4(planted_config, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert cli.main(["bounds", "--config", planted_config, "--out", str(blocker)]) == 4


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
