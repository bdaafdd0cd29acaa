import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baresim import cli, engine
from baresim.engine import EstimatorConfig

from conftest import NoDrawLaw


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_CONFIG = {
    "generator": {"family": "power", "gamma": 1.0, "scale": 1.0},
    "reference_vector": [0.2, 0.3, 0.5],
    "mode": "simplex",
    "target": "divergence",
    "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
    "estimator": {"n": 400, "L": 4000, "seed": 7},
}

# one small config per estimation command other than estimate
COMMAND_CONFIGS = {
    "entropy-max": {
        "entropy": {"preset": "shannon"},
        "K": 3,
        "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
        "estimator": {"n": 600, "L": 8000, "seed": 2},
    },
    "bounds": {
        "generator": {"family": "generalized_kl", "alpha": 1.0},
        "reference_vector": [0.2, 0.3, 0.5],
        "mode": "simplex",
        "constraint": {"type": "coordinate", "index": 0, "bound": 0.6, "op": ">="},
        "estimator": {"n": 800, "L": 5000, "seed": 3},
    },
    "quadratic": {
        "c1": [0.64, 1.96], "c2": [-1.6, -2.8], "c3": [1.0, 1.0],
        "constraint": {"type": "box", "lower": [0.0, 0.0], "upper": [2.0, 2.0]},
        "estimator": {"n": 400, "L": 4000, "seed": 4},
    },
    "transport": {
        "mu": [0.5, 0.5], "nu": [0.5, 0.5],
        "estimator": {"n": 400, "L": 4000, "seed": 5},
    },
}


class TestEstimateCommand:
    def test_result_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "result.json"
        code = cli.main(["estimate", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("value", "log_pi_hat", "hits", "stderr", "seed", "n", "L"):
            assert key in payload
        assert payload["seed"] == 7
        assert payload["hits"] >= 1
        assert payload["value"] == pytest.approx(0.223, abs=0.05)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["estimate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["estimate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides_seed(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["estimate", "--config", cfg, "--out", str(out1), "--seed", "1"])
        cli.main(["estimate", "--config", cfg, "--out", str(out2), "--seed", "2"])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["seed"] == 1 and b["seed"] == 2
        assert a["log_pi_hat"] != b["log_pi_hat"]

    def test_trace_csv(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["output"] = {"trace": str(tmp_path / "trace.csv")}
        cfg = write_config(tmp_path, config)
        cli.main(["estimate", "--config", cfg, "--out", str(tmp_path / "r.json")])
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "batch,log_mean"
        assert len(lines) == 33  # header + 32 batches

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": {"family": "power", "gamma": 1.0}})
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG

    def test_missing_jsonschema_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        monkeypatch.setitem(sys.modules, "jsonschema", None)  # import now fails
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG
        assert "jsonschema" in capsys.readouterr().err

    def test_missing_schema_file_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG
        assert "config.schema.json" in capsys.readouterr().err

    def test_estimator_defaults_come_from_the_dataclasses(self):
        assert cli._config_from_dict({"estimator": {"n": 50}}, None) == EstimatorConfig(n=50)

    def test_estimator_settings_are_converted(self):
        est = {"n": 50, "L": 300, "seed": 4, "batches": 12, "threads": 2,
               "proxy": {"method": "given", "q_star": [1, 2], "budget": 10, "m_run": None}}
        config = cli._config_from_dict({"estimator": est}, None)
        assert (config.n, config.L, config.seed, config.batches, config.threads) == (
            50, 300, 4, 12, 2)
        assert config.proxy.method == "given" and config.proxy.budget == 10
        assert config.proxy.m_run is None
        assert config.proxy.q_star.dtype == float and list(config.proxy.q_star) == [1.0, 2.0]

    def test_integral_floats_become_ints(self):
        config = cli._config_from_dict({"estimator": {"n": 50.0, "L": 1e5}}, None)
        assert (config.n, config.L) == (50, 100_000)
        assert type(config.n) is int and type(config.L) is int

    @pytest.mark.parametrize("estimator", [
        {"n": 50, "bisection_tol": 1e-10},
        {"n": 50, "proxy": {"budjet": 10}},
    ])
    def test_unknown_setting_is_never_dropped(self, estimator):
        # past the schema, an unknown key still fails rather than vanishing
        with pytest.raises(cli.ConfigError, match="bad estimator settings"):
            cli._config_from_dict({"estimator": estimator}, None)

    @pytest.mark.parametrize("estimator, path, key", [
        ({"n": 400, "bisection_tol": 1e-10}, "estimator", "bisection_tol"),
        ({"n": 400, "thread": 2}, "estimator", "thread"),
        ({"n": 400, "proxy": {"budjet": 10}}, "estimator/proxy", "budjet"),
    ])
    def test_unknown_estimator_key_is_a_config_error(self, tmp_path, capsys, estimator,
                                                     path, key):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "estimator": estimator})
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path}: " in err and repr(key) in err

    def test_readme_configs_validate(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b.split("```")[0] for b in readme.split("```json\n")[1:]]
        assert blocks
        for block in blocks:
            cli._load_and_validate(write_config(tmp_path, json.loads(block)))

    def test_bad_generator_family(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["generator"] = {"family": "nope"}
        cfg = write_config(tmp_path, config)
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_CONFIG

    def test_zero_hit_exit_code(self, tmp_path):
        config = dict(BASE_CONFIG)
        # empty set via contradictory box
        config["constraint"] = {
            "type": "box", "lower": [2.0, 2.0, 2.0], "upper": [3.0, 3.0, 3.0],
        }
        cfg = write_config(tmp_path, config)
        assert cli.main(["estimate", "--config", cfg]) == cli.EXIT_ZERO_HITS

    def test_data_file_mode(self, tmp_path):
        data = tmp_path / "obs.txt"
        rng = np.random.default_rng(3)
        labels = rng.choice(["a", "b", "c"], p=[0.2, 0.3, 0.5], size=600)
        data.write_text("\n".join(labels))
        config = {
            "generator": {"family": "power", "gamma": 1.0},
            "data_file": str(data),
            "target": "divergence",
            "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
            "estimator": {"n": 600, "L": 3000, "seed": 1},
        }
        cfg = write_config(tmp_path, config)
        out = tmp_path / "res.json"
        assert cli.main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] > 0


class TestModeMismatch:
    """A reference that does not fit the mode, or an empirical n other than
    the sample size, is a config error (exit 2) raised before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())

    def data_config(self, tmp_path, **changes):
        data = tmp_path / "obs.txt"
        data.write_text("\n".join(["a"] * 211 + ["b"] * 310 + ["c"] * 479))
        config = {
            "generator": {"family": "power", "gamma": 1.0},
            "data_file": str(data),
            "target": "divergence",
            "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
            "estimator": {"n": 1000, "L": 3000, "seed": 1},
        }
        config.update(changes)
        return write_config(tmp_path, config)

    def run(self, cfg, capsys, command="estimate"):
        code = cli.main([command, "--config", cfg])
        return code, capsys.readouterr().err

    def test_empirical_mode_with_reference_vector(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, mode="empirical"))
        code, err = self.run(cfg, capsys)
        assert code == cli.EXIT_CONFIG
        assert "empirical mode needs an ingest_sample partition" in err

    def test_deterministic_mode_with_data_file(self, tmp_path, capsys):
        cfg = self.data_config(tmp_path, mode="deterministic", target="deterministic")
        code, err = self.run(cfg, capsys)
        assert code == cli.EXIT_CONFIG
        assert "deterministic mode needs a reference vector" in err

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    @pytest.mark.parametrize("n", [200, 5000])
    def test_empirical_n_other_than_the_sample_size(self, tmp_path, capsys, command, n):
        cfg = self.data_config(tmp_path)
        code = cli.main([command, "--config", cfg, "--n", str(n)])
        assert code == cli.EXIT_CONFIG
        assert f"n={n} differs from the sample size 1000" in capsys.readouterr().err

    def test_bounds_in_deterministic_mode(self, tmp_path, capsys):
        config = dict(COMMAND_CONFIGS["bounds"], mode="deterministic",
                      reference_vector=[0.3, 0.5, 0.4])
        code, err = self.run(write_config(tmp_path, config), capsys, "bounds")
        assert code == cli.EXIT_CONFIG
        assert "use mode 'simplex' or 'empirical'" in err


class TestOtherCommands:
    def test_entropy_max(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["entropy-max"])
        out = tmp_path / "res.json"
        assert cli.main(["entropy-max", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1.0397, abs=0.05)

    def test_bounds(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["bounds"])
        out = tmp_path / "res.json"
        assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["lower"] <= payload["upper"]
        assert payload["q_hat"] is not None

    def test_quadratic(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["quadratic"])
        out = tmp_path / "res.json"
        assert cli.main(["quadratic", "--config", cfg, "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["value"]) < 0.05

    def test_transport(self, tmp_path):
        cfg = write_config(tmp_path, COMMAND_CONFIGS["transport"])
        out = tmp_path / "res.json"
        assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["value"]) < 0.05

    def test_transport_passes_band(self, tmp_path, monkeypatch):
        seen = []
        solve = cli.problems.solve

        def spy(problem, config):
            seen.append(problem)
            return solve(problem, config)

        monkeypatch.setattr(cli.problems, "solve", spy)
        config = dict(COMMAND_CONFIGS["transport"], band=0.05)
        cfg = write_config(tmp_path, config)
        assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        (problem,) = seen
        assert problem.band == 0.05

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_output_section_is_honoured(self, tmp_path, command):
        result, trace = tmp_path / "result.json", tmp_path / "trace.csv"
        config = dict(COMMAND_CONFIGS[command],
                      output={"result": str(result), "trace": str(trace)})
        cfg = write_config(tmp_path, config)
        assert cli.main([command, "--config", cfg]) == 0
        assert json.loads(result.read_text())["hits"] > 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "batch,log_mean"
        assert len(lines) == 33  # header + 32 batches

    def test_assignment_constructs(self, tmp_path):
        config = {
            "costs": [[1.0, 10.0], [10.0, 1.0]],
            "eps1": 0.15, "eps2": 0.15,
            "estimator": {"n": 200, "L": 2000, "seed": 6,
                          "proxy": {"method": "given",
                                    "q_star": [0.99, 0.01, 0.01, 0.99]}},
        }
        cfg = write_config(tmp_path, config)
        out = tmp_path / "res.json"
        code = cli.main(["assignment", "--config", cfg, "--out", str(out)])
        assert code in (0, cli.EXIT_ZERO_HITS)

    def test_sample_law(self, tmp_path):
        out = tmp_path / "draws.json"
        code = cli.main(["sample-law", "--gamma", "1.0", "--count", "50",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["law"] == "ScaledPoisson"
        assert len(payload["draws"]) == 20

    def test_sample_law_rejects_zero_count(self, tmp_path, capsys):
        out = tmp_path / "draws.json"
        code = cli.main(["sample-law", "--count", "0", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        assert "--count" in capsys.readouterr().err


class TestValidateCommand:
    def test_suite_path_is_absolute_outside_repo_root(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0)

        monkeypatch.setattr(subprocess, "run", fake_run)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validate", "--quick"]) == cli.EXIT_OK
        (cmd,) = calls
        (suite,) = [Path(a) for a in cmd if a.endswith("test_acceptance.py")]
        assert suite.is_absolute()
        assert suite.is_file()

    def test_missing_suite_is_a_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "site" / "baresim" / "cli.py"))
        monkeypatch.setattr(subprocess, "run", pytest.fail)
        assert cli.main(["validate"]) == cli.EXIT_VALIDATION
        assert "acceptance suite not found" in capsys.readouterr().err
