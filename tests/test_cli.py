"""Command-line interface: exit codes, artifacts, schemas."""

import csv
import json
import shutil

import jsonschema
import pytest

from maxminpass.cli import (
    COMPARISON_SCHEMA,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    MAXMIN_SUMMARY_SCHEMA,
    MPA_SUMMARY_SCHEMA,
    TOY_SUMMARY_SCHEMA,
    VERIFY_REPORT_SCHEMA,
    main,
)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def hardy_config(tmp_path, **overrides):
    cfg = {
        "problem": {
            "variant": "hardy-subcritical",
            "p": 2.0,
            "n": 5,
            "mu": 0.0,
            "grid": {"n": 5, "R": 30.0, "m": 150, "stretch": 1.0265},
        },
        "sweep": {"lambda_min": 1.0, "lambda_max": 30000.0, "count": 25},
    }
    cfg.update(overrides)
    return write_config(tmp_path / "config.json", cfg)


def toy_config(tmp_path):
    return write_config(
        tmp_path / "toy.json", {"problem": {"variant": "toy", "q": 4.0, "d": 2}}
    )


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["minimize", "--config", str(tmp_path / "nope.json")]) == (
            EXIT_VALIDATION
        )

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["minimize", "--config", str(p)]) == EXIT_VALIDATION

    def test_invalid_mu_rejected_before_compute(self, tmp_path):
        cfg = {
            "problem": {
                "variant": "hardy-subcritical",
                "p": 2.0,
                "n": 5,
                "mu": 2.25,  # equals the Hardy constant: inadmissible
                "grid": {"n": 5, "R": 30.0, "m": 50, "stretch": 1.05},
            }
        }
        path = write_config(tmp_path / "bad_mu.json", cfg)
        assert main(["minimize", "--config", path, "--out", str(tmp_path)]) == (
            EXIT_VALIDATION
        )

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_removed_warm_start_key_rejected(self, tmp_path, capsys):
        cfg_path = hardy_config(
            tmp_path,
            sweep={"lambda_min": 1.0, "lambda_max": 10.0, "count": 5, "warm_start": False},
        )
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "warm_start" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("minimize", "max_iter", 50),
            ("minimize", "precondition", False),
            ("mpa", "stepp", 0.1),
            ("problem", "qq", 3),
            ("problem", "mu_fraction_of_limit", 0.5),  # next to mu
            ("grid", "mm", 100),
            (None, "sweeps", {}),
        ],
    )
    def test_unknown_or_conflicting_key_rejected(self, tmp_path, capsys, block, key, value):
        with open(hardy_config(tmp_path, minimize={}, mpa={})) as f:
            cfg = json.load(f)
        blocks = {None: cfg, "problem": cfg["problem"], "grid": cfg["problem"]["grid"],
                  "minimize": cfg["minimize"], "mpa": cfg["mpa"]}
        blocks[block][key] = value
        path = write_config(tmp_path / "typo.json", cfg)
        assert main(["minimize", "--config", path, "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "minimize_result.json").exists()

    def test_sweep_not_bracketing_threshold(self, tmp_path):
        cfg_path = hardy_config(
            tmp_path, sweep={"lambda_min": 1.0, "lambda_max": 10.0, "count": 5}
        )
        code = main(["maxmin", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION


class TestMinimize:
    def test_toy_level_one(self, tmp_path):
        code = main(
            ["minimize", "--config", toy_config(tmp_path), "--lambda", "1.0",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "minimize_result.json").read_text())
        assert payload["i_value"] == pytest.approx(1.0, abs=1e-8)
        assert payload["converged"]

    def test_pde_writes_minimizer_csv(self, tmp_path):
        code = main(
            ["minimize", "--config", hardy_config(tmp_path), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "minimizer.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["r", "value"]
        assert len(rows) == 151


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = hardy_config(tmp)
    assert main(["maxmin", "--config", cfg, "--out", str(tmp)]) == EXIT_OK
    assert main(["mpa", "--config", cfg, "--out", str(tmp)]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", str(tmp)]) == EXIT_OK
    assert main(["toy", "--q", "4", "--out", str(tmp)]) == EXIT_OK
    return tmp


class TestPipelines:
    def test_maxmin_summary_schema(self, outputs):
        payload = json.loads((outputs / "maxmin_summary.json").read_text())
        jsonschema.validate(payload, MAXMIN_SUMMARY_SCHEMA)
        # both closed-form argmax candidates are reported side by side
        assert payload["paper_lambda_bar"] != payload["derived_lambda_bar"]
        assert payload["lambda_bar"] == pytest.approx(
            payload["derived_lambda_bar"], rel=0.05
        )

    def test_level_curve_csv(self, outputs):
        with open(outputs / "level_curve.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["lambda", "i", "I"]
        lam, i, I = map(float, rows[1])
        assert I == i - lam

    def test_sweep_csv(self, outputs):
        with open(outputs / "sweep.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0][:2] == ["lambda", "i_value"]
        assert len(rows) == 26

    def test_sweep_seeded_by_level_one_solve(self, outputs):
        # lambda_min = 1, so the first sweep point is the level-1 minimizer
        with open(outputs / "sweep.csv") as f:
            first = next(csv.DictReader(f))
        summary = json.loads((outputs / "maxmin_summary.json").read_text())
        assert first["iterations"] == "0"
        assert float(first["i_value"]) == summary["i_1"]

    def test_mpa_summary_schema(self, outputs):
        payload = json.loads((outputs / "mpa_summary.json").read_text())
        jsonschema.validate(payload, MPA_SUMMARY_SCHEMA)
        assert payload["converged"]

    def test_comparison_schema_and_gap(self, outputs):
        payload = json.loads((outputs / "comparison.json").read_text())
        jsonschema.validate(payload, COMPARISON_SCHEMA)
        assert payload["relative_gap"] <= 0.03
        maxmin = json.loads((outputs / "maxmin_summary.json").read_text())
        mpa = json.loads((outputs / "mpa_summary.json").read_text())
        assert maxmin["config_sha256"] == mpa["config_sha256"]
        assert maxmin["unconverged"] == 0

    def test_verify_report_schema(self, outputs):
        payload = json.loads((outputs / "verify_report.json").read_text())
        jsonschema.validate(payload, VERIFY_REPORT_SCHEMA)
        assert payload["theta"] == pytest.approx(1.0, abs=1e-6)

    def test_toy_summary_schema(self, outputs):
        payload = json.loads((outputs / "toy_summary.json").read_text())
        jsonschema.validate(payload, TOY_SUMMARY_SCHEMA)
        assert payload["c_closed_form"] == pytest.approx(0.25)
        assert payload["c_bruteforce"] == pytest.approx(0.25, abs=1e-6)
        assert payload["c_mpa"] == pytest.approx(0.25, abs=1e-3)


def readme_config(tmp_path, name, **problem_overrides):
    """The README ``hardy.json`` on a coarse grid, with a capped iteration budget."""
    problem = {
        "variant": "hardy-subcritical",
        "p": 2.0,
        "n": 5,
        "mu": 0.0,
        "m": 1.0,
        "q": 8.0 / 3.0,
        "grid": {"n": 5, "R": 30.0, "m": 200, "stretch": 1.0198},
    }
    problem.update(problem_overrides)
    cfg = {
        "problem": problem,
        "sweep": {"lambda_min": 1.0, "lambda_max": 30000.0, "count": 12},
        "minimize": {"max_iters": 3},
    }
    return write_config(tmp_path / name, cfg)


@pytest.fixture(scope="module")
def starved_maxmin(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("starved")
    code = main(["maxmin", "--config", readme_config(tmp, "hardy.json"), "--out", str(tmp)])
    return code, tmp


class TestUnconvergedRuns:
    def test_maxmin_exits_nonzero_and_counts(self, starved_maxmin):
        code, out = starved_maxmin
        assert code == EXIT_CONVERGENCE
        payload = json.loads((out / "maxmin_summary.json").read_text())
        jsonschema.validate(payload, MAXMIN_SUMMARY_SCHEMA)
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 12
        assert all(r["converged"] == "0" for r in rows)
        # every sweep point plus at least one refinement solve
        assert payload["unconverged"] > len(rows)

    def test_comparison_skipped_for_different_configs(self, starved_maxmin, tmp_path):
        _code, maxmin_out = starved_maxmin
        shutil.copy(maxmin_out / "maxmin_summary.json", tmp_path)
        stale = tmp_path / "comparison.json"
        stale.write_text("{}")
        other = json.loads((maxmin_out / "hardy.json").read_text())
        other["problem"]["mu"] = 1.0
        del other["minimize"]
        path = write_config(tmp_path / "other.json", other)
        assert main(["mpa", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        maxmin = json.loads((tmp_path / "maxmin_summary.json").read_text())
        mpa = json.loads((tmp_path / "mpa_summary.json").read_text())
        assert maxmin["config_sha256"] != mpa["config_sha256"]
        assert not stale.exists()
