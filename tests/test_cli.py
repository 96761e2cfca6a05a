"""Command-line interface: exit codes, artifacts, schemas."""

import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import maxminpass.cli
import maxminpass.constrained
import maxminpass.mpa
import maxminpass.verify
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

    def test_hardy_p_equal_n_rejected_before_the_default_q(self, tmp_path, capsys):
        # the default q lies midway to p* = n p / (n - p), which has no value at p = n
        cfg = {
            "problem": {
                "variant": "hardy-subcritical",
                "p": 2.0,
                "n": 2,
                "grid": {"n": 2, "R": 30.0, "m": 50, "stretch": 1.05},
            }
        }
        path = write_config(tmp_path / "p_is_n.json", cfg)
        assert main(["minimize", "--config", path, "--out", str(tmp_path)]) == (
            EXIT_VALIDATION
        )
        assert "1 < p < n" in capsys.readouterr().err

    def test_unconverged_first_eigenvalue_exits_3(self, tmp_path, capsys):
        # at p = 1.35 on this grid the Rayleigh model's descent, like the
        # critical problem's own, stops unconverged: the spec is refused
        cfg = {
            "problem": {
                "variant": "critical-bounded",
                "p": 1.35,
                "n": 5,
                "mu": 1.0,
                "grid": {"n": 5, "R": 1.0, "m": 200, "stretch": 1.0},
            }
        }
        path = write_config(tmp_path / "small_p.json", cfg)
        assert main(["minimize", "--config", path, "--out", str(tmp_path)]) == (
            EXIT_CONVERGENCE
        )
        assert "first Dirichlet eigenvalue" in capsys.readouterr().err
        assert not (tmp_path / "minimize_result.json").exists()

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
            ("minimize", "step", 1.0),  # the secant step's start, gone with it
            ("mpa", "c_tol", 1e-3),  # the variant's c_tol
            ("mpa", "max_sweeps", 100),
            ("mpa", "patience", 25),
        ],
    )
    def test_unknown_or_conflicting_key_rejected(self, tmp_path, capsys, block, key, value):
        with open(hardy_config(tmp_path, mpa={})) as f:
            cfg = json.load(f)
        blocks = {None: cfg, "problem": cfg["problem"], "grid": cfg["problem"]["grid"],
                  "mpa": cfg["mpa"]}
        if block == "minimize":  # the block is gone: any key in it names it
            cfg["minimize"], key = {key: value}, "minimize"
        else:
            blocks[block][key] = value
        path = write_config(tmp_path / "typo.json", cfg)
        assert main(["minimize", "--config", path, "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "minimize_result.json").exists()

    @pytest.mark.parametrize(
        "command, block, key, value",
        [
            ("sweep", "sweep", "lambda_min", "abc"),
            ("sweep", "sweep", "count", 7.5),
            ("minimize", "grid", "m", "x"),
            ("minimize", "problem", "mu", [0.0]),
            ("mpa", "mpa", "step", "fast"),
            ("mpa", "mpa", "step", 0),
            ("mpa", "mpa", "k", None),
        ],
    )
    def test_wrong_value_rejected_before_compute(
        self, tmp_path, capsys, monkeypatch, command, block, key, value
    ):
        with open(hardy_config(tmp_path, mpa={})) as f:
            cfg = json.load(f)
        blocks = {"sweep": cfg["sweep"], "problem": cfg["problem"],
                  "grid": cfg["problem"]["grid"], "mpa": cfg["mpa"]}
        blocks[block][key] = value
        path = write_config(tmp_path / "typed.json", cfg)
        calls = spy_level1_solves(monkeypatch)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_VALIDATION
        where = {"grid": "problem.grid"}.get(block, block)
        assert f"{where}.{key}" in capsys.readouterr().err
        assert calls == [] and not list(tmp_path.glob("*.csv"))

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
        assert payload["sup_residual"] >= 0.0

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

    def test_verify_counts_solves(self, outputs):
        payload = json.loads((outputs / "verify_report.json").read_text())
        assert payload["unconverged"] == 0
        # the Hardy dilation is inexact, so verify re-minimizes a few levels
        assert 0 < payload["solves"] <= 4

    def test_toy_summary_schema(self, outputs):
        payload = json.loads((outputs / "toy_summary.json").read_text())
        jsonschema.validate(payload, TOY_SUMMARY_SCHEMA)
        assert payload["c_closed_form"] == pytest.approx(0.25)
        assert payload["c_bruteforce"] == pytest.approx(0.25, abs=1e-6)
        assert payload["c_mpa"] == pytest.approx(0.25, abs=1e-3)
        assert payload["mpa_converged"] is True
        assert payload["mpa_sweeps"] > 0
        # the straight path's top is already the toy's saddle
        assert payload["mpa_certified"] is True
        assert payload["mpa_sup_residual"] <= 1e-8


def spy_level1_solves(monkeypatch):
    """Record (seeded, result) for every solve the CLI module starts itself:
    in ``mpa`` and ``verify`` that is the level-1 solve only."""
    calls = []
    inner = maxminpass.cli.minimize_on_level

    def spy(spec, lam, u0=None):
        r = inner(spec, lam, u0)
        calls.append((u0 is not None, r))
        return r

    monkeypatch.setattr(maxminpass.cli, "minimize_on_level", spy)
    return calls


class TestLevelOneSolve:
    def test_mpa_and_verify_solve_level_one_as_maxmin_does(self, outputs, tmp_path, monkeypatch):
        run = shutil.copytree(outputs, tmp_path / "run")
        calls = spy_level1_solves(monkeypatch)
        cfg = str(run / "config.json")
        for command in ("mpa", "verify"):
            assert main([command, "--config", cfg, "--out", str(run)]) == EXIT_OK
        i_1 = json.loads((run / "maxmin_summary.json").read_text())["i_1"]
        assert [(seeded, r.lam, r.converged, r.i_value) for seeded, r in calls] == [
            (False, 1.0, True, i_1)
        ] * 2

    def test_reports_do_not_depend_on_an_earlier_maxmin(self, tmp_path):
        # At m = 400 a level-1 start that differs from maxmin's point in the
        # last bits moves both reports (at m in {120, 200, 800} it does not).
        cfg = write_config(tmp_path / "critical.json", {
            "problem": {
                "variant": "critical-bounded",
                "p": 2.0,
                "n": 5,
                "mu_fraction_of_limit": 0.3,
                "grid": {"n": 5, "R": 1.0, "m": 400, "stretch": 1.0},
            },
            "sweep": {"lambda_min": 1.0, "lambda_max": 4000.0, "count": 30},
        })
        after, fresh = tmp_path / "after_maxmin", tmp_path / "fresh"
        for command in ("maxmin", "mpa", "verify"):
            assert main([command, "--config", cfg, "--out", str(after)]) == EXIT_OK
        for command in ("mpa", "verify"):
            assert main([command, "--config", cfg, "--out", str(fresh)]) == EXIT_OK
        for name in ("mpa_summary.json", "verify_report.json"):
            assert (fresh / name).read_bytes() == (after / name).read_bytes()


@contextlib.contextmanager
def no_solver_budget():
    """Starve every constrained solve: none may take a step, since a
    warm-started Newton solve converges within one or two."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maxminpass.constrained, "MAX_ITERS", 0)
        yield


def readme_config(tmp_path, name, **problem_overrides):
    """The README ``hardy.json`` on a coarse grid.  Under ``no_solver_budget``
    the sweep runs on the retracted seed's scaling path, whose I = i - lambda
    changes sign only past lambda = 1e5, so it reaches 1e6."""
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
        "sweep": {"lambda_min": 1.0, "lambda_max": 1e6, "count": 12},
    }
    return write_config(tmp_path / name, cfg)


@pytest.fixture(scope="module")
def starved_maxmin(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("starved")
    with no_solver_budget():
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
        path = write_config(tmp_path / "other.json", other)
        assert main(["mpa", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        maxmin = json.loads((tmp_path / "maxmin_summary.json").read_text())
        mpa = json.loads((tmp_path / "mpa_summary.json").read_text())
        assert maxmin["config_sha256"] != mpa["config_sha256"]
        assert not stale.exists()

    def test_verify_exits_nonzero_and_counts(self, tmp_path, monkeypatch):
        # the level-1 solve keeps its budget; verify's re-solves get none
        inner = maxminpass.verify.minimize_on_level

        def starved(*args):
            with no_solver_budget():
                return inner(*args)

        monkeypatch.setattr(maxminpass.verify, "minimize_on_level", starved)
        cfg = hardy_config(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        payload = json.loads((tmp_path / "verify_report.json").read_text())
        jsonschema.validate(payload, VERIFY_REPORT_SCHEMA)
        assert 0 < payload["unconverged"] <= payload["solves"]

    def test_verify_level1_failure_is_reported(self, tmp_path, capsys):
        cfg = hardy_config(tmp_path)
        with no_solver_budget():
            code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        assert "level-1 minimization failed" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_toy_exits_nonzero_when_mpa_does_not_converge(self, tmp_path, monkeypatch):
        # one sweep certifies the toy's path top, so the run gets none
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 0)
        assert main(["toy", "--q", "4", "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        payload = json.loads((tmp_path / "toy_summary.json").read_text())
        jsonschema.validate(payload, TOY_SUMMARY_SCHEMA)
        assert payload["mpa_converged"] is False
        assert payload["mpa_certified"] is False
        assert payload["mpa_sweeps"] == 0

    def test_one_sweep_certifies_the_toy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 1)
        assert main(["toy", "--q", "4", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "toy_summary.json").read_text())
        jsonschema.validate(payload, TOY_SUMMARY_SCHEMA)
        assert payload["mpa_converged"] is True and payload["mpa_certified"] is True
        assert payload["mpa_sweeps"] == 1

    @pytest.mark.parametrize("command, artifact, message", [
        (["minimize"], "minimize_result.json", "the solve at lambda=1 (0 steps"),
        (["sweep"], "sweep.csv", "12 of 12 sweep levels did not converge"),
        (["maxmin"], "maxmin_summary.json", "of the level curve's solves did not converge"),
    ])
    def test_starved_run_names_what_did_not_converge(
        self, command, artifact, message, tmp_path, capsys
    ):
        cfg = readme_config(tmp_path, "hardy.json")
        with no_solver_budget():
            code = main([*command, "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        assert message in capsys.readouterr().err
        assert (tmp_path / artifact).exists()

    def test_starved_verify_names_what_did_not_converge(self, tmp_path, monkeypatch, capsys):
        inner = maxminpass.verify.minimize_on_level

        def starved(*args):
            with no_solver_budget():
                return inner(*args)

        monkeypatch.setattr(maxminpass.verify, "minimize_on_level", starved)
        cfg = hardy_config(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        assert "re-minimizations did not converge" in capsys.readouterr().err

    def test_uncertified_toy_names_the_sweeps(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 0)
        assert main(["toy", "--q", "4", "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        assert "the path deformation (0 sweeps" in capsys.readouterr().err

    def test_stalled_mpa_exits_3_with_a_message(self, tmp_path, capsys):
        # At p = 3 the path stalls about 29% above the unit-multiplier level
        # and its sup point does not polish to a saddle: a patience stop,
        # which is never convergence.
        cfg = {
            "problem": {
                "variant": "hardy-subcritical",
                "p": 3.0,
                "n": 5,
                "mu_fraction_of_limit": 0.5,
                "q": 5.0,
                "grid": {"n": 5, "R": 30.0, "m": 100, "stretch": 50.0 ** (1.0 / 100)},
            }
        }
        path = write_config(tmp_path / "p3.json", cfg)
        assert main(["mpa", "--config", path, "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        payload = json.loads((tmp_path / "mpa_summary.json").read_text())
        jsonschema.validate(payload, MPA_SUMMARY_SCHEMA)
        assert payload["converged"] is False and payload["certified"] is False
        assert payload["c_mpa"] == payload["path_sup"]
        assert f"the path deformation ({payload['sweeps']} sweeps, path_sup" in err
        assert "sup_residual" in err and "did not converge" in err

    def test_unconverged_maxmin_without_a_level_curve_exits_3(self, tmp_path, capsys):
        # The README sweep (to 3e4) on unconverged solves has no sign change
        # of I; the failure is the solves', so the exit is 3, not 2.
        path = readme_config(tmp_path, "hardy.json")
        cfg = json.loads(Path(path).read_text())
        cfg["sweep"] = {"lambda_min": 1.0, "lambda_max": 30000.0, "count": 40}
        write_config(Path(path), cfg)
        with no_solver_budget():
            code = main(["maxmin", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "41 of 41 solves did not converge" in err and "no sign change" in err
        assert not (tmp_path / "maxmin_summary.json").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "maxminpass", "toy", "--q", "4", "--d", "2", "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads((tmp_path / "toy_summary.json").read_text())
    jsonschema.validate(payload, TOY_SUMMARY_SCHEMA)
