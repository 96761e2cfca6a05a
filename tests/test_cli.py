"""Command-line interface: exit codes, artifacts, schemas."""

import ast
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
    EXIT_IO,
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

    # JSON is UTF-8: a file that does not decode is not JSON either
    @pytest.mark.parametrize(
        "content", [b"{not json", b"\xff\xfe{}"], ids=["syntax", "not-utf8"]
    )
    def test_invalid_json(self, tmp_path, capsys, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        assert main(["minimize", "--config", str(p)]) == EXIT_VALIDATION
        assert "config is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("output_dir", [5, None])
    def test_output_dir_not_a_string_exits_2(self, tmp_path, capsys, monkeypatch, output_dir):
        cfg = {"problem": {"variant": "toy", "q": 4.0, "d": 2}, "output_dir": output_dir}
        path = write_config(tmp_path / "toy.json", cfg)
        monkeypatch.chdir(tmp_path)
        assert main(["minimize", "--config", path]) == EXIT_VALIDATION
        assert f"config.output_dir must be a string, got {output_dir!r}" in capsys.readouterr().err
        assert sorted(q.name for q in tmp_path.iterdir()) == ["toy.json"]

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

    @pytest.mark.parametrize("command", ["toy", "minimize"])
    def test_out_naming_a_file_exits_4(self, tmp_path, capsys, command):
        # the output directory cannot be made where a file already is
        blocked = tmp_path / "taken"
        blocked.write_text("")
        if command == "toy":
            argv = ["toy", "--q", "4", "--out", str(blocked)]
        else:
            argv = ["minimize", "--config", toy_config(tmp_path), "--out", str(blocked)]
        assert main(argv) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["inf", "nan", "config-inf"])
    def test_non_finite_toy_q_exits_2(self, tmp_path, capsys, q):
        # 2 < q held for neither: q = inf wrote NaN into toy_summary.json
        # and exited 3, q = nan exited 2 for "i values must be finite"
        out = tmp_path / "out"
        if q == "config-inf":  # JSON's Infinity, which json.loads reads
            cfg = tmp_path / "toy.json"
            cfg.write_text('{"problem": {"variant": "toy", "q": Infinity}}')
            argv = ["minimize", "--config", str(cfg), "--out", str(out)]
        else:
            argv = ["toy", "--q", q, "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert "toy q must be finite and > 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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
            ("mpa", "k", 32),  # sized the final path only, which no command reads
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
            # JSON booleans and strings are not numbers, whatever float() reads them as
            ("minimize", "grid", "m", "200"),
            ("sweep", "sweep", "count", True),
            ("mpa", "mpa", "step", "0.2"),
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

    @pytest.mark.parametrize("problem", [None, 5, []], ids=["missing", "number", "array"])
    def test_problem_block_required(self, tmp_path, capsys, problem):
        cfg = {"sweep": {"lambda_min": 1.0, "lambda_max": 10.0, "count": 5}}
        if problem is not None:
            cfg["problem"] = problem
        path = write_config(tmp_path / "no_problem.json", cfg)
        assert main(["minimize", "--config", path, "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "config needs a `problem` block" in capsys.readouterr().err
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

    def test_successive_calls_keep_no_state(self, tmp_path):
        # the parser is built once per process: a flag given to one call is
        # not the default of the next
        cfg = toy_config(tmp_path)
        lams = []
        for flags, out in ((["--lambda", "2"], tmp_path / "a"), ([], tmp_path / "b")):
            assert main(["minimize", "--config", cfg, *flags, "--out", str(out)]) == EXIT_OK
            lams.append(json.loads((out / "minimize_result.json").read_text())["lambda"])
        assert lams == [2.0, 1.0]

    def test_pde_writes_minimizer_csv(self, tmp_path, monkeypatch):
        calls = spy_level1_solves(monkeypatch)
        code = main(
            ["minimize", "--config", hardy_config(tmp_path), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "minimizer.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["r", "value"]
        assert len(rows) == 151
        # every row parses back bit for bit to the solver's node and value
        [(_seeded, result)] = calls
        u = result.minimizer
        assert [[float(r), float(v)] for r, v in rows[1:]] == [
            [r, v] for r, v in zip(u.grid.nodes.tolist(), u.values.tolist())
        ]


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
        assert abs(payload["ray_sup"] - payload["c_mpa"]) <= 1e-12 * payload["c_mpa"]
        assert payload["c_mpa"] <= payload["path_sup"]

    def test_mpa_trace_csv(self, outputs, tmp_path, monkeypatch):
        # one row per descent step: the step's count, the ray's sup after it
        # and the next step's size; the endpoint's ray certifies before any
        # step, so its trace is the header alone, and a run with certificates
        # refused has rows whose sups fall
        with open(outputs / "mpa_trace.csv") as f:
            rows = list(csv.reader(f))
        summary = json.loads((outputs / "mpa_summary.json").read_text())
        assert summary["sweeps"] == 0
        assert rows == [["sweep", "ray_sup", "step"]]
        refuse_certificates(monkeypatch)
        cfg = hardy_config(tmp_path)
        assert main(["mpa", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        with open(tmp_path / "mpa_trace.csv") as f:
            rows = list(csv.reader(f))
        summary = json.loads((tmp_path / "mpa_summary.json").read_text())
        assert summary["sweeps"] > 0
        assert rows[0] == ["sweep", "ray_sup", "step"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, summary["sweeps"] + 1))
        assert float(rows[-1][1]) == summary["path_sup"]
        sups = [float(r[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert all(0.0 < float(r[2]) <= maxminpass.mpa.MAX_STEP for r in rows[1:])

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
        # the straight path's top is already the toy's saddle: it is
        # certified before the first sweep
        assert payload["mpa_sweeps"] == 0
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

    def test_maxmin_records_level_one_once(self, tmp_path, monkeypatch):
        # the level-1 solve is the sweep's first row, not solved again there
        levels = []
        seed_record = maxminpass.constrained.seed_record

        def spy(model, x, lam):
            levels.append(lam)
            return seed_record(model, x, lam)

        monkeypatch.setattr(maxminpass.constrained, "seed_record", spy)
        assert main(["maxmin", "--config", hardy_config(tmp_path), "--out", str(tmp_path)]) == EXIT_OK
        assert levels == [1.0]

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


def refuse_certificates(monkeypatch):
    """Refuse every certificate of the path deformation, keeping its residual:
    a run then stops only on MAX_SWEEPS, on PATIENCE or where no descent step
    lowers the ray's sup, never converged."""
    certify = maxminpass.mpa._certify
    monkeypatch.setattr(maxminpass.mpa, "_certify", lambda *a: (False, certify(*a)[1], None, None))


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
    changes sign between lambda = 8e3 and 2.3e4, near the converged
    lambda** = 1.3e4; the sweep reaches 1e6."""
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
        # the toy's straight path is certified before any sweep: refuse it
        refuse_certificates(monkeypatch)
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 0)
        assert main(["toy", "--q", "4", "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        payload = json.loads((tmp_path / "toy_summary.json").read_text())
        jsonschema.validate(payload, TOY_SUMMARY_SCHEMA)
        assert payload["mpa_converged"] is False
        assert payload["mpa_sweeps"] == 0

    def test_one_sweep_certifies_the_toy(self, tmp_path, monkeypatch):
        # a budget of one sweep is more than the toy needs: its straight
        # path is certified before the first
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 1)
        assert main(["toy", "--q", "4", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "toy_summary.json").read_text())
        jsonschema.validate(payload, TOY_SUMMARY_SCHEMA)
        assert payload["mpa_converged"] is True
        assert payload["mpa_sweeps"] == 0

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
        refuse_certificates(monkeypatch)
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 0)
        assert main(["toy", "--q", "4", "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        assert "the path deformation (0 sweeps" in capsys.readouterr().err

    def test_stalled_mpa_exits_3_with_a_message(self, tmp_path, monkeypatch, capsys):
        # With every certificate refused the run ends uncertified, which is
        # never convergence.  Without the polish, the descent at p = 3 creeps
        # toward the saddle for some 4,500 steps before its plateau; 100 show
        # the same report.
        refuse_certificates(monkeypatch)
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 100)
        cfg = {
            "problem": {
                "variant": "hardy-subcritical",
                "p": 3.0,
                "n": 5,
                "mu_fraction_of_limit": 0.5,
                "q": 5.0,
                "grid": {"n": 5, "R": 30.0, "m": 800, "stretch": 50.0 ** (1.0 / 800)},
            }
        }
        path = write_config(tmp_path / "p3.json", cfg)
        assert main(["mpa", "--config", path, "--out", str(tmp_path)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        payload = json.loads((tmp_path / "mpa_summary.json").read_text())
        jsonschema.validate(payload, MPA_SUMMARY_SCHEMA)
        assert payload["converged"] is False
        assert payload["c_mpa"] == payload["path_sup"]
        assert payload["ray_sup"] is None
        assert f"the path deformation ({payload['sweeps']} sweeps, path_sup" in err
        assert "sup_residual" in err and "did not converge" in err

    def test_unconverged_maxmin_without_a_level_curve_exits_3(self, tmp_path, capsys):
        # The README sweep cut at 3e3, below where the unconverged I changes
        # sign (``readme_config``), has no sign change of I; the failure is
        # the solves', so the exit is 3, not 2.
        path = readme_config(tmp_path, "hardy.json")
        cfg = json.loads(Path(path).read_text())
        cfg["sweep"] = {"lambda_min": 1.0, "lambda_max": 3000.0, "count": 40}
        write_config(Path(path), cfg)
        with no_solver_budget():
            code = main(["maxmin", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        # the level-1 solve is the sweep's first row, counted once
        assert "40 of 40 solves did not converge" in err and "no sign change" in err
        assert not (tmp_path / "maxmin_summary.json").exists()
        with open(tmp_path / "sweep.csv") as f:
            assert len(list(csv.DictReader(f))) == 40

    def test_unconverged_maxmin_counts_a_level_one_solve_off_the_sweep(self, tmp_path, capsys):
        # lambda_min = 0.5: the level-1 solve only seeds the sweep's first
        # level, so it is a solve of its own
        path = readme_config(tmp_path, "hardy.json")
        cfg = json.loads(Path(path).read_text())
        cfg["sweep"] = {"lambda_min": 0.5, "lambda_max": 3000.0, "count": 40}
        write_config(Path(path), cfg)
        with no_solver_budget():
            code = main(["maxmin", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONVERGENCE
        assert "41 of 41 solves did not converge" in capsys.readouterr().err

    def test_maxmin_without_a_sign_change_exits_2_and_keeps_the_sweep(self, tmp_path, capsys):
        # the default sweep, 0.1 to 10, ends far below lambda**: every solve
        # converges, so the failure is the sweep range's, exit 2, and the
        # sweep is still written
        path = readme_config(tmp_path, "hardy.json")
        cfg = json.loads(Path(path).read_text())
        del cfg["sweep"]
        write_config(Path(path), cfg)
        assert main(["maxmin", "--config", path, "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "no sign change" in capsys.readouterr().err
        with open(tmp_path / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 40 and all(r["converged"] == "1" for r in rows)
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


def file_access(source: str) -> list:
    """The ``csv``/``json`` imports and ``open(...)`` calls of a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in ("csv", "json")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            found.append(node.module)
        elif isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == "open" or getattr(f, "attr", None) == "open":
                found.append("open(")
    return found


def test_only_the_cli_reads_or_writes_files():
    # the library returns values; cli.py is the one edge that knows a file
    package = Path(maxminpass.cli.__file__).parent
    assert file_access((package / "cli.py").read_text())
    access = {f.name: file_access(f.read_text()) for f in sorted(package.glob("*.py"))}
    assert {name: found for name, found in access.items() if found and name != "cli.py"} == {}


def test_import_does_not_load_scipy_optimize():
    # the package's scalar solves are its own; scipy serves two LAPACK
    # routines, loaded from their extension without the scipy.linalg package
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, maxminpass; print(*sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert {"scipy.optimize", "scipy.linalg"} & set(proc.stdout.split()) == set()
