"""Command-line entry point tying the pipeline together.

Grammar::

    maxminpass <minimize|sweep|maxmin|mpa|verify|toy> --config <path>
               [--lambda <x>] [--out <dir>] [--q <q>] [--d <d>]

Exit codes: 0 success, 2 validation error, 3 convergence failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .constrained import MinimizeOptions, continuation_sweep, minimize_on_level
from .errors import ConvergenceError, InfeasibleError, ValidationError
from .functionals import ProblemSpec, check_keys, eval_F, problem_from_config
from .grids import GridFunction, gridfunction_to_csv
from .levelcurve import (
    build_level_curve,
    closed_form_lambda_bar,
    scaling_exponent,
    scaling_path,
)
from .mpa import MpaOptions, estimate_c
from .toy import ToyProblem, toy_c_bruteforce, toy_closed_form, toy_i_lambda
from .verify import pick_solution_scale

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

# JSON schemas for the emitted summaries (checked in the test suite).
MAXMIN_SUMMARY_SCHEMA = {
    "type": "object",
    "required": [
        "lambda_star",
        "lambda_star_star",
        "lambda_bar",
        "c_maxmin",
        "paper_lambda_bar",
        "derived_lambda_bar",
        "unconverged",
        "config_sha256",
    ],
    "properties": {
        "lambda_star": {"type": "number"},
        "lambda_star_star": {"type": "number"},
        "lambda_bar": {"type": "number"},
        "c_maxmin": {"type": "number"},
        "paper_lambda_bar": {"type": "number"},
        "derived_lambda_bar": {"type": "number"},
        "i_1": {"type": "number"},
        "unconverged": {"type": "integer", "minimum": 0},
        "config_sha256": {"type": "string"},
    },
}
MPA_SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["c_mpa", "sweeps", "converged", "config_sha256"],
    "properties": {
        "c_mpa": {"type": "number"},
        "sweeps": {"type": "integer"},
        "converged": {"type": "boolean"},
        "config_sha256": {"type": "string"},
    },
}
COMPARISON_SCHEMA = {
    "type": "object",
    "required": ["c_maxmin", "c_mpa", "relative_gap"],
    "properties": {
        "c_maxmin": {"type": "number"},
        "c_mpa": {"type": "number"},
        "relative_gap": {"type": "number"},
    },
}
TOY_SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["c_closed_form", "c_bruteforce", "c_maxmin", "c_mpa"],
    "properties": {
        "c_closed_form": {"type": "number"},
        "c_bruteforce": {"type": "number"},
        "c_maxmin": {"type": "number"},
        "c_mpa": {"type": "number"},
        "lambda_bar": {"type": "number"},
        "lambda_star_star": {"type": "number"},
    },
}
VERIFY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["theta", "residual", "lambda_unit_multiplier", "candidates"],
    "properties": {
        "theta": {"type": "number"},
        "residual": {"type": "number"},
        "lambda_unit_multiplier": {"type": "number"},
        "candidates": {"type": "array"},
    },
}


# Known keys of each config block; ``problem`` is checked by its variant.
CONFIG_BLOCKS = {
    "sweep": ("lambda_min", "lambda_max", "count"),
    "minimize": tuple(f.name for f in fields(MinimizeOptions)),
    "mpa": (*(f.name for f in fields(MpaOptions)), "k"),
}


def _load_config(path: str) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    check_keys(cfg, ("problem", "output_dir", *CONFIG_BLOCKS), "config")
    for name, known in CONFIG_BLOCKS.items():
        check_keys(cfg.get(name, {}), known, name)
    return cfg


def _minimize_options(cfg: dict) -> MinimizeOptions:
    block = cfg.get("minimize", {})
    return MinimizeOptions(**block)


def _mpa_options(cfg: dict) -> MpaOptions:
    block = dict(cfg.get("mpa", {}))
    block.pop("k", None)
    return MpaOptions(**block)


def _config_sha256(cfg: dict) -> str:
    """Hash of the config without ``output_dir``, identifying the run's inputs."""
    body = {k: v for k, v in cfg.items() if k != "output_dir"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _out_dir(cfg: dict, override: str | None) -> Path:
    out = Path(override or cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _sweep_lambdas(cfg: dict) -> np.ndarray:
    block = cfg.get("sweep", {})
    lo = float(block.get("lambda_min", 0.1))
    hi = float(block.get("lambda_max", 10.0))
    count = int(block.get("count", 40))
    if not (0 < lo < hi) or count < 3:
        raise ValidationError("sweep needs 0 < lambda_min < lambda_max and count >= 3")
    return np.geomspace(lo, hi, count)


def _write_sweep_csv(path: Path, results) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lambda", "i_value", "multiplier", "iterations", "converged", "residual"])
        for r in results:
            w.writerow(
                [r.lam, r.i_value, r.multiplier, r.iterations, int(r.converged), r.residual]
            )


def _refining_i_fn(spec: ProblemSpec, results, opts: MinimizeOptions, solves: list):
    """Re-minimize at queried levels, warm-started from the nearest sweep
    minimizer, so the argmax refinement is not limited by interpolation.
    Each refinement's MinimizeResult is appended to ``solves``."""
    mins = {r.lam: r.minimizer for r in results if r.minimizer is not None}
    keys = np.array(sorted(mins))

    def i_fn(lam: float) -> float:
        k = float(keys[np.argmin(np.abs(np.log(keys) - np.log(lam)))])
        r = minimize_on_level(spec, lam, spec.model.transport(mins[k], lam / k), opts)
        solves.append(r)
        return r.i_value

    return i_fn


def _maxmin_summary(spec: ProblemSpec, cfg: dict, out: Path) -> dict:
    lambdas, opts = _sweep_lambdas(cfg), _minimize_options(cfg)
    # The level-1 minimizer seeds the sweep: at lambda_min = 1 the first
    # point is then already solved.
    r1 = minimize_on_level(spec, 1.0, None, opts)
    results = continuation_sweep(spec, lambdas, opts, r1.minimizer)
    _write_sweep_csv(out / "sweep.csv", results)
    good = [r for r in results if r.minimizer is not None and math.isfinite(r.i_value)]
    refined: list = []
    curve = build_level_curve(
        [(r.lam, r.i_value) for r in good],
        i_fn=_refining_i_fn(spec, good, opts, refined),
    )
    with open(out / "level_curve.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lambda", "i", "I"])
        for lam, i, I in zip(curve.lambdas, curve.i_values, curve.I_values):
            w.writerow([lam, i, I])
    forms = closed_form_lambda_bar(spec, r1.i_value)
    summary = {
        "lambda_star": curve.lambda_star,
        "lambda_star_star": curve.lambda_star_star,
        "lambda_bar": curve.lambda_bar,
        "c_maxmin": curve.c_maxmin,
        "paper_lambda_bar": forms["paper_formula"],
        "derived_lambda_bar": forms["derived_argmax"],
        "i_1": r1.i_value,
        "unconverged": sum(not r.converged for r in [*results, *refined, r1]),
        "config_sha256": _config_sha256(cfg),
    }
    _write_json(out / "maxmin_summary.json", summary)
    return summary


def _endpoint_for_mpa(spec: ProblemSpec, cfg: dict, opts: MinimizeOptions):
    """Endpoint at twice the estimated first strictly-negative level."""
    r1 = minimize_on_level(spec, 1.0, None, opts)
    if not r1.converged:
        raise ConvergenceError("level-1 minimization failed", best=r1)
    alpha = scaling_exponent(spec)
    lam_neg = r1.i_value ** (1.0 / (1.0 - alpha))
    lam = 2.0 * lam_neg
    endpoint = scaling_path(spec, r1.minimizer, lam)
    for _ in range(10):
        if eval_F(spec, endpoint) < 0:
            break
        lam *= 1.5
        endpoint = scaling_path(spec, r1.minimizer, lam)
    return r1, endpoint


def _maybe_comparison(out: Path) -> None:
    """Compare the two routes when both summaries come from the same config;
    otherwise remove any comparison left over from an earlier pair."""
    mm, mp = out / "maxmin_summary.json", out / "mpa_summary.json"
    comparison = out / "comparison.json"
    if mm.exists() and mp.exists():
        maxmin = json.loads(mm.read_text())
        mpa = json.loads(mp.read_text())
        sha = maxmin.get("config_sha256")
        if sha is not None and sha == mpa.get("config_sha256"):
            c_maxmin, c_mpa = maxmin["c_maxmin"], mpa["c_mpa"]
            _write_json(
                comparison,
                {
                    "c_maxmin": c_maxmin,
                    "c_mpa": c_mpa,
                    "relative_gap": abs(c_mpa - c_maxmin) / abs(c_maxmin),
                },
            )
            return
    comparison.unlink(missing_ok=True)


def cmd_minimize(cfg: dict, lam: float, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    opts = _minimize_options(cfg)
    result = minimize_on_level(spec, lam, None, opts)
    payload = {
        "lambda": result.lam,
        "i_value": result.i_value,
        "multiplier": result.multiplier,
        "iterations": result.iterations,
        "converged": result.converged,
        "residual": result.residual,
    }
    _write_json(out / "minimize_result.json", payload)
    if isinstance(result.minimizer, GridFunction):
        gridfunction_to_csv(result.minimizer, out / "minimizer.csv")
    return EXIT_OK if result.converged else EXIT_CONVERGENCE


def cmd_sweep(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    results = continuation_sweep(spec, _sweep_lambdas(cfg), _minimize_options(cfg))
    _write_sweep_csv(out / "sweep.csv", results)
    return EXIT_OK if all(r.converged for r in results) else EXIT_CONVERGENCE


def cmd_maxmin(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    summary = _maxmin_summary(spec, cfg, out)
    _maybe_comparison(out)
    return EXIT_OK if summary["unconverged"] == 0 else EXIT_CONVERGENCE


def cmd_mpa(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    opts = _minimize_options(cfg)
    _r1, endpoint = _endpoint_for_mpa(spec, cfg, opts)
    mpa_opts = _mpa_options(cfg)
    k = int(cfg.get("mpa", {}).get("k", 32))
    result = estimate_c(
        spec, endpoint, mpa_opts, k=k, trace_path=out / "mpa_trace.csv"
    )
    _write_json(
        out / "mpa_summary.json",
        {
            "c_mpa": result.c_mpa,
            "sweeps": result.sweeps,
            "converged": result.converged,
            "config_sha256": _config_sha256(cfg),
        },
    )
    _maybe_comparison(out)
    return EXIT_OK if result.converged else EXIT_CONVERGENCE


def cmd_verify(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    opts = _minimize_options(cfg)
    r1 = minimize_on_level(spec, 1.0, None, opts)
    if not r1.converged:
        return EXIT_CONVERGENCE
    report = pick_solution_scale(spec, r1.minimizer, opts)
    payload = {
        "theta": report["theta"],
        "residual": report["residual"],
        "lambda_unit_multiplier": report["lambda_at_unit_multiplier"],
        "candidates": report["candidates_compared"],
    }
    _write_json(out / "verify_report.json", payload)
    return EXIT_OK


def cmd_toy(q: float, d: int, out: Path) -> int:
    prob = ToyProblem(d=d, q=q)
    spec = ProblemSpec(variant="toy", toy=prob)
    closed = toy_closed_form(prob)
    lambdas = np.geomspace(1e-3, 4.0, 200)
    curve = build_level_curve(
        [(lam, toy_i_lambda(prob, lam)) for lam in lambdas],
        i_fn=lambda lam: toy_i_lambda(prob, lam),
    )
    r = 2.0
    while r**2 - r**q >= 0:
        r *= 2.0
    endpoint = r * spec.model.seed()
    mpa = estimate_c(spec, endpoint, MpaOptions(step=0.05), k=48)
    payload = {
        "c_closed_form": closed["c"],
        "c_bruteforce": toy_c_bruteforce(prob),
        "c_maxmin": curve.c_maxmin,
        "c_mpa": mpa.c_mpa,
        "lambda_bar": curve.lambda_bar,
        "lambda_star_star": curve.lambda_star_star,
    }
    _write_json(out / "toy_summary.json", payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxminpass",
        description="Constrained minima, level curves, and pass-level cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("minimize", "sweep", "maxmin", "mpa", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name == "minimize":
            p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p = sub.add_parser("toy")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code else EXIT_OK
    try:
        if args.command == "toy":
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            return cmd_toy(args.q, args.d, out)
        try:
            cfg = _load_config(args.config)
        except FileNotFoundError:
            print(f"error: config file not found: {args.config}", file=sys.stderr)
            return EXIT_VALIDATION
        except json.JSONDecodeError as e:
            print(f"error: config is not valid JSON: {e}", file=sys.stderr)
            return EXIT_VALIDATION
        out = _out_dir(cfg, args.out)
        if args.command == "minimize":
            return cmd_minimize(cfg, args.lam, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        if args.command == "maxmin":
            return cmd_maxmin(cfg, out)
        if args.command == "mpa":
            return cmd_mpa(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        return EXIT_VALIDATION
    except (ValidationError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
