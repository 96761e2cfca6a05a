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
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .constrained import continuation_sweep, level_curve, minimize_on_level
from .errors import ConvergenceError, InfeasibleError, ValidationError
from .functionals import ProblemSpec, check_keys, config_number, problem_from_config
from .grids import GridFunction
from .levelcurve import build_level_curve, closed_form_lambda_bar
from .mpa import MpaOptions, estimate_c, find_endpoint
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
        "lambda_star", "lambda_star_star", "lambda_bar", "c_maxmin",
        "paper_lambda_bar", "derived_lambda_bar", "unconverged", "config_sha256",
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
    "required": ["c_mpa", "path_sup", "ray_sup", "sweeps", "converged", "sup_residual",
                 "config_sha256"],
    "properties": {
        "c_mpa": {"type": "number"},
        "path_sup": {"type": "number"},
        "ray_sup": {"type": ["number", "null"]},
        "sweeps": {"type": "integer"},
        "converged": {"type": "boolean"},
        "sup_residual": {"type": "number"},
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
    "required": ["c_closed_form", "c_bruteforce", "c_maxmin", "c_mpa",
                 "mpa_converged", "mpa_sweeps", "mpa_sup_residual"],
    "properties": {
        "c_closed_form": {"type": "number"},
        "c_bruteforce": {"type": "number"},
        "c_maxmin": {"type": "number"},
        "c_mpa": {"type": "number"},
        "mpa_converged": {"type": "boolean"},
        "mpa_sweeps": {"type": "integer", "minimum": 0},
        "mpa_sup_residual": {"type": "number"},
        "lambda_bar": {"type": "number"},
        "lambda_star_star": {"type": "number"},
    },
}
VERIFY_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "theta", "residual", "lambda_unit_multiplier", "candidates", "solves", "unconverged",
    ],
    "properties": {
        "theta": {"type": "number"},
        "residual": {"type": "number"},
        "lambda_unit_multiplier": {"type": "number"},
        "candidates": {"type": "array"},
        "solves": {"type": "integer", "minimum": 0},
        "unconverged": {"type": "integer", "minimum": 0},
    },
}


# Known keys of each config block; ``problem`` is checked by its variant.
CONFIG_BLOCKS = {
    "sweep": ("lambda_min", "lambda_max", "count"),
    "mpa": ("step",),
}


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    check_keys(cfg, ("problem", "output_dir", *CONFIG_BLOCKS), "config")
    if not isinstance(cfg.get("problem"), dict):
        raise ValidationError("config needs a `problem` block (a JSON object)")
    for name, known in CONFIG_BLOCKS.items():
        check_keys(cfg.get(name, {}), known, name)
    return cfg


def _mpa_options(cfg: dict) -> MpaOptions:
    """The ``mpa`` block's options."""
    return MpaOptions(step=config_number(cfg.get("mpa", {}), "step", "mpa", 0.2))


def _config_sha256(cfg: dict) -> str:
    """Hash of the config without ``output_dir``, identifying the run's inputs."""
    body = {k: v for k, v in cfg.items() if k != "output_dir"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _out_dir(cfg: dict, override: str | None) -> Path:
    configured = cfg.get("output_dir", ".")
    if not isinstance(configured, str):
        raise ValidationError(f"config.output_dir must be a string, got {configured!r}")
    out = Path(override or configured)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _sweep_lambdas(cfg: dict) -> np.ndarray:
    block = cfg.get("sweep", {})
    lo = config_number(block, "lambda_min", "sweep", 0.1)
    hi = config_number(block, "lambda_max", "sweep", 10.0)
    count = config_number(block, "count", "sweep", 40, integer=True)
    if not (0 < lo < hi < math.inf) or count < 3:
        raise ValidationError("sweep needs finite 0 < lambda_min < lambda_max and count >= 3")
    return np.geomspace(lo, hi, count)


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_sweep_csv(path: Path, results) -> None:
    _write_csv(path, ["lambda", "i_value", "multiplier", "iterations", "converged", "residual"],
               ([r.lam, r.i_value, r.multiplier, r.iterations, int(r.converged), r.residual]
                for r in results))


def _write_gridfunction_csv(path: Path, u: GridFunction) -> None:
    # repr: every float parses back bit for bit
    _write_csv(path, ["r", "value"],
               ([repr(float(r)), repr(float(v))] for r, v in zip(u.grid.nodes, u.values)))


def _level1_minimum(spec: ProblemSpec):
    """Solve lambda = 1 from the cold seed, the same deterministic solve as
    ``maxmin``'s; ConvergenceError if it does not converge."""
    r1 = minimize_on_level(spec, 1.0)
    if not r1.converged:
        raise ConvergenceError("level-1 minimization failed", best=r1)
    return r1


def _maxmin_summary(spec: ProblemSpec, cfg: dict, out: Path) -> dict:
    lambdas = _sweep_lambdas(cfg)
    # The level-1 result starts the sweep: at lambda_min = 1 it is the
    # sweep's first row, otherwise its minimizer seeds the first level.
    r1 = minimize_on_level(spec, 1.0)
    results = continuation_sweep(spec, lambdas, r1)
    _write_sweep_csv(out / "sweep.csv", results)
    solves = results if r1.lam == lambdas[0] else [*results, r1]
    try:
        curve, refined = level_curve(spec, results)
    except ValidationError as e:
        # Unconverged solves, not the sweep range, are then the likely cause.
        unconverged = sum(not r.converged for r in solves)
        if unconverged:
            raise ConvergenceError(
                f"{unconverged} of {len(solves)} solves did not converge,"
                f" so the level curve could not be built ({e})"
            ) from e
        raise
    _write_csv(out / "level_curve.csv", ["lambda", "i", "I"],
               zip(curve.lambdas, curve.i_values, curve.I_values))
    forms = closed_form_lambda_bar(spec, r1.i_value)
    summary = {
        "lambda_star": curve.lambda_star,
        "lambda_star_star": curve.lambda_star_star,
        "lambda_bar": curve.lambda_bar,
        "c_maxmin": curve.c_maxmin,
        "paper_lambda_bar": forms["paper_formula"],
        "derived_lambda_bar": forms["derived_argmax"],
        "i_1": r1.i_value,
        "unconverged": sum(not r.converged for r in [*solves, *refined]),
        "config_sha256": _config_sha256(cfg),
    }
    _write_json(out / "maxmin_summary.json", summary)
    return summary


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
            gap = abs(c_mpa - c_maxmin) / abs(c_maxmin)
            _write_json(comparison, {"c_maxmin": c_maxmin, "c_mpa": c_mpa, "relative_gap": gap})
            return
    comparison.unlink(missing_ok=True)


def _exit_code(ok: bool, what: str) -> int:
    if not ok:
        print(f"error: {what} did not converge", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CONVERGENCE


def cmd_minimize(cfg: dict, lam: float, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    result = minimize_on_level(spec, lam)
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
        _write_gridfunction_csv(out / "minimizer.csv", result.minimizer)
    return _exit_code(result.converged, f"the solve at lambda={lam:g} ({result.iterations}"
                      f" steps, residual {result.residual:.3g})")


def cmd_sweep(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    results = continuation_sweep(spec, _sweep_lambdas(cfg))
    _write_sweep_csv(out / "sweep.csv", results)
    bad = sum(not r.converged for r in results)
    return _exit_code(bad == 0, f"{bad} of {len(results)} sweep levels")


def cmd_maxmin(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    summary = _maxmin_summary(spec, cfg, out)
    _maybe_comparison(out)
    return _exit_code(summary["unconverged"] == 0,
                      f"{summary['unconverged']} of the level curve's solves")


def cmd_mpa(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    mpa_opts = _mpa_options(cfg)  # checked before the level-1 solve
    endpoint = find_endpoint(spec, _level1_minimum(spec).minimizer)
    result = estimate_c(spec, endpoint, mpa_opts)
    _write_csv(out / "mpa_trace.csv", ["sweep", "ray_sup", "step"], result.trace)
    summary = {"c_mpa": result.c_mpa, "path_sup": result.path_sup, "ray_sup": result.ray_sup,
               "sweeps": result.sweeps, "converged": result.converged,
               "sup_residual": result.sup_residual, "config_sha256": _config_sha256(cfg)}
    _write_json(out / "mpa_summary.json", summary)
    _maybe_comparison(out)
    return _exit_code(result.converged, f"the path deformation ({result.sweeps} sweeps, path_sup"
                      f" {result.path_sup:.12g}, sup_residual {result.sup_residual:.3g})")


def cmd_verify(cfg: dict, out: Path) -> int:
    spec = problem_from_config(cfg["problem"])
    report = pick_solution_scale(spec, _level1_minimum(spec).minimizer)
    payload = {
        "theta": report["theta"],
        "residual": report["residual"],
        "lambda_unit_multiplier": report["lambda_at_unit_multiplier"],
        "candidates": report["candidates_compared"],
        "solves": report["solves"],
        "unconverged": report["unconverged"],
    }
    _write_json(out / "verify_report.json", payload)
    return _exit_code(report["unconverged"] == 0,
                      f"{report['unconverged']} of {report['solves']} re-minimizations")


def cmd_toy(q: float, d: int, out: Path) -> int:
    prob = ToyProblem(d=d, q=q)
    spec = ProblemSpec(variant="toy", toy=prob)
    closed = toy_closed_form(prob)
    lambdas = np.geomspace(1e-3, 4.0, 200)
    curve = build_level_curve(
        [(lam, toy_i_lambda(prob, lam)) for lam in lambdas],
        i_fn=lambda lam: toy_i_lambda(prob, lam),
    )
    endpoint = 2.0 * spec.model.seed()  # q > 2, so F(2 e_1) = 4 - 2^q < 0
    mpa = estimate_c(spec, endpoint, MpaOptions(step=0.05))
    payload = {
        "c_closed_form": closed["c"],
        "c_bruteforce": toy_c_bruteforce(prob),
        "c_maxmin": curve.c_maxmin,
        "c_mpa": mpa.c_mpa,
        "mpa_converged": mpa.converged,
        "mpa_sweeps": mpa.sweeps,
        "mpa_sup_residual": mpa.sup_residual,
        "lambda_bar": curve.lambda_bar,
        "lambda_star_star": curve.lambda_star_star,
    }
    _write_json(out / "toy_summary.json", payload)
    return _exit_code(mpa.converged, f"the path deformation ({mpa.sweeps} sweeps, path_sup"
                      f" {mpa.path_sup:.12g}, sup_residual {mpa.sup_residual:.3g})")


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing keeps no state in the parser.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            # JSON is UTF-8; a file that does not decode is not JSON either
            print(f"error: config is not valid JSON: {e}", file=sys.stderr)
            return EXIT_VALIDATION
        out = _out_dir(cfg, args.out)
        if args.command == "minimize":
            return cmd_minimize(cfg, args.lam, out)
        # looked up at the call, so that a rebound module function is used
        commands = {"sweep": cmd_sweep, "maxmin": cmd_maxmin, "mpa": cmd_mpa, "verify": cmd_verify}
        return commands[args.command](cfg, out)
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
