"""The benchmark's workloads: inputs drawn from a seed, one pipeline each,
and the output checks at the acceptance suite's own tolerances.

A pipeline is one full pass: build the problem, run the max-min route and
the direct path route, then verify the solution scale.  Every call into the
package goes through the ``maxminpass`` namespace at call time, so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import json
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import maxminpass as mmp
from maxminpass import cli

HARDY_P = 2.0
HARDY_N = 5
HARDY_CONSTANT = ((HARDY_N - HARDY_P) / HARDY_P) ** HARDY_P
HARDY_Q = (HARDY_P + 10.0 / 3.0) / 2.0  # midway between p and p* = 10/3

# Acceptance-suite tolerances (tests/test_acceptance.py); none is loosened.
GAP_TOL = 0.03
TOY_MAXMIN_TOL = 1e-6
TOY_PATH_TOL = 1e-3
LAMBDA_SS_TOL = 0.02
PDE_RESIDUAL_TOL = 10.0 * 1e-6
TOY_RESIDUAL_TOL = 10.0 * 1e-8

# The README's hardy.json with mu = 0.
CLI_CONFIG = {
    "problem": {
        "variant": "hardy-subcritical",
        "p": 2.0, "n": 5, "mu": 0.0,
        "m": 1.0, "q": 2.6666666666666665,
        "grid": {"n": 5, "R": 30.0, "m": 800, "stretch": 1.0049},
    },
    "sweep": {"lambda_min": 1.0, "lambda_max": 30000.0, "count": 40},
}


class Clock:
    """Accumulates wall time per phase."""

    def __init__(self):
        self.times: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        yield
        self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0


class Outcome:
    """What one pipeline produced, and which output checks it failed."""

    def __init__(self):
        self.gaps: list[float] = []
        self.failures: list[str] = []
        self.artifact_bytes = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def gap(self, label: str, c_maxmin: float, c_mpa: float) -> None:
        g = abs(c_mpa - c_maxmin) / abs(c_maxmin)
        self.gaps.append(g)
        self.check(g <= GAP_TOL, f"{label}: route gap {g:.3e} > {GAP_TOL}")

    @property
    def c_gap_rel(self) -> float | None:
        return max(self.gaps) if self.gaps else None


def _nearest_seed(mins: dict, lam: float):
    keys = np.array(sorted(mins))
    k = float(keys[np.argmin(np.abs(np.log(keys) - np.log(lam)))])
    return k, mins[k]


def _pde_routes(spec, lambdas, transport, clock: Clock):
    """Max-min route then direct route on a radial problem.

    ``transport(u, ratio)`` carries a sweep minimizer to the level ``ratio``
    times its own, so the argmax refinement re-minimizes from a warm start.
    """
    with clock.phase("maxmin"):
        r1 = mmp.minimize_on_level(spec, 1.0)
        sweep = mmp.continuation_sweep(spec, lambdas, u0=r1.minimizer)
        good = [r for r in sweep if r.minimizer is not None]
        mins = {r.lam: r.minimizer for r in good}

        def i_fn(lam):
            k0, u = _nearest_seed(mins, lam)
            return mmp.minimize_on_level(spec, lam, transport(u, lam / k0)).i_value

        curve = mmp.build_level_curve([(r.lam, r.i_value) for r in good], i_fn=i_fn)
    with clock.phase("mpa"):
        alpha = mmp.scaling_exponent(spec)
        lam_end = 2.0 * r1.i_value ** (1.0 / (1.0 - alpha))
        endpoint = mmp.scaling_path(spec, r1.minimizer, lam_end)
        mpa = mmp.estimate_c(spec, endpoint, mmp.MpaOptions(), k=32)
    with clock.phase("verify"):
        report = mmp.pick_solution_scale(spec, r1.minimizer)
    return r1, curve, mpa, report


def _check_pde(out: Outcome, label: str, r1, curve, mpa, report) -> None:
    out.gap(label, curve.c_maxmin, mpa.c_mpa)
    out.check(r1.converged, f"{label}: level-1 solve did not converge")
    out.check(mpa.converged, f"{label}: MPA did not converge")
    res = report["residual"]
    out.check(res <= PDE_RESIDUAL_TOL, f"{label}: EL residual {res:.3e} > {PDE_RESIDUAL_TOL}")


class HardyHalf:
    """Whole-space Hardy problem at mu = H/2, driven through the library."""

    name = "hardy-half"
    M = 800
    R = 30.0

    def inputs(self, seed: int) -> dict:
        frac = 0.5 if seed == 0 else float(np.random.default_rng(seed).uniform(0.45, 0.55))
        return {"mu_over_hardy": frac, "mu": frac * HARDY_CONSTANT}

    def setup(self, inputs: dict):
        grid = mmp.build_radial_grid(HARDY_N, self.R, self.M, 50.0 ** (1.0 / self.M))
        return mmp.ProblemSpec(
            variant="hardy-subcritical", p=HARDY_P, n=HARDY_N, mu=inputs["mu"],
            nonlinearity=mmp.NonlinearitySpec(1.0, HARDY_Q), grid=grid,
        )

    def pipeline(self, inputs: dict, clock: Clock, workdir: Path) -> Outcome:
        with clock.phase("pipeline"):
            with clock.phase("setup"):
                spec = self.setup(inputs)

            def transport(u, ratio):
                beta = ratio ** (1.0 / HARDY_N)
                return mmp.apply_scaling(u, mmp.ScalingAction("dilation", beta))

            r1, curve, mpa, report = _pde_routes(
                spec, np.geomspace(1.0, 3e4, 40), transport, clock
            )
        out = Outcome()
        _check_pde(out, self.name, r1, curve, mpa, report)
        predicted = r1.i_value ** (HARDY_N / HARDY_P)
        err = abs(curve.lambda_star_star - predicted) / predicted
        out.check(err <= LAMBDA_SS_TOL, f"lambda** off i_1^(n/p) by {err:.3e}")
        return out


class CriticalBall:
    """Critical Dirichlet problem on the unit ball at mu = 0.3 mu_p."""

    name = "critical-ball"
    M = 800

    def inputs(self, seed: int) -> dict:
        frac = 0.3 if seed == 0 else float(np.random.default_rng(seed).uniform(0.25, 0.35))
        return {"mu_over_mu_p": frac}

    def setup(self, inputs: dict):
        grid = mmp.build_radial_grid(5, 1.0, self.M, 1.0)
        probe = mmp.ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=1.0, grid=grid)
        mu_p = mmp.estimate_mu_p(probe)
        return mmp.ProblemSpec(
            variant="critical-bounded", p=2.0, n=5,
            mu=inputs["mu_over_mu_p"] * mu_p, grid=grid,
        )

    def pipeline(self, inputs: dict, clock: Clock, workdir: Path) -> Outcome:
        with clock.phase("pipeline"):
            with clock.phase("setup"):
                spec = self.setup(inputs)

            def transport(u, ratio):
                beta = ratio ** (1.0 / spec.pstar)
                return mmp.apply_scaling(u, mmp.ScalingAction("amplitude", beta))

            results = _pde_routes(spec, np.geomspace(1.0, 4000.0, 30), transport, clock)
        out = Outcome()
        _check_pde(out, self.name, *results)
        return out


class ToyOracle:
    """Four closed-form toy problems in R^2."""

    name = "toy-oracle"
    D = 2

    def inputs(self, seed: int) -> dict:
        if seed == 0:
            qs = [2.5, 3.0, 4.0, 6.0]
        else:
            qs = sorted(float(q) for q in np.random.default_rng(seed).uniform(2.2, 8.0, 4))
        return {"qs": qs}

    def setup(self, inputs: dict):
        return [
            mmp.ProblemSpec(variant="toy", toy=mmp.ToyProblem(d=self.D, q=q))
            for q in inputs["qs"]
        ]

    def pipeline(self, inputs: dict, clock: Clock, workdir: Path) -> Outcome:
        runs = []
        with clock.phase("pipeline"):
            with clock.phase("setup"):
                specs = self.setup(inputs)
            for spec in specs:
                prob = spec.toy
                with clock.phase("maxmin"):
                    r1 = mmp.minimize_on_level(spec, 1.0)
                    curve = mmp.build_level_curve(
                        [(lam, mmp.toy_i_lambda(prob, lam)) for lam in np.geomspace(1e-3, 4.0, 200)],
                        i_fn=lambda lam, prob=prob: mmp.toy_i_lambda(prob, lam),
                    )
                with clock.phase("mpa"):
                    r_end = 2.0
                    while r_end**2 - r_end**prob.q >= 0:
                        r_end *= 2.0
                    endpoint = np.zeros(self.D)
                    endpoint[0] = r_end
                    mpa = mmp.estimate_c(spec, endpoint, mmp.MpaOptions(step=0.05), k=48)
                with clock.phase("verify"):
                    c_brute = mmp.toy_c_bruteforce(prob)
                    report = mmp.pick_solution_scale(spec, r1.minimizer)
                runs.append((prob, r1, curve, mpa, c_brute, report))
        out = Outcome()
        for prob, r1, curve, mpa, c_brute, report in runs:
            label = f"toy q={prob.q:.6g}"
            c = mmp.toy_closed_form(prob)["c"]
            out.gap(label, curve.c_maxmin, mpa.c_mpa)
            for what, value, tol in (
                ("max-min", curve.c_maxmin, TOY_MAXMIN_TOL),
                ("path", mpa.c_mpa, TOY_PATH_TOL),
                ("brute-force", c_brute, TOY_MAXMIN_TOL),
            ):
                err = abs(value - c)
                out.check(err <= tol, f"{label}: {what} error {err:.3e} > {tol}")
            out.check(r1.converged, f"{label}: level-1 solve did not converge")
            out.check(mpa.converged, f"{label}: MPA did not converge")
            res = report["residual"]
            out.check(res <= TOY_RESIDUAL_TOL, f"{label}: EL residual {res:.3e} > {TOY_RESIDUAL_TOL}")
        return out


class CliHardyMu0:
    """The README config with mu = 0, run in-process through ``cli.main``."""

    name = "cli-hardy-mu0"

    def inputs(self, seed: int) -> dict:
        # The mu = 0 branch has no parameter to draw; every seed runs the README config.
        return {"config": CLI_CONFIG}

    def setup(self, inputs: dict):
        return mmp.problem_from_config(inputs["config"]["problem"])

    def pipeline(self, inputs: dict, clock: Clock, workdir: Path) -> Outcome:
        with clock.phase("setup"):
            self.setup(inputs)
        out = Outcome()
        workdir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            tmp = Path(tmp)
            cfg_path = tmp / "hardy.json"
            cfg_path.write_text(json.dumps(inputs["config"]))
            results = tmp / "results"
            codes = {}
            with clock.phase("pipeline"):
                for command in ("maxmin", "mpa", "verify"):
                    with clock.phase(command):
                        codes[command] = cli.main(
                            [command, "--config", str(cfg_path), "--out", str(results)]
                        )
            for command, code in codes.items():
                out.check(code == cli.EXIT_OK, f"cli {command} exited {code}")
            out.artifact_bytes = sum(f.stat().st_size for f in results.iterdir())
            self._check_artifacts(out, results)
        return out

    @staticmethod
    def _check_artifacts(out: Outcome, results: Path) -> None:
        def load(name):
            path = results / name
            return json.loads(path.read_text()) if path.exists() else None

        maxmin, mpa, verify = (
            load("maxmin_summary.json"), load("mpa_summary.json"), load("verify_report.json")
        )
        if maxmin is None or mpa is None or verify is None:
            out.check(False, "cli: a summary artifact is missing")
            return
        out.gap("cli", maxmin["c_maxmin"], mpa["c_mpa"])
        out.check(mpa["converged"], "cli: MPA did not converge")
        predicted = maxmin["i_1"] ** (HARDY_N / HARDY_P)
        err = abs(maxmin["lambda_star_star"] - predicted) / predicted
        out.check(err <= LAMBDA_SS_TOL, f"cli: lambda** off i_1^(n/p) by {err:.3e}")
        res = verify["residual"]
        out.check(res <= PDE_RESIDUAL_TOL, f"cli: EL residual {res:.3e} > {PDE_RESIDUAL_TOL}")


WORKLOADS = {w.name: w for w in (HardyHalf(), CriticalBall(), ToyOracle(), CliHardyMu0())}
