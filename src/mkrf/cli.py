"""Command line interface: run, classify, cy-solve, report.

Exit codes for `run`: 0 completed with all monitors passing, 2 completed
with monitor violations (listed on stderr), 3 numerical breakdown,
4 invalid configuration.

`run` and `cy-solve` with --out also write timings.json, the wall seconds
of the command's phases from its start (imports and argument parsing are
not counted): setup_s (scenario and problem), core_s (run_flow or
solve_cy), verdict_s (`run` only: regime reports and reference solves) and
write_s (the run record or solution files; the report rendered after it is
not counted).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import monitors
from .elliptic import NewtonConvergenceError, solve_cy, solve_psi_family
from .flow import run_flow
from .geometry import Regime, SingularMetricError, compute_T
from .grid import write_snapshot
from .report import render_report, save_run, write_timings
from .scenario import (
    InvalidScenarioError,
    Scenario,
    build_limit_problem,
    build_problem,
    is_finite_number,
    load_scenario,
    validate,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_BREAKDOWN = 3
EXIT_INVALID = 4


def _add_scenario_args(p):
    p.add_argument("--config", metavar="PATH", help="scenario config (JSON)")
    p.add_argument("--preset", metavar="NAME", help="shipped preset name")
    p.add_argument("--t-max", type=float, default=None, help="override t_max")
    p.add_argument("--grid", type=int, default=None, metavar="N",
                   help="override points per axis")


def _load(args) -> Scenario:
    sc = load_scenario(args.preset, args.config)
    if args.t_max is not None:
        sc.t_max = args.t_max
        if isinstance(sc.psi_times, list):
            # entries that are not numbers are left for validate to name
            sc.psi_times = [t for t in sc.psi_times
                            if not (is_finite_number(t) and t > sc.t_max)]
    if args.grid is not None:
        sc.N = args.grid
    return sc


def _invalid(what: str, err) -> int:
    """Exit for invalid input: what (config, --out) and the error."""
    print(f"invalid {what}: {err}", file=sys.stderr)
    return EXIT_INVALID


def _fmt_T(T: float) -> str:
    return "inf" if math.isinf(T) else f"{T:.6f}"


def cmd_classify(args) -> int:
    try:
        parsed = validate(_load(args))
        path = compute_T(parsed["A0"], parsed["Ainf"])
    except (InvalidScenarioError, ValueError) as e:
        return _invalid("config", e)
    if args.json:
        out = {
            "T": _fmt_T(path.T) if math.isinf(path.T) else path.T,
            "regime": path.regime.value,
            "r": path.r,
            "s_star": path.s_star,
        }
        print(json.dumps(out, sort_keys=True))
    else:
        line = f"T={_fmt_T(path.T)} regime={path.regime.value}"
        if path.regime == Regime.COLLAPSED:
            line += f" r={path.r}"
        print(line)
    return EXIT_OK


def _newton_work(rep) -> dict:
    """How hard one Newton solve worked: iterations, Jacobian applications,
    Krylov restart cycles and reached linear residuals on its grid, where
    it started, and the coarse solves of a nested start."""
    return {"iterations": rep.iterations, "matvecs": list(rep.matvecs),
            "krylov_cycles": list(rep.krylov_cycles),
            "linear_residuals": list(rep.linear_residuals),
            "start": rep.start, "coarse_levels": rep.coarse_levels}


def _inadmissible_limit(err: SingularMetricError) -> int:
    """Exit for a limit form Ainf + H[phi_inf] that is not a metric: the
    limit equation's Newton solve has no admissible start."""
    return _invalid("config", f"phi_inf: the limit form Ainf + H[phi_inf] is not positive ({err})")


def verdict(scenario: Scenario, problem, result, limit):
    """Judge a finished run by its regime.

    Finite-time runs get the blow-down report.  Collapsed runs get the
    collapsed report plus, when the scenario asks for it, the psi family
    and its psi_non_trending check.  Kahler-limit runs are compared with
    the reference Newton solve of limit, the scenario's limit problem (None
    in the other regimes).  Returns (reports, failures, extra_constants,
    extra_fields): failures names every failed check, the run's monitor
    violations included.  A failed Newton solve raises
    NewtonConvergenceError or ValueError, a limit form that is not a metric
    SingularMetricError.
    """
    regime = problem.path.regime
    reports = {}
    extra_constants = {}
    extra_fields = []
    if regime == Regime.FINITE_TIME:
        reports["finite_time"] = monitors.check_finite_time(result.series, problem.path.T)
    if regime == Regime.COLLAPSED:
        # windows end where the run did: a singularity stop ends before t_max
        rep = monitors.check_collapsed(result.series, problem.path.r,
                                       result.constants["t_final"], result.constants["C3"])
        reports["collapsed"] = rep
        if scenario.run_psi_family and scenario.psi_times:
            psis, psi_reports = solve_psi_family(problem, scenario.psi_times)
            sups = [float(np.abs(p.values).max()) for p in psis]
            extra_constants["psi_sup"] = sups
            extra_constants["psi_newton"] = [
                dict(_newton_work(r), t=t) for t, r in zip(scenario.psi_times, psi_reports)
            ]
            half = max(1, len(sups) // 2)
            trend_margin = max(sups[:half]) + 0.1 - max(sups[half:] or sups[:half])
            rep.checks.append(monitors.MonitorResult("psi_non_trending", trend_margin, 0.0))
            extra_fields += [
                (f"psi_t{t:g}", p) for t, p in zip(scenario.psi_times, psis)
            ]
    if regime == Regime.KAHLER_LIMIT:
        U, newton_rep = solve_cy(limit)
        gaps = [
            monitors.convergence_gap(arr, U.values) for _, arr in result.uhat_snaps
        ]
        ts = [t for t, _ in result.uhat_snaps]
        reports["convergence"] = monitors.check_convergence(ts, gaps)
        extra_constants["newton_residual"] = newton_rep.final_residual
        extra_constants["newton_reference"] = _newton_work(newton_rep)
        extra_fields.append(("U_reference", U))
    failures = list(result.violations)
    for rep in reports.values():
        failures += [c.name for c in rep.checks if not c.passed]
    return reports, failures, extra_constants, extra_fields


def cmd_run(args) -> int:
    start = time.perf_counter()
    try:
        sc = _load(args)
        problem = build_problem(sc)
        limit = None
        if problem.path.regime == Regime.KAHLER_LIMIT:
            limit = build_limit_problem(sc)
            # the reference solve after the flow needs a limit form that is
            # a metric (congruence into the Newton frame keeps positivity)
            limit.form.check_metric()
        if args.out:  # made now, so that an unusable path fails before the flow
            os.makedirs(args.out, exist_ok=True)
    except InvalidScenarioError as e:
        return _invalid("config", e)
    except SingularMetricError as e:
        return _inadmissible_limit(e)
    except OSError as e:
        return _invalid("--out", e)
    core_start = time.perf_counter()
    result = run_flow(problem, sc.t_max, sc.run_comparison_flow, sc.dt_cap)
    core_end = time.perf_counter()
    timings = {"setup_s": core_start - start, "core_s": core_end - core_start}

    if result.status == "breakdown":
        print(f"breakdown: {result.stop_reason}", file=sys.stderr)
        if args.out:
            save_run(args.out, sc, result)
            timings["write_s"] = time.perf_counter() - core_end
            write_timings(args.out, timings)
        return EXIT_BREAKDOWN

    try:
        reports, failures, extra_constants, extra_fields = verdict(sc, problem, result, limit)
    except (NewtonConvergenceError, ValueError) as e:
        what = ("psi family" if problem.path.regime == Regime.COLLAPSED
                else "reference elliptic solve")
        print(f"{what} failed: {e}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except SingularMetricError as e:
        return _inadmissible_limit(e)
    write_start = time.perf_counter()
    timings["verdict_s"] = write_start - core_end

    if args.out:
        save_run(args.out, sc, result, reports, extra_constants, extra_fields)
        timings["write_s"] = time.perf_counter() - write_start
        write_timings(args.out, timings)
        render_report(args.out)

    print(
        f"status={result.status} steps={result.constants['steps']} t_final="
        f"{result.constants['t_final']:.6f} wall={timings['core_s']:.1f}s"
    )
    if failures:
        print("monitor violations: " + ", ".join(sorted(set(failures))), file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_cy_solve(args) -> int:
    start = time.perf_counter()
    try:
        sc = _load(args)
        problem = build_limit_problem(sc)
        if args.out:  # made now, so that an unusable path fails before the solve
            os.makedirs(args.out, exist_ok=True)
    except InvalidScenarioError as e:
        return _invalid("config", e)
    except OSError as e:
        return _invalid("--out", e)
    core_start = time.perf_counter()
    try:
        U, rep = solve_cy(problem)
    except NewtonConvergenceError as e:
        print(f"solver failed: {e}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except SingularMetricError as e:
        return _inadmissible_limit(e)
    core_end = time.perf_counter()
    print(
        f"converged in {rep.iterations} iterations, residual {rep.final_residual:.3e},"
        f" matvecs {sum(rep.matvecs)}"
    )
    if args.out:
        write_snapshot([("U", U)], os.path.join(args.out, "cy_solution.mkrf"))
        with open(os.path.join(args.out, "newton_report.json"), "w",
                  encoding="utf-8") as fh:
            record = {k: v for k, v in dataclasses.asdict(rep).items() if k != "message"}
            json.dump(dict(record, grid_shape=list(U.grid.shape)), fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_timings(args.out, {"setup_s": core_start - start,
                                  "core_s": core_end - core_start,
                                  "write_s": time.perf_counter() - core_end})
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        return _invalid("--out", e)
    try:
        written = render_report(args.run_dir, args.out)
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    print(f"wrote {len(written)} files")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mkrf",
        description="Flow laboratory for torus Monge-Ampere potential flows "
        "with runtime estimate monitors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario with monitors")
    _add_scenario_args(p_run)
    p_run.add_argument("--out", metavar="DIR", help="run record directory")
    p_run.set_defaults(func=cmd_run)

    p_cls = sub.add_parser("classify", help="print the class-path regime and T")
    _add_scenario_args(p_cls)
    p_cls.add_argument("--json", action="store_true", help="machine-readable output")
    p_cls.set_defaults(func=cmd_classify)

    p_cy = sub.add_parser("cy-solve", help="solve the limit Monge-Ampere equation")
    _add_scenario_args(p_cy)
    p_cy.add_argument("--out", metavar="DIR", help="output directory")
    p_cy.set_defaults(func=cmd_cy_solve)

    p_rep = sub.add_parser("report", help="render SVG plots and a summary for a run")
    p_rep.add_argument("run_dir", metavar="RUN_DIR")
    p_rep.add_argument("--out", metavar="DIR", default=None)
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
