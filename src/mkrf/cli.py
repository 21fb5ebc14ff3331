"""Command line interface: run, classify, cy-solve, report.

Exit codes for `run`: 0 completed with all monitors passing, 2 completed
with monitor violations (listed on stderr), 3 numerical breakdown,
4 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import monitors
from .elliptic import (
    EllipticProblem,
    NewtonConvergenceError,
    solve_cy,
    solve_psi_family,
)
from .flow import run_flow
from .geometry import Regime, compute_T
from .grid import write_snapshot
from .report import render_report, save_run
from .scenario import (
    InvalidScenarioError,
    Scenario,
    build_problem,
    is_finite_number,
    load_scenario,
    matrix_from_rows,
    run_options,
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
    p.add_argument("--seed", type=int, default=None, metavar="U64", help="override seed")


def _load(args) -> Scenario:
    sc = load_scenario(args.preset, args.config)
    if getattr(args, "t_max", None) is not None:
        sc.t_max = args.t_max
        if isinstance(sc.psi_times, list):
            # entries that are not numbers are left for validate to name
            sc.psi_times = [t for t in sc.psi_times
                            if not (is_finite_number(t) and t > sc.t_max)]
    if getattr(args, "grid", None) is not None:
        sc.N = args.grid
    if getattr(args, "seed", None) is not None:
        sc.seed = args.seed
    return sc


def _fmt_T(T: float) -> str:
    return "inf" if math.isinf(T) else f"{T:.6f}"


def cmd_classify(args) -> int:
    try:
        sc = _load(args)
        validate(sc)
        A0 = matrix_from_rows(sc.A0, sc.n, "A0")
        Ainf = matrix_from_rows(sc.Ainf, sc.n, "Ainf")
        path = compute_T(A0, Ainf)
    except (InvalidScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
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
    """How hard one Newton solve worked: iterations and Jacobian applications."""
    return {"iterations": rep.iterations, "matvecs": list(rep.matvecs)}


def cmd_run(args) -> int:
    try:
        sc = _load(args)
        problem = build_problem(sc)
    except InvalidScenarioError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return EXIT_INVALID
    opts = run_options(sc)
    result = run_flow(problem, opts)
    regime = problem.path.regime
    failures = list(result.violations)
    reports = {}
    extra_constants = {}
    extra_fields = []

    if result.status == "breakdown":
        print(f"breakdown: {result.stop_reason}", file=sys.stderr)
        if args.out:
            save_run(args.out, sc, result)
        return EXIT_BREAKDOWN

    if regime == Regime.FINITE_TIME:
        rep = monitors.check_finite_time(result.series, problem.path.T,
                                         problem.grid.n, regime.value)
        reports["finite_time"] = rep
        failures += [c.name for c in rep.checks if not c.passed]
    if regime == Regime.COLLAPSED:
        rep = monitors.check_collapsed(result.series, problem.grid.n,
                                       problem.path.r, sc.t_max, result.C3)
        reports["collapsed"] = rep
        failures += [c.name for c in rep.checks if not c.passed]
        if sc.run_psi_family and sc.psi_times:
            try:
                psis, psi_reports = solve_psi_family(problem, sc.psi_times)
            except (NewtonConvergenceError, ValueError) as e:
                print(f"psi family failed: {e}", file=sys.stderr)
                return EXIT_BREAKDOWN
            sups = [float(np.abs(p.values).max()) for p in psis]
            extra_constants["psi_sup"] = sups
            extra_constants["psi_newton"] = [
                dict(_newton_work(r), t=t) for t, r in zip(sc.psi_times, psi_reports)
            ]
            half = max(1, len(sups) // 2)
            trend_margin = max(sups[:half]) + 0.1 - max(sups[half:] or sups[:half])
            rep.checks.append(monitors.MonitorResult("psi_non_trending", trend_margin, 0.0))
            rep.recompute_status()
            if trend_margin < 0:
                failures.append("psi_non_trending")
            extra_fields += [
                (f"psi_t{t:g}", p) for t, p in zip(sc.psi_times, psis)
            ]
    if regime == Regime.KAHLER_LIMIT:
        from .geometry import KahlerForm

        eprob = EllipticProblem.compatible(
            KahlerForm(problem.path.Ainf, problem.form_inf.phi), problem.omega
        )
        try:
            U, newton_rep = solve_cy(eprob)
        except (NewtonConvergenceError, ValueError) as e:
            print(f"reference elliptic solve failed: {e}", file=sys.stderr)
            return EXIT_BREAKDOWN
        gaps = [
            monitors.convergence_gap(arr, U.values) for _, arr in result.uhat_snaps
        ]
        ts = [t for t, _ in result.uhat_snaps]
        rep = monitors.check_convergence(ts, gaps)
        reports["convergence"] = rep
        failures += [c.name for c in rep.checks if not c.passed]
        extra_constants["newton_residual"] = newton_rep.final_residual
        extra_constants["newton_reference"] = _newton_work(newton_rep)
        extra_fields.append(("U_reference", U))

    if args.out:
        save_run(args.out, sc, result, reports, extra_constants, extra_fields)
        render_report(args.out)

    print(
        f"status={result.status} steps={result.steps} t_final="
        f"{result.constants['t_final']:.6f} wall={result.wall_time:.1f}s"
    )
    if failures:
        print("monitor violations: " + ", ".join(sorted(set(failures))), file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_cy_solve(args) -> int:
    try:
        sc = _load(args)
        problem = build_problem(sc)
    except InvalidScenarioError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return EXIT_INVALID
    from .geometry import KahlerForm

    A = problem.path.Ainf
    if float(np.linalg.eigvalsh(A).min()) <= 0:
        print("invalid config: target class is not positive definite", file=sys.stderr)
        return EXIT_INVALID
    eprob = EllipticProblem.compatible(KahlerForm(A, problem.form_inf.phi), problem.omega)
    try:
        U, rep = solve_cy(eprob)
    except NewtonConvergenceError as e:
        print(f"solver failed: {e}", file=sys.stderr)
        return EXIT_BREAKDOWN
    print(
        f"converged in {rep.iterations} iterations, residual {rep.final_residual:.3e},"
        f" matvecs {sum(rep.matvecs)}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_snapshot([("U", U)], os.path.join(args.out, "cy_solution.mkrf"))
        with open(os.path.join(args.out, "newton_report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(
                {
                    "iterations": rep.iterations,
                    "final_residual": rep.final_residual,
                    "residual_history": rep.residual_history,
                    "damping_history": rep.damping_history,
                    "gauge_offset": rep.gauge_offset,
                    "converged": rep.converged,
                    "linear_rtols": rep.linear_rtols,
                    "matvecs": rep.matvecs,
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
    return EXIT_OK


def cmd_report(args) -> int:
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
