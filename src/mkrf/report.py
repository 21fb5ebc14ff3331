"""Run persistence and reporting: CSV series, SVG line plots, summaries.

Float columns are serialized with repr(), which round-trips exactly, so a
re-run of an identical scenario produces a byte-identical CSV and re-running
the report on the same CSV produces byte-identical SVG.
"""

from __future__ import annotations

import json
import math
import os

from .grid import write_snapshot

# size of every SVG plot, in pixels
PLOT_WIDTH, PLOT_HEIGHT = 640, 400
# side file of phase wall times, kept out of the deterministic record
TIMINGS_FILE = "timings.json"


def format_float(v: float) -> str:
    return repr(float(v))


def write_csv(columns, series, path) -> None:
    lines = [",".join(columns)]
    nrows = len(series[columns[0]])
    for i in range(nrows):
        lines.append(",".join(format_float(series[c][i]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise ValueError(f"empty CSV: {path}")
    columns = lines[0].split(",")
    series = {c: [] for c in columns}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"ragged CSV row in {path}")
        for c, p in zip(columns, parts):
            series[c].append(float(p))
    return columns, series


def svg_line_plot(xs, ys, title: str) -> str:
    """Minimal deterministic SVG 1.1 line plot (time series)."""
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    ml, mr, mt, mb = 60, 15, 30, 40
    pw, ph = width - ml - mr, height - mt - mb
    pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    if pts:
        x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
        y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
        if x1 - x0 <= 0:
            x1 = x0 + 1.0
        if y1 - y0 <= 0:
            y0, y1 = y0 - 1.0, y1 + 1.0

        def px(x):
            return ml + pw * (x - x0) / (x1 - x0)

        def py(y):
            return mt + ph * (1.0 - (y - y0) / (y1 - y0))

        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f5fd0" stroke-width="1.2"/>'
        )
        labels = [
            (ml, height - 12, "start", f"{x0:.6g}"),
            (width - mr, height - 12, "end", f"{x1:.6g}"),
            (ml - 5, mt + ph, "end", f"{y0:.6g}"),
            (ml - 5, mt + 10, "end", f"{y1:.6g}"),
        ]
        for x, y, anchor, text in labels:
            parts.append(
                f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="monospace" '
                f'font-size="11">{text}</text>'
            )
    else:
        parts.append(
            f'<text x="{width // 2}" y="{height // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">no finite data</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_run(out_dir, scenario, result, regime_reports=None, extra_constants=None,
             extra_fields=None):
    """Persist a run directory: scenario copy, CSV series, constants, snapshots.

    The directory contents are sufficient to re-evaluate every monitor
    offline: the full per-step series plus the final field snapshots.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        fh.write(scenario.to_json())
        fh.write("\n")
    write_csv(result.columns, result.series, os.path.join(out_dir, "series.csv"))

    constants = dict(result.constants)
    constants["status"] = result.status
    constants["stop_reason"] = result.stop_reason
    constants["violations"] = list(result.violations)
    constants["wall_time_s"] = result.wall_time
    if extra_constants:
        constants.update(extra_constants)
    reports_json = {}
    if regime_reports:
        for name, rep in regime_reports.items():
            reports_json[name] = {
                "status": rep.status,
                "constants": rep.constants,
                "checks": [
                    {"name": c.name, "margin": c.margin, "tol": c.tol, "passed": c.passed}
                    for c in rep.checks
                ],
            }
    record = {"constants": constants, "reports": reports_json,
              "step_control": result.step_control}
    with open(os.path.join(out_dir, "constants.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    fields = list(result.final.items()) + list(extra_fields or ())
    write_snapshot(fields, os.path.join(out_dir, "final.mkrf"))
    return out_dir


def write_timings(out_dir, timings: dict) -> None:
    """Write the phase wall times (seconds by phase name) of a command."""
    with open(os.path.join(out_dir, TIMINGS_FILE), "w", encoding="utf-8") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_report(run_dir, out_dir=None) -> list:
    """Emit one SVG per monitored scalar column plus a text summary.

    Pure function of the CSV, the constants file and, when present, the
    phase timings side file; byte-identical on re-run.
    """
    out_dir = out_dir or run_dir
    csv_path = os.path.join(run_dir, "series.csv")
    if not os.path.exists(csv_path):
        raise FileNotFoundError(f"no series.csv in {run_dir}")
    columns, series = read_csv(csv_path)
    ts = series["t"]
    written = []
    os.makedirs(out_dir, exist_ok=True)
    for col in columns:
        if col == "t":
            continue
        svg = svg_line_plot(ts, series[col], col)
        path = os.path.join(out_dir, f"plot_{col}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
        written.append(path)

    const_path = os.path.join(run_dir, "constants.json")
    lines = [f"run: {run_dir}", f"rows: {len(ts)}",
             f"t range: {ts[0]:.6g} .. {ts[-1]:.6g}", ""]
    if os.path.exists(const_path):
        with open(const_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        constants = data.get("constants", {})
        solves = ([("reference", constants.pop("newton_reference"))]
                  if "newton_reference" in constants else [])
        solves += [(f"psi t={s['t']:g}", s) for s in constants.pop("psi_newton", [])]
        lines.append("measured constants:")
        for k in sorted(constants):
            lines.append(f"  {k} = {constants[k]}")
        if solves:
            lines.append("newton solves:")
            for label, s in solves:
                start = f", start {s['start']}" if "start" in s else ""
                lines.append(f"  {label}: {s['iterations']} iterations,"
                             f" {sum(s['matvecs'])} matvecs {s['matvecs']}{start}")
                if s.get("linear_residuals"):
                    lines.append("    linear residuals: " + " ".join(
                        "-" if r is None else f"{r:.2e}" for r in s["linear_residuals"]))
                for c in s.get("coarse_levels", []):
                    failed = "" if c["converged"] else ", failed"
                    lines.append(f"    coarse N={c['N']}: {c['iterations']} iterations,"
                                 f" {sum(c['matvecs'])} matvecs {c['matvecs']}{failed}")
        control = data.get("step_control")
        if control:
            lines.append("step control:")
            lines.append(f"  accepted = {control['accepted']}")
            lines.append(f"  error rejections = {control['rejections']}")
            lines.append(f"  largest accepted error = {control['max_error']:.6g}"
                         f" (tol {control['tol']:.6g})")
            lines.append("  dt set by: " + ", ".join(
                f"{k} {v}" for k, v in sorted(control["limits"].items())))
        for name in sorted(data.get("reports", {})):
            rep = data["reports"][name]
            lines.append(f"report {name}: {rep['status']}")
            for c in rep["checks"]:
                flag = "pass" if c["passed"] else "FAIL"
                lines.append(f"  [{flag}] {c['name']}: margin={c['margin']:.6g}")
    timings_path = os.path.join(run_dir, TIMINGS_FILE)
    if os.path.exists(timings_path):
        with open(timings_path, "r", encoding="utf-8") as fh:
            timings = json.load(fh)
        lines.append("phase wall times:")
        lines += [f"  {k} = {v:.3f}" for k, v in sorted(timings.items())]
    summary = os.path.join(out_dir, "summary.txt")
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    written.append(summary)
    return written
