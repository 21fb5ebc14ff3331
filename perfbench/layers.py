"""Per-layer metrics derived from the spans of one traced invocation.

A span's self time is its duration minus the time its direct children
cover.  Names follow ``spans.py``: ``<caller>.<function>``.
"""

from __future__ import annotations

from collections import defaultdict

# (metric name, unit) in the order they are reported, each group with the
# end-to-end metric and workload it should move
PER_LAYER = [
    # grid: solve_s on collapsed-n16 and cy-n24; kahler-n64 unchanged
    ("grid.hessian.calls.flow", "count"), ("grid.hessian.s.flow", "s"),
    ("grid.hessian.bytes.flow", "B_computed"),
    ("grid.hessian.calls.elliptic", "count"), ("grid.hessian.s.elliptic", "s"),
    ("grid.hessian.bytes.elliptic", "B_computed"),
    ("grid.forward.calls.flow", "count"), ("grid.forward.s.flow", "s"),
    ("grid.forward.calls.elliptic", "count"), ("grid.forward.s.elliptic", "s"),
    ("grid.inverse.calls.flow", "count"), ("grid.inverse.s.flow", "s"),
    ("grid.inverse.calls.elliptic", "count"), ("grid.inverse.s.elliptic", "s"),
    # geometry: solve_s on cy-n24 and finite-n16
    ("geometry.flow.s", "s"), ("geometry.elliptic.s", "s"),
    # flow: solve_s on the three flow workloads, self time most on kahler-n64;
    # cy-n24 unchanged
    ("flow.steps", "count"), ("flow.halvings", "count"), ("flow.accept_ratio", "ratio"),
    ("flow.rhs_evals", "count"), ("flow.evals_per_step", "evals/step"),
    ("flow.ms_per_step", "ms"), ("flow.rho_probe.s", "s"), ("flow.self_s", "s"),
    # monitors: solve_s and run_s on kahler-n64
    ("monitors.check_core.calls", "count"), ("monitors.check_core.s", "s"),
    ("monitors.regime.s", "s"),
    # elliptic: solve_s and peak_rss_mb on cy-n24, run_s on collapsed-n16;
    # finite-n16 unchanged
    ("elliptic.newton_iters", "count"), ("elliptic.matvecs", "count"),
    ("elliptic.line_search_trials", "count"), ("elliptic.lgmres.s", "s"),
    ("elliptic.lgmres.self_s", "s"), ("elliptic.solve_s", "s"),
    # scenario and cli: setup_s
    ("scenario.build_s", "s"), ("cli.import_s", "s"),
    # report: run_s on kahler-n64
    ("report.save_s", "s"), ("report.render_s", "s"), ("report.bytes_written", "B"),
    ("trace.overhead_s", "s"),
    ("fail_ratio", "ratio"),
]

# the geometry calls flow makes only inside its measured_rho step-size probe
RHO_PROBE = ("flow.matrix_sqrt_hermitian", "flow.inverse_components",
             "flow.congruence_components", "flow.spectral_radius_diff")
REGIME_CHECKS = ("monitors.check_finite_time", "monitors.check_collapsed",
                 "monitors.check_convergence", "monitors.convergence_gap")


class SpanTable:
    """Per-name call count, total, self time and summed extra of a record."""

    def __init__(self, record):
        names = [n for n, _ in record["names"]]
        self.callee = {n: c for n, c in record["names"]}
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name_idx, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        for i, (name_idx, start, end, parent, extra) in enumerate(spans):
            name = names[name_idx]
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += end - start - covered[i]
            if extra is not None:
                self.extra[name] += extra

    def sum(self, table, names):
        return sum(table[n] for n in names)

    def callee_self(self, caller, layer):
        return sum(s for n, s in self.self_s.items()
                   if n.startswith(caller + ".") and self.callee[n] == layer)


def _ratio(num, den):
    return num / den if den else 0.0


def derive(record, run_constants, bytes_written):
    """Per-layer metrics of one traced invocation.

    ``run_constants`` is the ``constants`` block of the run's constants.json
    (empty for cy-solve); ``bytes_written`` is the size of its --out tree.
    """
    t = SpanTable(record)
    m = {}
    for caller in ("flow", "elliptic"):
        h = f"{caller}.hessian_components"
        m[f"grid.hessian.calls.{caller}"] = t.calls[h]
        m[f"grid.hessian.s.{caller}"] = t.total[h]
        m[f"grid.hessian.bytes.{caller}"] = t.extra[h]
        for op in ("forward", "inverse"):
            m[f"grid.{op}.calls.{caller}"] = t.calls[f"{caller}.{op}"]
            m[f"grid.{op}.s.{caller}"] = t.total[f"{caller}.{op}"]
        m[f"geometry.{caller}.s"] = t.callee_self(caller, "geometry")

    steps = int(run_constants.get("steps", 0))
    halvings = int(run_constants.get("halvings", 0))
    rhs = t.calls["flow._eval_flow"]
    m["flow.steps"] = steps
    m["flow.halvings"] = halvings
    m["flow.accept_ratio"] = _ratio(steps, steps + halvings)
    m["flow.rhs_evals"] = rhs
    m["flow.evals_per_step"] = _ratio(rhs, steps)
    m["flow.ms_per_step"] = _ratio(1e3 * t.total["cli.run_flow"], steps)
    m["flow.rho_probe.s"] = t.sum(t.total, RHO_PROBE)
    m["flow.self_s"] = t.self_s["cli.run_flow"]

    m["monitors.check_core.calls"] = t.calls["monitors.check_core"]
    m["monitors.check_core.s"] = t.total["monitors.check_core"]
    m["monitors.regime.s"] = t.sum(t.total, REGIME_CHECKS)

    solves = ("cli.solve_cy", "elliptic.solve_cy")
    m["elliptic.newton_iters"] = int(t.sum(t.extra, solves))
    m["elliptic.matvecs"] = t.calls["elliptic.trace_pair_components"]
    # every _frame_state call but the first of each solve is a line-search trial
    m["elliptic.line_search_trials"] = (t.calls["elliptic._frame_state"]
                                        - t.sum(t.calls, solves))
    m["elliptic.lgmres.s"] = t.total["elliptic.lgmres"]
    m["elliptic.lgmres.self_s"] = t.self_s["elliptic.lgmres"]
    m["elliptic.solve_s"] = t.sum(t.total, ("cli.solve_cy", "cli.solve_psi_family"))

    m["scenario.build_s"] = t.sum(t.total, ("cli.load_scenario", "cli.build_problem"))
    m["cli.import_s"] = record["import_s"]
    m["report.save_s"] = t.sum(t.total, ("cli.save_run", "cli.write_snapshot"))
    m["report.render_s"] = t.total["cli.render_report"]
    m["report.bytes_written"] = bytes_written
    return m
