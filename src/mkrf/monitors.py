"""Runtime inequality monitors and post-run regime diagnostics.

Every monitor reports a signed margin; margin >= -tolerance means the
inequality holds.  Margins are pure functions of the data they receive, so
re-evaluation reproduces them bit-exactly and nothing here mutates flow
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL_SUP = 1e-8       # sup bounds on the normalized potential and its rate
TOL_INEQ = 1e-6      # pointwise evolution inequalities
TOL_EXACT = 1e-9
# Damping windows S of the collapsed-regime rate bounds and distances T - t
# of the finite-time blow-down samples; run_flow records the series they read.
S_LIST = (1.0, 3.0, 5.0)
FINITE_TIME_DELTAS = (0.2, 0.1, 0.05)
FINAL_GAP_TOL = 1e-4  # largest final sup-gap to the Kahler-limit reference
STABLE_REL, STABLE_FLOOR = 0.2, 0.02  # resolution stability: relative, absolute


@dataclass
class MonitorResult:
    name: str
    margin: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol


def check_core(t: float, n: int, finite_time: bool, u: np.ndarray, ut: np.ndarray,
               prev_combo_min: float | None, lambda_min: float, positivity_floor: float,
               mean_det: float, class_det: float, class_det0: float) -> tuple[list, float]:
    """Per-step estimates on the normalized potential u and its rate ut at
    time t: sign bounds, the exponential-weight inequality, the finite-time
    chain (finite_time only), monotonicity of the combined rate (after the
    first step), conservation, and metric positivity.

    Returns (results, combo_min): the MonitorResult of each estimate, and
    min(u + ut), the next step's prev_combo_min."""
    results = []

    max_u = float(u.max())
    results.append(MonitorResult("u_hat_nonpos", -max_u, TOL_SUP))
    results.append(MonitorResult("ut_hat_nonpos", -float(ut.max()), TOL_SUP))

    # (e^t - 1) du/dt - n t <= u pointwise
    eq7 = float((u + n * t - np.expm1(t) * ut).min())
    results.append(MonitorResult("eq7", eq7, TOL_INEQ))

    combo = ut + u
    combo_min = float(combo.min())
    if finite_time:
        m1 = float((combo - (math.exp(t) * ut - n * t)).min())
        m2 = -max_u
        results.append(MonitorResult("eq8_chain", m1 if m1 <= m2 else m2, TOL_INEQ))

    if prev_combo_min is not None:
        results.append(
            MonitorResult("combo_monotone", prev_combo_min - combo_min, TOL_INEQ)
        )

    results.append(MonitorResult("conservation", -abs(mean_det - class_det),
                                 TOL_SUP * abs(class_det0)))
    results.append(MonitorResult("positivity", lambda_min - positivity_floor, 0.0))
    return results, combo_min


@dataclass
class RegimeReport:
    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        """"ok", "violations", or "not applicable" for a report without checks."""
        if not self.checks:
            return "not applicable"
        return "ok" if all(c.passed for c in self.checks) else "violations"


def _series_window(ts, values, lo, hi):
    return [v for t, v in zip(ts, values) if lo <= t <= hi and not math.isnan(v)]


def check_finite_time(series: dict, T: float) -> RegimeReport:
    """Volume blow-down trend, bounded weak-limit potential, and the
    integrated volume sandwich for a finite-time run."""
    ts = series["t"]
    checks = []
    constants = {}

    m = {}
    for t, v in zip(ts, series["min_ut_hat"]):
        for d in FINITE_TIME_DELTAS:
            if d not in m and abs(t - (T - d)) < 1e-9:
                m[d] = v
    for d in FINITE_TIME_DELTAS:
        if d not in m:
            return RegimeReport(constants={"missing_delta": d})
    constants.update({f"m_delta_{d}": m[d] for d in FINITE_TIME_DELTAS})
    checks.append(MonitorResult("blowdown_strict_02_01", m[0.2] - m[0.1], 0.0))
    checks.append(MonitorResult("blowdown_strict_01_005", m[0.1] - m[0.05], 0.0))
    checks.append(MonitorResult("blowdown_total_drop", m[0.2] - 1.0 - m[0.05], 0.0))

    min_u = min(series["min_u_hat"])
    constants["min_u_hat"] = min_u
    checks.append(MonitorResult("bounded_potential", min_u + 10.0, 0.0))

    b_F = -min(series["min_F"])
    constants["B_weak_limit"] = b_F
    checks.append(MonitorResult("weak_limit_bound_finite", 1.0 if math.isfinite(b_F) else -1.0, 0.0))

    vol = min(series["margin_vol_sandwich"])
    checks.append(MonitorResult("vol_sandwich", vol, 0.0))

    return RegimeReport(checks, constants)


def check_collapsed(series: dict, r: int, t_end: float, C3: float) -> RegimeReport:
    """Linear growth of the scaled potential, the S-damped rate bounds with
    measured constants, comparison-flow boundedness, and the auxiliary-flow
    proof quantity for a collapsed run that ended at t_end; the last two
    (and the C_shift constants) only when the series has the comparison
    flow's columns."""
    if r < 1:
        raise ValueError("inconsistent regime: collapsed monitoring requires r >= 1")
    ts = np.asarray(series["t"])
    checks = []
    constants = {}

    # (a) least-squares envelope of the running max of max_x v over [5, t_end]
    max_v = np.asarray(series["max_v"])
    runmax = np.maximum.accumulate(max_v)
    sel = ts >= 5.0
    if sel.sum() < 4:
        return RegimeReport(constants={"reason": "run too short"})
    tw, yw = ts[sel], runmax[sel]
    slope, intercept = np.polyfit(tw, yw, 1)
    A = max(float(slope), 0.0)
    C = float(np.max(yw - A * tw))
    constants["A_growth"] = A
    constants["C_growth"] = C
    constants["C_lower_v"] = -float(np.min(series["min_v"]))
    checks.append(MonitorResult("v_linear_growth_finite", 1.0 if math.isfinite(A + C) else -1.0, 0.0))

    # (b) measured C(S) making the S-damped bounds on dv/dt hold over the run
    min_vt = np.asarray(series["min_vt"])
    max_vt = np.asarray(series["max_vt"])
    for S in S_LIST:
        lo_gap = -min_vt - (A / (1.0 - math.exp(-S))) * ts
        hi_gap = max_vt - (A / (math.exp(S) - 1.0)) * ts
        cS = max(float(lo_gap.max()), float(hi_gap.max()), 0.0)
        constants[f"C_S_{S:g}"] = cS
        checks.append(
            MonitorResult(f"C_S_{S:g}_finite", 1.0 if math.isfinite(cS) else -1.0, 0.0)
        )
        qcol = series.get(f"min_q_s{S:g}")
        if qcol is not None:
            qs = [v for v in qcol if not math.isnan(v)]
            if qs:
                constants[f"C_shift_{S:g}"] = -min(qs)

    # late-window damping: max_x dv/dt <= 0.1 t + C with C fixed on the early window
    early = ts <= max(20.0, 0.5 * t_end)
    late = ts > max(20.0, 0.5 * t_end)
    if late.sum() >= 2:
        C_damp = float(np.max(max_vt[early] - 0.1 * ts[early]))
        margin = float(np.min(0.1 * ts[late] + C_damp - max_vt[late]))
        constants["C_damp"] = C_damp
        checks.append(MonitorResult("vt_late_damping", margin, TOL_EXACT))

    if "min_w" in series:
        # (c) comparison flow boundedness across window halves
        half = 0.5 * t_end
        for name in ("w", "wt"):
            lo_sup, hi_sup = (
                max(abs(v) for col in ("min_", "max_")
                    for v in _series_window(ts, series[col + name], lo, hi))
                for lo, hi in ((0.0, half), (half, t_end)))
            constants[f"sup_{name}_early"] = lo_sup
            constants[f"sup_{name}_late"] = hi_sup
            checks.append(MonitorResult(f"{name}_non_trending", lo_sup + 0.1 - hi_sup, 0.0))

        # (d) auxiliary-flow proof quantity stays below its initial maximum -r
        appendix = [v for v in series["margin_appendix_w"] if not math.isnan(v)]
        checks.append(MonitorResult("appendix_w_bound", min(appendix), TOL_INEQ))
        constants["appendix_w_margin"] = min(appendix)

    # consistency of the raw potential window reconstructed from v
    max_u = np.asarray(series["max_u_hat"])
    min_u = np.asarray(series["min_u_hat"])
    shift = 0.5 * r * ts * ts + C3 * ts
    rec_hi = np.asarray(series["max_v"]) - shift
    rec_lo = np.asarray(series["min_v"]) - shift
    ident = max(float(np.abs(max_u - rec_hi).max()), float(np.abs(min_u - rec_lo).max()))
    checks.append(MonitorResult("u_from_v_identity", 1e-9 - ident, 0.0))
    slack = abs(C3) * ts + TOL_INEQ
    hi_margin = float(np.min(C + A * ts - 0.5 * r * ts * ts + slack - max_u))
    lo_margin = float(
        np.min(min_u + 0.5 * r * ts * ts + constants["C_lower_v"] + slack)
    )
    checks.append(MonitorResult("u_window_upper", hi_margin, 0.0))
    checks.append(MonitorResult("u_window_lower", lo_margin, 0.0))

    return RegimeReport(checks, constants)


def convergence_gap(u_hat: np.ndarray, U: np.ndarray) -> float:
    """Sup distance between two potentials modulo an additive constant."""
    diff = u_hat - U
    return float(np.abs(diff - diff.mean()).max())


def check_convergence(ts, gaps) -> RegimeReport:
    """Decreasing sup-gap to the elliptic reference over the final half of a run."""
    checks = []
    constants = {"final_gap": gaps[-1]}
    half_idx = [i for i, t in enumerate(ts) if t >= 0.5 * ts[-1]]
    worst_increase = 0.0
    for a, b in zip(half_idx[:-1], half_idx[1:]):
        worst_increase = max(worst_increase, gaps[b] - gaps[a])
    checks.append(MonitorResult("gap_decreasing_final_half", -worst_increase, TOL_EXACT))
    checks.append(MonitorResult("gap_final", FINAL_GAP_TOL - gaps[-1], 0.0))
    return RegimeReport(checks, constants)


def stable_within(a: float, b: float) -> bool:
    """Resolution-stability comparison with an absolute floor for tiny constants."""
    return abs(a - b) <= STABLE_REL * max(abs(a), abs(b)) + STABLE_FLOOR
