"""Time integration of the potential flows with runtime estimate monitoring.

Three companion flows share one engine:

  raw         du/dt = log(det(A_t + H[phi_t + u]) / h)
  scaled      dv/dt = raw RHS + r t            (v = u + r t^2 / 2)
  comparison  dw/dt = scaled RHS at w - w      (normalized auxiliary flow)

The integrated variable is the full potential p = phi_t + (u or v or w) in
spectral form; its evolution adds the explicit drift of phi_t to the flow
RHS.  The stepper is classical RK4 wrapped in an exact integrating factor
for the constant-coefficient part of the flow Laplacian (the spatial mean of
the metric, which on the torus is exactly the pencil matrix A_t): a Lawson
RK4 step.

The integrating factor is what makes long collapsed runs affordable: the
stiffness of the mean metric grows like e^t while the mean-relative metric
variation stays small, so the exact exponential absorbs the stiff part and
the step size is set by the local error, not by the degenerating eigenvalue.
Integrating the full potential keeps the damped directions centered on their
true (fiber-flat) equilibrium instead of zero.

The spatially constant class forcing c(t) = log det(A_t) + r t of the u/v
flows is integrated exactly: the RK stages see the RHS minus c(t), and each
step adds the integral of c over the step to the mean mode, which no other
term feeds back into (the Hessian ignores it, and its Lawson factor is 1).
Before a finite singular time T, det(A_t) vanishes like T - t, so c is
log-singular there; in sigma = log(T - s) the integrand is analytic and
Gauss-Legendre quadrature is exact to round-off.  The comparison flow damps
its mean mode and keeps the (smooth) forcing in its RHS.

Step sizes come from an embedded order-3 estimate of each step's local
error, (dt/10)(k4 - k5) with k5 the (Lawson-frame) RHS at the new point.
run_flow evaluates that RHS anyway to record the step and to seed the next
one's first stage, so the estimate costs no RHS evaluation.  Each step
retries in one loop: a positivity loss in any evaluation of an attempt
(stage or new point) halves dt, at most MAX_HALVINGS times, and a sup bound
of the estimate over the lockstep flows above STEP_TOL scales it, as the
accepted one scales the next dt, by 0.9 (STEP_TOL / err)^(1/4) clipped to
[0.2, 5] (to at most 1 after a step that was halved); dt_cap and the event
grid bound it too.  No separate stability bound is needed: where the
non-constant remainder of the Laplacian is stiff, rejected steps hold dt at
the controller's stability boundary.

run_flow keeps time on one clock, the index k of the grid point k SNAP_DT
(_grid_index, the one place t meets the grid): a step that lands on its
next event (grid point k + 1, a finite-time sample T - d or t_max) up to
round-off ends there and takes its index, None off the grid.

The collapsed-regime monitors read the comparison flow at lagged times
through q_S = (1 - e^S) dv/dt(t) + v(t) - w(t - S), S in monitors.S_LIST.
The lag history maps k to (time, w) at grid point k; a lookup at t - S
interpolates linearly between k = idx(t - S) and k + 1.  Snapshot k is kept
only while some lag can still read it from a record time up to t_max:
idx(t - S) <= k <= idx(t_max - S) + 1 (_lag_window).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import monitors
from .geometry import (
    POSITIVITY_EPS,
    KahlerForm,
    Regime,
    SingularMetricError,
    VolumeDensity,
    compute_T,
    constant_components,
    det_components,
    diagonal_and_det,
    lambda_min_components,
    metric_rows,
    positive_components,
    singular_metric_error,
    trace_pair_components,
)
from .grid import (GridSpec, ScalarField, forward, hessian_components, hessian_rows, inverse,
                   sup_bound, tables)

MAX_HALVINGS = 20
# Local error allowed per accepted step: the sup bound of the embedded
# estimate, over all lockstep flows, at the monitors' inequality tolerance.
STEP_TOL = monitors.TOL_INEQ
# Gauss-Legendre order of the class-forcing integral over one step; its
# integrand is analytic in the integration variable, so this leaves round-off.
FORCING_NODES = 24
# Event grid and comparison-flow snapshot cadence; the Kahler-limit
# convergence monitor reads a potential snapshot at every fifth grid point.
SNAP_DT = 0.1
# A finite-time run stops this far short of T, as a singularity stop.
STOP_MARGIN = 1e-3


class FlowBreakdownError(Exception):
    """Non-finite numbers appeared in the state; fatal."""


# ---------------------------------------------------------------------------
# Problem bundle


class FlowProblem:
    """Assembled flow data: class path, reference potentials, volume density,
    and the work buffers of its RHS evaluations (one problem runs one flow
    evaluation at a time)."""

    def __init__(self, form0: KahlerForm, form_inf: KahlerForm, omega: VolumeDensity):
        self.grid: GridSpec = form0.grid
        if form_inf.grid != self.grid or omega.grid != self.grid:
            raise ValueError("forms and density must share one grid")
        self.omega = omega
        self.path = compute_T(form0.A, form_inf.A)
        self.tables = tables(self.grid)
        self.phi0_phys = form0.phi.values.copy()
        self.phi_inf_phys = form_inf.phi.values.copy()
        self.phi0_hat = forward(self.phi0_phys)
        self.phi_inf_hat = forward(self.phi_inf_phys)
        self.drift_hat = self.phi_inf_hat - self.phi0_hat  # d/dt phi_t = e^{-t} drift
        self.log_h = np.log(omega.h.values)
        self.class_det0 = float(np.linalg.det(self.path.A0).real)
        self.workspace = _Workspace(self.grid, self.tables)
        # admissibility: raises SingularMetricError unless the t = 0 form is a metric
        self.C3 = normalization_constant(self)

    @property
    def scaled_r(self) -> int:
        return self.path.r if self.path.regime == Regime.COLLAPSED else 0

    def A_t(self, t: float) -> np.ndarray:
        return self.path.A_t(t)

    def phi_t_hat(self, t: float, out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
        """Spectral phi_t; out receives the result and work holds the second
        term (either may be None to allocate)."""
        w = math.exp(-t)
        res = np.multiply(w, self.phi0_hat, out=out)
        res += np.multiply(1.0 - w, self.phi_inf_hat, out=work)
        return res

    def phi_t_phys(self, t: float) -> np.ndarray:
        w = math.exp(-t)
        return w * self.phi0_phys + (1.0 - w) * self.phi_inf_phys

    def hessian_rows(self, coeffs: np.ndarray):
        """The Hessian rows of coeffs, one at a time through the workspace's
        one-row product buffer (grid.hessian_rows)."""
        ws = self.workspace
        return hessian_rows(hessian_components, self.grid, coeffs, ws.stencil, ws.prod)

    def laplace_symbol(self, t: float) -> np.ndarray:
        inv = np.linalg.inv(self.A_t(t))
        return self.tables.laplacian_symbol(inv)

    def _stage_constants(self, t: float) -> tuple:
        """(A_t, positivity floor, e^{-t}, det(A_t), log det(A_t)) at t."""
        A = self.A_t(t)
        det = float(np.linalg.det(A).real)
        # past T no metric passes the positivity test, so -inf is unused
        log_det = math.log(det) if det > 0.0 else -math.inf
        floor = POSITIVITY_EPS * min(1.0, max(float(np.linalg.eigvalsh(A).min()), 0.0))
        return A, floor, math.exp(-t), det, log_det


class _Workspace:
    """Preallocated scratch of one problem's RHS evaluations and RK stages.

    Everything an evaluation or a step returns is a fresh array; these
    buffers only carry temporaries between the in-place operations.  The
    Hessian is made one row at a time (FlowProblem.hessian_rows), so the
    stencil product takes one row here; the metric is made in the rows
    the transform returns.
    """

    def __init__(self, grid: GridSpec, tabs):
        spec = tabs.rshape
        self.stencil = tabs.symbols()  # the Hessian symbols, rows that broadcast
        self.prod = np.empty((1,) + spec, dtype=np.complex128)  # one row's stencil product
        self.work = np.empty(grid.shape)  # positivity test, log density
        self.spec = np.empty(spec, dtype=np.complex128)  # spectral temporaries
        self.spec2 = np.empty(spec, dtype=np.complex128)
        self.stage = np.empty(spec, dtype=np.complex128)  # RK stage argument
        self.k1 = np.empty(spec, dtype=np.complex128)
        self.E1 = np.empty(spec)  # Lawson integrating factors
        self.E2 = np.empty(spec)
        self.err = np.empty(spec)  # moduli of the embedded error estimate


@dataclass
class EvalResult:
    F_hat: np.ndarray
    rhs_phys: np.ndarray | None = None   # log-density RHS (+ r t), no damping term
    # the u/v flow's metric diagonal (g11,) / (g11, g22) and determinant,
    # which record reads; None for the comparison flow, whose metric
    # nothing reads
    comps: tuple | None = None
    det: np.ndarray | None = None
    pot_phys: np.ndarray | None = None   # full potential phi_t + field


def _eval_flow(problem: FlowProblem, p_hat: np.ndarray, t: float, r: int,
               comparison: bool, full: bool = False) -> EvalResult:
    """Evaluate the full-potential RHS in spectral form, checking positivity.

    p_hat is the spectral full potential.  For the u/v flows F_hat leaves
    out the class forcing c(t) = log det(A_t) + r t, which _lawson_rk4
    integrates exactly; rhs_phys keeps it.  full=True additionally
    materializes the physical RHS and the physical potential for
    monitoring, and for the u/v flow (comparison False) the metric diagonal
    and the density that record reads.  The Hessian rows are made and
    consumed one at a time (geometry.diagonal_and_det), so the evaluation
    holds at most four grid rows and one row of transform work.  Every
    array in the result is owned by it; the problem's workspace only holds
    temporaries.  A non-finite state raises FlowBreakdownError, a metric
    below the positivity floor SingularMetricError.
    """
    grid = problem.grid
    ws = problem.workspace
    A, floor, decay, _, log_det = problem._stage_constants(t)
    diag, det = diagonal_and_det(A, problem.hessian_rows(p_hat), grid.n)
    if not positive_components(diag, det, floor, work=ws.work):
        # a non-finite state fails the test too; NaN anywhere makes the min NaN
        if not math.isfinite(float(det.min())):
            raise FlowBreakdownError(f"non-finite state at t={t:.6f}")
        raise singular_metric_error(diag, det, t)
    if not full:
        rhs = np.log(det, out=ws.work)
        diag = det = None
    elif comparison:
        # nothing reads the comparison flow's metric: the RHS takes its row
        rhs = np.log(det, out=det)
        diag = det = None
    else:
        rhs = np.log(det)
    rhs -= problem.log_h
    if r:
        rhs += r * t
    F_hat = forward(rhs)
    if not comparison:
        # the class forcing is integrated exactly by _lawson_rk4
        F_hat[(0,) * F_hat.ndim] -= grid.num_points * (log_det + r * t)
    F_hat += np.multiply(decay, problem.drift_hat, out=ws.spec)
    if comparison:
        phi_t = problem.phi_t_hat(t, out=ws.spec, work=ws.spec2)
        F_hat -= np.subtract(p_hat, phi_t, out=phi_t)
    if not full:
        return EvalResult(F_hat)
    return EvalResult(F_hat, rhs, diag, det, inverse(grid, p_hat))


def _lawson_rk4(problem: FlowProblem, y: np.ndarray, t: float, dt: float, r: int,
                comparison: bool, F0: np.ndarray, ell: np.ndarray) -> tuple:
    """One Lawson (integrating factor) RK4 step.

    Returns (y1, d).  y1 is the new state.  d = k4 + ell y1 is the part of
    the embedded error estimate this step knows: with F1 the RHS at
    (y1, t + dt), k5 = F1 - ell y1 and the estimate is
    (dt/10)(k4 - k5) = (dt/10)(d - F1).  The embedded weights
    (1/6, 1/3, 1/3, 1/15, 1/10) are order 3; in the Lawson frame stages 4
    and 5 carry the same factor e^{-dt ell}, which cancels on the way back.

    F0 is the already-evaluated RHS at (y, t), so the first stage costs no
    evaluation; it is only read.  ell is the flow's linear symbol at the
    step's midpoint: the Laplacian symbol at t + dt/2, less 1 for the
    comparison flow; it is only read.  The stage combinations run in place
    in the problem's workspace and in the stage RHS arrays; y1 and d are
    the (fresh) stage-2 and stage-4 RHS arrays.
    """
    ws = problem.workspace
    E2 = np.multiply(0.5 * dt, ell, out=ws.E2)
    np.exp(E2, out=E2)
    E1 = np.multiply(E2, E2, out=ws.E1)

    def N(z, tau):
        F = _eval_flow(problem, z, tau, r, comparison).F_hat
        F -= np.multiply(ell, z, out=ws.spec)
        return F

    k1 = np.subtract(F0, np.multiply(ell, y, out=ws.k1), out=ws.k1)
    h = 0.5 * dt
    z = ws.stage
    tmp = ws.spec
    # z = E2 (y + h k1)
    np.multiply(h, k1, out=z)
    np.add(y, z, out=z)
    k2 = N(np.multiply(E2, z, out=z), t + h)
    # z = E2 y + h k2
    np.multiply(E2, y, out=z)
    z += np.multiply(h, k2, out=tmp)
    k3 = N(z, t + h)
    # z = E1 y + dt (E2 k3)
    np.multiply(E1, y, out=z)
    np.multiply(E2, k3, out=tmp)
    tmp *= dt
    z += tmp
    k4 = N(z, t + dt)
    # E1 y + (dt/6) (E1 k1 + 2 (E2 (k2 + k3)) + k4)
    k2 += k3
    np.multiply(E2, k2, out=k2)
    k2 *= 2.0
    k2 += np.multiply(E1, k1, out=tmp)
    k2 += k4
    k2 *= dt / 6.0
    k2 += np.multiply(E1, y, out=tmp)
    k4 += np.multiply(ell, k2, out=tmp)
    if not comparison:
        # the class forcing integrated over the step, into the mean mode
        k2[(0,) * k2.ndim] += problem.grid.num_points * _forcing_integral(problem, t, dt, r)
    return k2, k4


@functools.cache
def _gauss_legendre() -> tuple:
    """Nodes and weights of the FORCING_NODES-point Gauss-Legendre rule.

    Newton's method on the Legendre recurrence; numpy's leggauss runs an
    eigensolver, and the LAPACK code it and np.linalg.det pull in raised
    the peak RSS of a collapsed run by about 0.9 MiB.
    """
    m = FORCING_NODES
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(10):  # converges quadratically from this guess
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (x * p1 - p0) / (x * x - 1.0)  # P_m'(x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _forcing_integral(problem: FlowProblem, t: float, dt: float, r: int) -> float:
    """Integral of the class forcing c(s) = log det(A_s) + r s over [t, t + dt].

    Before a finite singular time T, det(A_s) vanishes like T - s, and in
    sigma = log(T - s) the integrand c(T - e^sigma) e^sigma is analytic, so
    Gauss-Legendre there is exact to round-off up to the step that ends
    just short of T.  With T infinite, c is smooth and the rule runs in s.
    """
    x, w = _gauss_legendre()
    path = problem.path
    T = path.T
    if math.isfinite(T):
        lo, hi = math.log(T - t - dt), math.log(T - t)
        half = 0.5 * (hi - lo)
        gap = np.exp(0.5 * (hi + lo) + half * x)  # T - s at the nodes
        s = T - gap
        weights = (half * w) * gap
    else:
        s = t + (0.5 * dt) * (x + 1.0)
        weights = (0.5 * dt) * w
    n = problem.grid.n
    e = np.exp(-s)
    # A_s = Ainf + e^{-s} (A0 - Ainf), in components at the nodes
    comps = tuple(a + e * b for a, b in zip(constant_components(path.Ainf, n),
                                             constant_components(path.A0 - path.Ainf, n)))
    c = np.log(det_components(comps)) + r * s
    return float((weights * c).sum())


def _embedded_error(problem: FlowProblem, d: np.ndarray, F1: np.ndarray,
                    dt: float) -> float:
    """Sup bound of the estimate (dt/10)(d - F1) of one step (see _lawson_rk4).

    d is consumed.
    """
    d -= F1
    return 0.1 * dt * sup_bound(problem.grid, d, problem.workspace.err)


def normalization_constant(problem: FlowProblem) -> float:
    """Shift constant C3 from the t=0 data.

    C3 = max( max_x du/dt|0 , max_x [Lap(du/dt) - <metric0, omega0 - omegainf>
    + du/dt]|0 ); the monitored potential u - C3 t then has nonpositive value
    and rate along the flow.

    The pairings need all four rows of the t = 0 metric, so they are kept;
    they are also the problem's admissibility check, which raises
    SingularMetricError unless they are a metric.  Every other Hessian is
    made one row at a time and consumed in order by its pairing.
    """
    n = problem.grid.n
    path = problem.path
    A = problem._stage_constants(0.0)[0]  # A_t at 0, up to round-off A0, as the flow has it
    metric0 = tuple(metric_rows(A, problem.hessian_rows(problem.phi0_hat), n))
    det0 = det_components(metric0)
    if not positive_components(metric0, det0):
        raise singular_metric_error(metric0[:2], det0, 0.0)
    udot0 = np.log(det0)
    udot0 -= problem.log_h
    lap = trace_pair_components(metric0, problem.hessian_rows(forward(udot0)), det0)
    # the rows of A0 - Ainf + H[phi0 - phi_inf], made as they are read
    diff_rows = metric_rows(path.A0 - path.Ainf, problem.hessian_rows(-problem.drift_hat), n)
    pairing = trace_pair_components(metric0, diff_rows, det0)
    second = lap - pairing + udot0
    return max(float(udot0.max()), float(second.max()))


# ---------------------------------------------------------------------------
# Full runs


@dataclass
class RunResult:
    status: str
    stop_reason: str
    series: dict
    constants: dict
    violations: list
    final: dict
    uhat_snaps: list
    step_control: dict


def _grid_index(t: float) -> int:
    """The index of the last grid point at t or before, up to round-off."""
    return math.floor(t / SNAP_DT + 1e-9)


def _lag_window(t: float, t_max: float) -> list:
    """Per lag S, the snapshot indices its lookups at t' - S read from the
    record times t' in [t, t_max]: idx(t' - S) and the one after."""
    return [range(_grid_index(t - S), _grid_index(t_max - S) + 2) for S in monitors.S_LIST]


def _lag_lookup(history: dict, t_query: float):
    """w at t_query from the lag history: snapshot k = idx(t_query) on an
    exact hit, else the linear interpolation between snapshots k and k + 1,
    None when either is missing (a gap is never interpolated across)."""
    k = _grid_index(t_query)
    lo, hi = history.get(k), history.get(k + 1)
    if lo is not None and lo[0] == t_query:
        return lo[1]
    if lo is None or hi is None:
        return None
    (t0, a0), (t1, a1) = lo, hi
    lam = (t_query - t0) / (t1 - t0)
    return (1.0 - lam) * a0 + lam * a1


def run_flow(problem: FlowProblem, t_max: float, run_comparison: bool,
             dt_cap: float) -> RunResult:
    """Integrate from t=0 with adaptive steps of at most dt_cap, invoking
    monitors each step; a collapsed run with run_comparison integrates the
    comparison flow in lockstep.

    Stops at t_max (a finite-time run at T - STOP_MARGIN at the latest, a
    singularity stop once there) or on positivity loss past the halvings of
    one step; monitor violations are recorded, never fatal.
    """
    grid = problem.grid
    path = problem.path
    regime = path.regime
    r = problem.scaled_r
    n = grid.n
    T = path.T
    samples = []  # finite-time sample times, events besides the grid and t_max
    window = t_max >= T - STOP_MARGIN  # the run ends at the approach window
    if regime == Regime.FINITE_TIME:
        t_max = min(t_max, T - STOP_MARGIN)
        samples = [T - d for d in monitors.FINITE_TIME_DELTAS]
    C3 = problem.C3

    run_w = run_comparison and regime == Regime.COLLAPSED
    # only the Kahler-limit convergence monitor consumes potential snapshots
    collect_snaps = regime == Regime.KAHLER_LIMIT

    series = {}  # column -> values; the columns are the keys of record's rows

    t = 0.0
    k_t = 0  # the snapshot index of t, None off the grid
    dt_last = 0.0
    dt_err = math.inf  # the error controller's proposal; the first step takes the cap
    prev_combo = None
    violations = set()  # the names of the per-step monitors that failed
    steps = 0
    halvings_total = 0
    rejections = 0
    max_err = 0.0
    # which bound set each accepted dt: that of its last retry, if any
    limits = dict.fromkeys(("error", "dt_cap", "event", "positivity"), 0)
    w_lags = {}  # the lag history: snapshot index -> (time, w)
    lag_snapshots_max = 0
    uhat_snaps = []
    # the lockstep flows by their comparison flag, the u/v flow first; ys
    # and evs hold each one's spectral state and its full evaluation there
    flows = (False, True) if run_w else (False,)
    ys = [problem.phi0_hat for _ in flows]  # read only, as every state is
    evs = [_eval_flow(problem, y, t, r, comparison, full=True)
           for y, comparison in zip(ys, flows)]

    def uv_fields():
        """phi_t and the u/v flow's v, u_hat and ut_hat at t."""
        phi_t = problem.phi_t_phys(t)
        shift = 0.5 * r * t * t + C3 * t
        v_phys = evs[0].pot_phys - phi_t
        return phi_t, v_phys, v_phys - shift, evs[0].rhs_phys - (r * t + C3)

    def w_fields(phi_t):
        """The comparison flow's w and its rate at t."""
        w_phys = evs[1].pot_phys - phi_t
        return w_phys, evs[1].rhs_phys - w_phys

    def record(dt_used):
        nonlocal prev_combo, lag_snapshots_max
        ev = evs[0]
        phi_t, v_phys, u_hat, ut_hat = uv_fields()
        lam_min = float(lambda_min_components(ev.comps, ev.det).min())
        mean_det = float(np.mean(ev.det))
        _, floor, _, class_det, _ = problem._stage_constants(t)
        results, prev_combo = monitors.check_core(
            t, n, regime == Regime.FINITE_TIME, u_hat, ut_hat, prev_combo,
            lam_min, floor, mean_det, class_det, problem.class_det0)
        m = {res.name: res.margin for res in results}
        row = {
            "t": t, "dt": dt_used,
            "min_u_hat": float(u_hat.min()), "max_u_hat": float(u_hat.max()),
            "min_ut_hat": float(ut_hat.min()), "max_ut_hat": float(ut_hat.max()),
            "lambda_min_metric": lam_min, "mean_det": mean_det, "class_det": class_det,
            "margin_u_hat_nonpos": m["u_hat_nonpos"],
            "margin_ut_hat_nonpos": m["ut_hat_nonpos"],
            "margin_eq7": m["eq7"],
            "margin_combo_monotone": m.get("combo_monotone", math.nan),
            "margin_conservation": m["conservation"],
            "margin_positivity": m["positivity"],
        }
        if regime == Regime.FINITE_TIME:
            row["margin_eq8_chain"] = m["eq8_chain"]
            F = (1.0 - math.exp(t - T)) * ut_hat + u_hat
            row["min_F"] = float(F.min())
            vol = float(np.mean(np.exp(u_hat) * ev.det))
            row["margin_vol_sandwich"] = class_det * (1.0 + 1e-6) - vol
        if regime == Regime.COLLAPSED:
            row["min_v"] = float(v_phys.min())
            row["max_v"] = float(v_phys.max())
            row["min_vt"] = float(ev.rhs_phys.min())
            row["max_vt"] = float(ev.rhs_phys.max())
        if run_w:
            w_phys, w_dot = w_fields(phi_t)
            row["min_w"] = float(w_phys.min())
            row["max_w"] = float(w_phys.max())
            row["min_wt"] = float(w_dot.min())
            row["max_wt"] = float(w_dot.max())
            Q = np.expm1(t) * w_dot - w_phys - (n - r) * t - r * math.exp(t)
            row["margin_appendix_w"] = -r - float(Q.max())
            # the lag history holds w at the grid points, stored and kept
            # only while some lag can still read them (_lag_window); w_phys
            # is fresh, so the history holds it uncopied
            if k_t is not None:
                w_lags[k_t] = (t, w_phys)
            window = _lag_window(t, t_max)
            for k in [k for k in w_lags if not any(k in ks for ks in window)]:
                del w_lags[k]
            lag_snapshots_max = max(lag_snapshots_max, len(w_lags))
            for S in monitors.S_LIST:
                wpast = _lag_lookup(w_lags, t - S)
                if wpast is None:
                    row[f"min_q_s{S:g}"] = math.nan
                else:
                    qS = (1.0 - math.exp(S)) * ev.rhs_phys + v_phys - wpast
                    row[f"min_q_s{S:g}"] = float(qS.min())
        for c, v in row.items():
            series.setdefault(c, []).append(v)
        violations.update(res.name for res in results if not res.passed)
        if not all(math.isfinite(v) or math.isnan(v) for v in row.values()):
            raise FlowBreakdownError(f"non-finite observables at t={t:.6f}")
        return u_hat

    def next_event():
        """The first event after t and its snapshot index (None off the grid)."""
        k = _grid_index(t) + 1
        e = min([t_max] + [s for s in samples if s > t])
        grid_point = round(k * SNAP_DT, 10)
        return (grid_point, k) if grid_point <= e else (e, None)

    def propose_dt(event):
        """The largest dt every bound allows, and the name of the bound that set it."""
        dt, limit = dt_cap, "dt_cap"
        if dt_err < dt:
            dt, limit = dt_err, "error"
        if event - t < dt:
            # a step that only lands on the event up to round-off is still
            # set by the bound above
            if event - t < dt * (1.0 - 1e-9):
                limit = "event"
            dt = event - t
        return max(dt, 1e-12), limit

    def dt_ratio(err):
        """The next dt over this one: 0.9 (STEP_TOL / err)^(1/4), clipped to [0.2, 5]."""
        if err == 0.0:
            return 5.0
        return min(5.0, max(0.2, 0.9 * (STEP_TOL / err) ** 0.25))

    try:
        while True:
            u_hat_arr = record(dt_last)
            if collect_snaps and k_t is not None and k_t % 5 == 0:
                uhat_snaps.append((t, u_hat_arr))
            if t >= t_max - 1e-12:
                status, stop_reason = "completed", "reached t_max"
                if window:
                    status = "singularity-stop"
                    stop_reason = f"finite-time approach window at t={t:.6f} (T={T:.6f})"
                break
            event, k_event = next_event()
            dt, limit = propose_dt(event)
            # the evaluations at t stay alive until a step is accepted (a
            # retry starts from F_hat, a stop reports their fields), next to
            # those at the new point; their metric arrays are consumed by now
            for ev in evs:
                ev.comps = ev.det = None
            halved = rejected = 0  # this step's retries
            # each attempt builds one midpoint symbol for all flows (the
            # comparison flow's symbol less 1 is its own array); positivity
            # loss anywhere in it halves dt, an estimate above STEP_TOL
            # scales it, and the last of these names the accepted dt's bound
            while True:
                ell = problem.laplace_symbol(t + 0.5 * dt)
                t_new, k_new = ((event, k_event) if abs(t + dt - event) < 1e-11
                                else (t + dt, None))
                try:
                    new = [_lawson_rk4(problem, y, t, dt, r, comparison, ev.F_hat,
                                       ell - 1.0 if comparison else ell)
                           for y, comparison, ev in zip(ys, flows, evs)]
                    del ell
                    # the full evaluations at the new point record the step,
                    # seed the next one's first stage and complete the estimate
                    new_evs = [_eval_flow(problem, y1, t_new, r, comparison, full=True)
                               for (y1, _), comparison in zip(new, flows)]
                except SingularMetricError:
                    halved += 1
                    if halved > MAX_HALVINGS:
                        raise
                    halvings_total += 1
                    dt *= 0.5
                    limit = "positivity"
                    continue
                err = max(_embedded_error(problem, d, ev.F_hat, dt)
                          for (_, d), ev in zip(new, new_evs))
                if err <= STEP_TOL:
                    break
                rejections += 1
                rejected += 1
                if rejected > MAX_HALVINGS:
                    raise FlowBreakdownError(f"step size control failed at t={t:.6f}: local "
                                             f"error {err:.3e} after {rejected} rejections")
                dt *= dt_ratio(err)
                limit = "error"
            limits[limit] += 1
            max_err = max(max_err, err)
            # after a positivity halving the next proposal stays at this dt:
            # the error estimate does not see how close the metric came to
            # the floor, and a larger step would lose positivity again
            dt_err = dt * (min(1.0, dt_ratio(err)) if halved else dt_ratio(err))
            ys, evs = [y1 for y1, _ in new], new_evs
            t, k_t = t_new, k_new
            dt_last = dt
            steps += 1
            # the previous evaluations and the consumed estimates are garbage
            # now; release them before the next record
            del ev, new
    except SingularMetricError as stop:
        status = "singularity-stop"
        stop_reason = f"singularity stop: {stop}"
    except FlowBreakdownError as bd:
        status = "breakdown"
        stop_reason = str(bd)

    phi_t, v_phys, u_hat, ut_hat = uv_fields()
    final = {
        "u_hat": ScalarField(grid, u_hat),
        "ut_hat": ScalarField(grid, ut_hat),
        "V_proxy": ScalarField(grid, u_hat + ut_hat),
    }
    if regime == Regime.COLLAPSED:
        final["v"] = ScalarField(grid, v_phys)
    if run_w:
        w_phys, w_dot = w_fields(phi_t)
        final["w"] = ScalarField(grid, w_phys)
        final["w_dot"] = ScalarField(grid, w_dot)

    constants = {
        "C3": C3,
        "T": T,
        "r": r,
        "regime": regime.value,
        "steps": steps,
        "halvings": halvings_total,
        "t_final": t,
        "grid_shape": list(grid.shape),
    }
    return RunResult(
        status=status,
        stop_reason=stop_reason,
        series=series,
        constants=constants,
        violations=sorted(violations),
        final=final,
        uhat_snaps=uhat_snaps,
        step_control={
            "accepted": steps,
            "rejections": rejections,
            "limits": limits,
            "max_error": max_err,
            "tol": STEP_TOL,
            "lag_snapshots_max": lag_snapshots_max,
        },
    )
