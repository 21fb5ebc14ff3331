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
one's first stage, so the estimate costs no RHS evaluation.  A step is
accepted when the sup bound of the estimate over the lockstep flows is at
most STEP_TOL, and the next dt is scaled by 0.9 (STEP_TOL / err)^(1/4),
clipped to [0.2, 5]; dt_cap and the event grid bound it as well, and a
step that loses positivity is halved.  No separate stability bound is
needed: where the non-constant remainder of the Laplacian is stiff, rejected
steps hold dt at the controller's stability boundary.  A finite-time run
ends at T - STOP_MARGIN.

The collapsed-regime monitors read the comparison flow at lagged times
through q_S = (1 - e^S) dv/dt(t) + v(t) - w(t - S), S in monitors.S_LIST,
interpolating linearly between the two snapshots of w that bracket t - S.
Snapshots fall every SNAP_DT, and the one at s is stored and kept only while
some lag can still read it from a record time t up to t_max:
t - S - SNAP_DT < s < t_max - S + SNAP_DT.  The history so spans at most
the longest lag plus two snapshot intervals, and near t_max it keeps only
the snapshots around each t_max - S.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import monitors
from .geometry import (
    POSITIVITY_EPS,
    KahlerForm,
    Regime,
    SingularMetricError,
    VolumeDensity,
    check_positive_components,
    compute_T,
    constant_components,
    det_components,
    diagonal_and_det,
    lambda_min_components,
    positive_components,
    singular_metric_error,
    trace_pair_components,
)
from .grid import GridSpec, ScalarField, forward, hessian_components, hessian_rows, inverse, tables

MAX_HALVINGS = 20
# Local error allowed per accepted step: the sup bound of the embedded
# estimate, over all lockstep flows, at the monitors' inequality tolerance.
STEP_TOL = monitors.TOL_INEQ
# Gauss-Legendre order of the class-forcing integral over one step; its
# integrand is analytic in the integration variable, so this leaves round-off.
FORCING_NODES = 24
# Event grid and comparison-flow snapshot cadence; the Kahler-limit
# convergence monitor reads a potential snapshot every UHAT_SNAP_DT.
SNAP_DT = 0.1
UHAT_SNAP_DT = 0.5
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
        self.tables = tables(self.grid.n, self.grid.N)
        self.phi0_phys = form0.phi.values.copy()
        self.phi_inf_phys = form_inf.phi.values.copy()
        self.phi0_hat = forward(self.phi0_phys)
        self.phi_inf_hat = forward(self.phi_inf_phys)
        self.drift_hat = self.phi_inf_hat - self.phi0_hat  # d/dt phi_t = e^{-t} drift
        self.log_h = np.log(omega.h.values)
        self.class_det0 = float(np.linalg.det(self.path.A0).real)
        self.workspace = _Workspace(self.grid, self.tables)
        # admissibility: the initial form must be a metric
        diag, det = diagonal_and_det(self.path.A0, self.hessian_rows(self.phi0_hat),
                                     self.grid.n)
        check_positive_components(diag, t=0.0, det=det)

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
        """(A_t, positivity floor, e^{-t}, det(A_t), log det(A_t)) at t,
        computed once per stage time.

        The lockstep flows and the RK stages of one step revisit the same
        few times, so the last few are kept.
        """
        times = self.workspace.times
        c = times.get(t)
        if c is None:
            if len(times) >= 4:
                del times[next(iter(times))]
            A = self.A_t(t)
            det = float(np.linalg.det(A).real)
            # past T no metric passes the positivity test, so -inf is unused
            log_det = math.log(det) if det > 0.0 else -math.inf
            floor = POSITIVITY_EPS * min(1.0, max(float(np.linalg.eigvalsh(A).min()), 0.0))
            c = times[t] = (A, floor, math.exp(-t), det, log_det)
        return c


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
        self.stencil = tabs.stack()  # the Hessian symbols, one row per component
        self.prod = np.empty((1,) + spec, dtype=np.complex128)  # one row's stencil product
        self.work = np.empty(grid.shape)  # positivity test, log density
        self.spec = np.empty(spec, dtype=np.complex128)  # spectral temporaries
        self.spec2 = np.empty(spec, dtype=np.complex128)
        self.stage = np.empty(spec, dtype=np.complex128)  # RK stage argument
        self.k1 = np.empty(spec, dtype=np.complex128)
        self.E1 = np.empty(spec)  # Lawson integrating factors
        self.E2 = np.empty(spec)
        self.err = np.empty(spec)  # moduli of the embedded error estimate
        self.times = {}  # stage time -> FlowProblem._stage_constants


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


def _sup_bound(problem: FlowProblem, coeffs: np.ndarray) -> float:
    """Upper bound of the sup norm of the field with rfft coefficients coeffs.

    The l1 norm of the full spectrum over N**(2n); the half spectrum stands
    for its conjugate too, except on the self-conjugate planes (last index 0
    and N/2).  No transform is needed.
    """
    a = np.abs(coeffs, out=problem.workspace.err)
    total = 2.0 * float(a.sum()) - float(a[..., 0].sum()) - float(a[..., -1].sum())
    return total / problem.grid.num_points


def _embedded_error(problem: FlowProblem, d: np.ndarray, F1: np.ndarray,
                    dt: float) -> float:
    """Sup bound of the estimate (dt/10)(d - F1) of one step (see _lawson_rk4).

    d is consumed.
    """
    d -= F1
    return 0.1 * dt * _sup_bound(problem, d)


def _attempt_step(problem, states, t, dt):
    """Advance all lockstep flows by a common dt, halving on positivity loss.

    states: list of (p_hat, r, comparison, F0), F0 the RHS at (p_hat, t).
    Returns (new_list, dt_used, halvings), new_list holding one (y1, d)
    pair of _lawson_rk4 per flow.  Each attempt builds the Laplacian symbol
    at its midpoint once for all flows; the comparison flow's symbol less 1
    is its own array.  Re-raises the last SingularMetricError after
    MAX_HALVINGS failures.
    """
    halvings = 0
    while True:
        ell = problem.laplace_symbol(t + 0.5 * dt)
        try:
            new = [_lawson_rk4(problem, y, t, dt, r, comparison, F0,
                               ell - 1.0 if comparison else ell)
                   for y, r, comparison, F0 in states]
            return new, dt, halvings
        except SingularMetricError:
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise
            dt *= 0.5


def normalization_constant(problem: FlowProblem) -> float:
    """Shift constant C3 from the t=0 data.

    C3 = max( max_x du/dt|0 , max_x [Lap(du/dt) - <metric0, omega0 - omegainf>
    + du/dt]|0 ); the monitored potential u - C3 t then has nonpositive value
    and rate along the flow.

    The pairings need all four rows of the t = 0 metric, so they are kept
    (FlowProblem checked that it is a metric); every other Hessian is made
    one row at a time and consumed in order by its pairing.
    """
    n = problem.grid.n
    path = problem.path
    A = problem._stage_constants(0.0)[0]  # A_t at 0, up to round-off A0, as the flow has it
    metric0 = tuple(np.add(h, c, out=h) for c, h in zip(
        constant_components(A, n), problem.hessian_rows(problem.phi0_hat)))
    det0 = det_components(metric0)
    udot0 = np.log(det0)
    udot0 -= problem.log_h
    lap = trace_pair_components(metric0, problem.hessian_rows(forward(udot0)), det0)
    # the rows of A0 - Ainf + H[phi0 - phi_inf], made as they are read
    diff_rows = (np.add(h, c, out=h) for c, h in zip(
        constant_components(path.A0 - path.Ainf, n), problem.hessian_rows(-problem.drift_hat)))
    pairing = trace_pair_components(metric0, diff_rows, det0)
    second = lap - pairing + udot0
    return max(float(udot0.max()), float(second.max()))


# ---------------------------------------------------------------------------
# Full runs


@dataclass
class RunOptions:
    t_max: float
    run_comparison: bool
    dt_cap: float


@dataclass
class RunResult:
    status: str
    stop_reason: str
    series: dict
    constants: dict
    violations: list
    final: dict
    uhat_snaps: list
    wall_time: float
    step_control: dict


def _lag_readable(s: float, t: float, t_max: float) -> bool:
    """Whether a lag S of monitors.S_LIST can still read the comparison-flow
    snapshot at s from a record time in [t, t_max].

    A lookup at t - S reads the two snapshots that bracket it, which lie
    less than SNAP_DT from it, so s is read iff t - S - SNAP_DT < s <
    t_max - S + SNAP_DT for some S; both ends are widened by the ring's time
    tolerance, so a query that lands on a snapshot up to round-off still
    finds its neighbour.
    """
    return any(t - S - SNAP_DT - 1e-9 < s < t_max - S + SNAP_DT + 1e-9
               for S in monitors.S_LIST)


def _w_ring_lookup(ring, t_query):
    """Linear interpolation between the two stored comparison-flow snapshots
    that bracket t_query.

    None when no stored pair brackets it, or when the bracketing pair is
    more than SNAP_DT apart: a snapshot missing from the history is never
    interpolated across.
    """
    if not ring or t_query < ring[0][0] - 1e-9:
        return None
    lo = None
    for ts, arr in ring:
        if ts <= t_query + 1e-12:
            lo = (ts, arr)
        else:
            if lo is None:
                return None
            t0, a0 = lo
            if ts - t0 > SNAP_DT + 1e-9:
                return None
            lam = (t_query - t0) / (ts - t0)
            return (1.0 - lam) * a0 + lam * arr
    t0, a0 = lo
    if abs(t_query - t0) < 1e-9:
        return a0
    return None


def run_flow(problem: FlowProblem, options: RunOptions) -> RunResult:
    """Integrate from t=0 with adaptive steps, invoking monitors each step.

    Stops at t_max (a finite-time run at T - STOP_MARGIN at the latest, as a
    singularity stop) or on positivity loss; monitor violations are
    recorded, never fatal.
    """
    t_start = time.perf_counter()
    grid = problem.grid
    path = problem.path
    regime = path.regime
    r = problem.scaled_r
    n = grid.n
    T = path.T
    t_max = options.t_max
    if regime == Regime.FINITE_TIME:
        t_max = min(t_max, T - STOP_MARGIN)
    C3 = normalization_constant(problem)

    run_w = options.run_comparison and regime == Regime.COLLAPSED
    # only the Kahler-limit convergence monitor consumes potential snapshots
    collect_snaps = regime == Regime.KAHLER_LIMIT

    series = {}  # column -> values; the columns are the keys of record's rows

    # event grid: snapshot cadence plus finite-time sample times
    events = set()
    k = 1
    while k * SNAP_DT < t_max + 1e-9:
        events.add(round(k * SNAP_DT, 10))
        k += 1
    if regime == Regime.FINITE_TIME:
        for d in monitors.FINITE_TIME_DELTAS:
            if T - d > 0:
                events.add(T - d)
    events.add(t_max)
    events = sorted(e for e in events if e > 1e-12)

    t = 0.0
    dt_last = 0.0
    dt_err = math.inf  # the error controller's proposal; the first step takes the cap
    prev_combo = None
    violations = {}
    steps = 0
    halvings_total = 0
    rejections = 0
    max_err = 0.0
    # which bound set each accepted dt ("positivity": halved on positivity loss)
    limits = dict.fromkeys(("error", "dt_cap", "event", "positivity"), 0)
    w_ring = []
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
        lam = lambda_min_components(ev.comps, ev.det)
        lam_min = float(lam.min())
        lam_loc = tuple(int(i) for i in np.unravel_index(int(np.argmin(lam)), lam.shape))
        mean_det = float(np.mean(ev.det))
        _, floor, _, class_det, _ = problem._stage_constants(t)
        snap = monitors.StepSnapshot(
            t, n, regime.value, T, u_hat, ut_hat, lam_min, lam_loc,
            floor, mean_det, class_det, problem.class_det0,
        )
        report = monitors.check_core(snap, prev_combo)
        prev_combo = report.combo_min
        m = report.margins()
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
            # the lag history holds a w field every SNAP_DT, stored and kept
            # only while some lag can still read it (_lag_readable); w_phys
            # is fresh, so the ring holds it uncopied
            w_ring[:] = [snap for snap in w_ring if _lag_readable(snap[0], t, t_max)]
            if abs(t / SNAP_DT - round(t / SNAP_DT)) < 1e-9 and _lag_readable(t, t, t_max):
                w_ring.append((t, w_phys))
            lag_snapshots_max = max(lag_snapshots_max, len(w_ring))
            for S in monitors.S_LIST:
                wpast = _w_ring_lookup(w_ring, t - S)
                if wpast is None:
                    row[f"min_q_s{S:g}"] = math.nan
                else:
                    qS = (1.0 - math.exp(S)) * ev.rhs_phys + v_phys - wpast
                    row[f"min_q_s{S:g}"] = float(qS.min())
        for c, v in row.items():
            series.setdefault(c, []).append(v)
        for res in report.failures():
            worst = violations.get(res.name)
            if worst is None or res.margin < worst:
                violations[res.name] = res.margin
        if not all(math.isfinite(v) or math.isnan(v) for v in row.values()):
            raise FlowBreakdownError(f"non-finite observables at t={t:.6f}")
        return u_hat

    def evaluate(y1, d, comparison, t_new, dt_used):
        """One flow's full evaluation at its new state y1 and its step's error;
        consumes d.  A function, so no loop variable keeps d alive past the step."""
        ev = _eval_flow(problem, y1, t_new, r, comparison, full=True)
        return ev, _embedded_error(problem, d, ev.F_hat, dt_used)

    def propose_dt():
        """The largest dt every bound allows, and the name of the bound that set it."""
        dt, limit = options.dt_cap, "dt_cap"
        if dt_err < dt:
            dt, limit = dt_err, "error"
        for e in events:
            if e > t + 1e-12:
                if e - t < dt:
                    # a step that only lands on the event up to round-off
                    # is still set by the bound above
                    if e - t < dt * (1.0 - 1e-9):
                        limit = "event"
                    dt = e - t
                break
        return max(dt, 1e-12), limit

    def dt_ratio(err):
        """The next dt over this one: 0.9 (STEP_TOL / err)^(1/4), clipped to [0.2, 5]."""
        if err == 0.0:
            return 5.0
        return min(5.0, max(0.2, 0.9 * (STEP_TOL / err) ** 0.25))

    try:
        while True:
            u_hat_arr = record(dt_last)
            if collect_snaps and (
                t == 0.0
                or abs(t / UHAT_SNAP_DT - round(t / UHAT_SNAP_DT)) < 1e-9
            ):
                uhat_snaps.append((t, u_hat_arr))
            if t >= t_max - 1e-12:
                status, stop_reason = "completed", "reached t_max"
                if regime == Regime.FINITE_TIME:
                    status = "singularity-stop"
                    stop_reason = f"finite-time approach window at t={t:.6f} (T={T:.6f})"
                break
            dt, limit = propose_dt()
            # the evaluations at t stay alive until a step is accepted (a
            # retry starts from F_hat, a stop reports their fields), next to
            # those at the new point; their metric arrays are consumed by now
            for ev in evs:
                ev.comps = ev.det = None
            states = [(y, r, comparison, ev.F_hat)
                      for y, comparison, ev in zip(ys, flows, evs)]
            # error rejections redo the step at a smaller dt, as many times
            # as positivity loss may halve it
            for _ in range(MAX_HALVINGS + 1):
                new, dt_used, halv = _attempt_step(problem, states, t, dt)
                halvings_total += halv
                t_new = t + dt_used
                for e in events:
                    if abs(t_new - e) < 1e-11:
                        t_new = e
                        break
                # the full evaluations at the new point record the step, seed
                # the next one's first stage and complete the error estimate,
                # flow by flow
                evaluated = [evaluate(y1, d, comparison, t_new, dt_used)
                             for (y1, d), comparison in zip(new, flows)]
                err = max(e for _, e in evaluated)
                if err <= STEP_TOL:
                    break
                rejections += 1
                dt = dt_used * dt_ratio(err)
                limit = "error"
            else:
                raise FlowBreakdownError(
                    f"step size control failed at t={t:.6f}: local error {err:.3e} "
                    f"after {MAX_HALVINGS} rejections")
            limits["positivity" if halv else limit] += 1
            max_err = max(max_err, err)
            dt_err = dt_used * dt_ratio(err)
            for i in range(len(flows)):
                ys[i] = new[i][0]
                evs[i] = evaluated[i][0]
            t = t_new
            dt_last = dt_used
            steps += 1
            # the previous evaluations, states and RHS and the consumed
            # estimates are garbage now; release them before the next record
            del ev, new, states
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
    }
    return RunResult(
        status=status,
        stop_reason=stop_reason,
        series=series,
        constants=constants,
        violations=sorted(violations),
        final=final,
        uhat_snaps=uhat_snaps,
        wall_time=time.perf_counter() - t_start,
        step_control={
            "accepted": steps,
            "rejections": rejections,
            "limits": limits,
            "max_error": max_err,
            "tol": STEP_TOL,
            "lag_snapshots_max": lag_snapshots_max,
        },
    )
