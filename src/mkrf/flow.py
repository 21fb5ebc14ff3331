"""Time integration of the potential flows with runtime estimate monitoring.

Three companion flows share one engine:

  raw         du/dt = log(det(A_t + H[phi_t + u]) / h)
  scaled      dv/dt = raw RHS + r t            (v = u + r t^2 / 2)
  comparison  dw/dt = scaled RHS at w - w      (normalized auxiliary flow)

The integrated variable is the full potential p = phi_t + (u or v or w) in
spectral form; its evolution adds the explicit drift of phi_t to the flow
RHS.  The stepper is classical RK4, optionally wrapped in an exact
integrating factor for the constant-coefficient part of the flow Laplacian
(the spatial mean of the metric, which on the torus is exactly the pencil
matrix A_t).  With the factor disabled the step is textbook explicit RK4.

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
clipped to [0.2, 5]; dt_cap, the measured-variation guard and the event
grid bound it as well.  A finite-time run ends at T - stop_margin.
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
    ClassPath,
    KahlerForm,
    Regime,
    SingularMetricError,
    VolumeDensity,
    check_positive_components,
    components_from_hermitian,
    congruence_components,
    det_components,
    hermitian_from_components,
    inverse_components,
    lambda_min_components,
    matrix_sqrt_hermitian,
    metric_components,
    spectral_radius_diff,
    trace_pair_components,
)
from .grid import GridSpec, ScalarField, forward, hessian_components, inverse, tables

STABILITY_SAFETY = 0.8
MAX_HALVINGS = 20
# Mean-relative metric variation the integrating factor absorbs for free;
# beyond it the remainder is treated as effectively explicit.  The
# frozen-coefficient bound e^{-z} |R4(rho z)| <= 1 holds for rho < 0.68;
# 0.5 leaves margin for stage coupling.
IF_FREE_VARIATION = 0.5
# Local error allowed per accepted step: the sup bound of the embedded
# estimate, over all lockstep flows, at the monitors' inequality tolerance.
STEP_TOL = monitors.TOL_INEQ
# Gauss-Legendre order of the class-forcing integral over one step; its
# integrand is analytic in the integration variable, so this leaves round-off.
FORCING_NODES = 24


class SingularityStopError(Exception):
    """Step size collapsed against a singular metric; the run must stop."""

    def __init__(self, cause: SingularMetricError):
        self.cause = cause
        super().__init__(f"singularity stop: {cause}")


class FlowBreakdownError(Exception):
    """Non-finite numbers appeared in the state; fatal."""


# ---------------------------------------------------------------------------
# Problem bundle


class FlowProblem:
    """Assembled flow data: class path, reference potentials, volume density,
    and the work buffers of its RHS evaluations (one problem runs one flow
    evaluation at a time)."""

    def __init__(self, form0: KahlerForm, form_inf: KahlerForm, omega: VolumeDensity,
                 path: ClassPath | None = None):
        from .geometry import compute_T

        self.grid: GridSpec = form0.grid
        if form_inf.grid != self.grid or omega.grid != self.grid:
            raise ValueError("forms and density must share one grid")
        self.form0 = form0
        self.form_inf = form_inf
        self.omega = omega
        self.path = path if path is not None else compute_T(form0.A, form_inf.A)
        self.tables = tables(self.grid.n, self.grid.N)
        self.phi0_phys = form0.phi.values.copy()
        self.phi_inf_phys = form_inf.phi.values.copy()
        self.phi0_hat = forward(self.grid, self.phi0_phys)
        self.phi_inf_hat = forward(self.grid, self.phi_inf_phys)
        self.drift_hat = self.phi_inf_hat - self.phi0_hat  # d/dt phi_t = e^{-t} drift
        self.log_h = np.log(omega.h.values)
        self.mean_h = float(np.mean(omega.h.values))
        self.class_det0 = float(np.linalg.det(self.path.A0).real)
        self.workspace = _Workspace(self.grid, self.tables)
        # admissibility: the initial form must be a metric
        comps0 = metric_components(
            self.path.A0,
            hessian_components(self.grid, self.phi0_hat),
            self.grid.n,
            self.grid.shape,
        )
        check_positive_components(comps0, t=0.0)

    @property
    def scaled_r(self) -> int:
        return self.path.r if self.path.regime == Regime.COLLAPSED else 0

    def A_t(self, t: float) -> np.ndarray:
        return self.path.A_t(t)

    def class_det(self, t: float) -> float:
        return float(np.linalg.det(self.A_t(t)).real)

    def positivity_floor(self, t: float) -> float:
        lam = float(np.linalg.eigvalsh(self.A_t(t)).min())
        return POSITIVITY_EPS * min(1.0, max(lam, 0.0))

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

    def embed(self, field_values: np.ndarray, t: float) -> np.ndarray:
        """Spectral full potential phi_t + field."""
        return forward(self.grid, field_values) + self.phi_t_hat(t)

    def laplace_symbol(self, t: float) -> np.ndarray:
        inv = np.linalg.inv(self.A_t(t))
        return self.tables.laplacian_symbol(inv)

    def _stage_constants(self, t: float) -> tuple:
        """(A_t, positivity floor, e^{-t}, log det(A_t)) at t, computed once
        per stage time.

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
            c = times[t] = (A, self.positivity_floor(t), math.exp(-t), log_det)
        return c


class _Workspace:
    """Preallocated scratch of one problem's RHS evaluations and RK stages.

    Everything an evaluation or a step returns is a fresh array; these
    buffers only carry temporaries between the in-place operations, so the
    hot path allocates (almost) nothing per stage.
    """

    def __init__(self, grid: GridSpec, tabs):
        spec = tabs.rshape
        self.prod = np.empty(tabs._stack.shape, dtype=np.complex128)  # Hessian stencil product
        self.det = np.empty(grid.shape)
        self.work = np.empty(grid.shape)  # det intermediate, positivity test, log density
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
    comps: tuple | None = None
    det: np.ndarray | None = None
    pot_phys: np.ndarray | None = None   # full potential phi_t + field


def _eval_flow(problem: FlowProblem, p_hat: np.ndarray, t: float, r: int,
               comparison: bool, full: bool = False) -> EvalResult:
    """Evaluate the full-potential RHS in spectral form, checking positivity.

    p_hat is the spectral full potential.  For the u/v flows F_hat leaves
    out the class forcing c(t) = log det(A_t) + r t, which _lawson_rk4
    integrates exactly; rhs_phys keeps it.  full=True additionally
    materializes the physical RHS, the metric components, the density, and
    the physical potential for monitoring.  Every array in the result is
    owned by it; the problem's workspace only holds temporaries.  A
    non-finite state raises FlowBreakdownError, a metric below the
    positivity floor SingularMetricError.
    """
    grid = problem.grid
    ws = problem.workspace
    A, floor, decay, log_det = problem._stage_constants(t)
    hs = hessian_components(grid, p_hat, ws.prod)
    comps = metric_components(A, hs, grid.n, grid.shape, out=hs)
    det = det_components(comps, out=None if full else ws.det, work=ws.work)
    det_min = float(det.min())  # NaN anywhere makes this NaN
    if not math.isfinite(det_min):
        raise FlowBreakdownError(f"non-finite state at t={t:.6f}")
    if grid.n == 1:
        ok = det_min >= floor and det_min > 0.0
    else:
        g11, g22 = comps[0], comps[1]
        # lambda_min >= floor iff g11 >= floor and det(g - floor I) >= 0
        ok = det_min > 0.0 and g11.min() >= floor
        if ok:
            shifted = np.add(g11, g22, out=ws.work)
            shifted *= floor
            np.subtract(det, shifted, out=shifted)
            shifted += floor * floor
            ok = shifted.min() >= 0.0
    if not ok:
        lam = lambda_min_components(comps, det)
        loc = np.unravel_index(int(np.argmin(lam)), lam.shape)
        raise SingularMetricError(float(lam.min()), loc, t)
    rhs = np.log(det, out=None if full else ws.work)
    rhs -= problem.log_h
    if r:
        rhs += r * t
    F_hat = forward(grid, rhs)
    if not comparison:
        # the class forcing is integrated exactly by _lawson_rk4
        F_hat[(0,) * F_hat.ndim] -= grid.num_points * (log_det + r * t)
    F_hat += np.multiply(decay, problem.drift_hat, out=ws.spec)
    if comparison:
        phi_t = problem.phi_t_hat(t, out=ws.spec, work=ws.spec2)
        F_hat -= np.subtract(p_hat, phi_t, out=phi_t)
    if not full:
        return EvalResult(F_hat)
    return EvalResult(F_hat, rhs, comps, det, inverse(grid, p_hat))


def _lawson_rk4(problem: FlowProblem, y: np.ndarray, t: float, dt: float, r: int,
                comparison: bool, use_if: bool, F0: np.ndarray | None = None) -> tuple:
    """One Lawson (integrating factor) RK4 step; plain RK4 when use_if is False.

    Returns (y1, d).  y1 is the new state.  d = k4 + ell y1 is the part of
    the embedded error estimate this step knows: with F1 the RHS at
    (y1, t + dt), k5 = F1 - ell y1 and the estimate is
    (dt/10)(k4 - k5) = (dt/10)(d - F1).  The embedded weights
    (1/6, 1/3, 1/3, 1/15, 1/10) are order 3; in the Lawson frame stages 4
    and 5 carry the same factor e^{-dt ell}, which cancels on the way back.

    F0 optionally supplies the already-evaluated RHS at (y, t) so the first
    stage costs nothing on the run hot path; it is only read.  The stage
    combinations run in place in the problem's workspace and in the stage
    RHS arrays; y1 and d are the (fresh) stage-2 and stage-4 RHS arrays.
    """
    ws = problem.workspace
    if use_if:
        ell = problem.laplace_symbol(t + 0.5 * dt)
        if comparison:
            ell -= 1.0
        E2 = np.multiply(0.5 * dt, ell, out=ws.E2)
        np.exp(E2, out=E2)
        E1 = np.multiply(E2, E2, out=ws.E1)
    else:
        ell = None

    def N(z, tau):
        F = _eval_flow(problem, z, tau, r, comparison).F_hat
        if ell is not None:
            F -= np.multiply(ell, z, out=ws.spec)
        return F

    if F0 is None:
        k1 = N(y, t)
    elif ell is None:
        k1 = F0
    else:
        k1 = np.subtract(F0, np.multiply(ell, y, out=ws.k1), out=ws.k1)
    h = 0.5 * dt
    z = ws.stage
    tmp = ws.spec
    if ell is None:
        k2 = N(np.add(y, np.multiply(h, k1, out=z), out=z), t + h)
        k3 = N(np.add(y, np.multiply(h, k2, out=z), out=z), t + h)
        k4 = N(np.add(y, np.multiply(dt, k3, out=z), out=z), t + dt)
        # y + (dt/6) (k1 + 2 (k2 + k3) + k4)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= dt / 6.0
        k2 += y
        return _add_forcing(problem, k2, t, dt, r, comparison), k4
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
    return _add_forcing(problem, k2, t, dt, r, comparison), k4


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
    comps = tuple(a + e * b for a, b in zip(metric_components(path.Ainf, None, n, ()),
                                             metric_components(path.A0 - path.Ainf, None, n, ())))
    c = np.log(det_components(comps)) + r * s
    return float((weights * c).sum())


def _add_forcing(problem: FlowProblem, y1: np.ndarray, t: float, dt: float, r: int,
                 comparison: bool) -> np.ndarray:
    """Add the class forcing integrated over the step to the mean mode of a
    u/v state (the comparison flow keeps it in its RHS); y1 is updated in place."""
    if not comparison:
        y1[(0,) * y1.ndim] += problem.grid.num_points * _forcing_integral(problem, t, dt, r)
    return y1


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


def _attempt_step(problem, states, t, dt, use_if, max_halvings=MAX_HALVINGS):
    """Advance all lockstep flows by a common dt, halving on positivity loss.

    states: list of (p_hat, r, comparison[, F0]).  Returns (new_list,
    dt_used, halvings), new_list holding one (y1, d) pair of _lawson_rk4 per
    flow.  Raises SingularityStopError after max_halvings failures.
    """
    halvings = 0
    while True:
        try:
            new = [
                _lawson_rk4(problem, s[0], t, dt, s[1], s[2], use_if,
                            F0=s[3] if len(s) > 3 else None)
                for s in states
            ]
            return new, dt, halvings
        except SingularMetricError as err:
            halvings += 1
            if halvings > max_halvings:
                raise SingularityStopError(err) from err
            dt *= 0.5


# ---------------------------------------------------------------------------
# Public states and single-step operations


@dataclass
class FlowState:
    """Raw potential flow state at time t."""

    t: float
    u: ScalarField
    u_dot: ScalarField
    metric: object
    C3: float
    dt_last: float = 0.0


@dataclass
class ScaledFlowState:
    """Scaled potential flow state (v = u + r t^2 / 2)."""

    t: float
    v: ScalarField
    v_dot: ScalarField
    metric: object
    r: int
    C3: float
    dt_last: float = 0.0


@dataclass
class ComparisonFlowState:
    """Normalized auxiliary flow state (the w flow)."""

    t: float
    w: ScalarField
    w_dot: ScalarField
    metric: object
    dt_last: float = 0.0


def _state_params(state):
    if isinstance(state, FlowState):
        return "u", 0, False
    if isinstance(state, ScaledFlowState):
        return "v", state.r, False
    if isinstance(state, ComparisonFlowState):
        return "w", None, True
    raise TypeError(f"not a flow state: {type(state)!r}")


def _build_state(kind, problem, t, p_hat, C3, dt_last, r):
    res = _eval_flow(problem, p_hat, t, r, kind == "w", full=True)
    grid = problem.grid
    field_vals = res.pot_phys - problem.phi_t_phys(t)
    pot = ScalarField(grid, field_vals)
    metric = hermitian_from_components(grid, res.comps)
    rhs = res.rhs_phys if kind != "w" else res.rhs_phys - field_vals
    dot = ScalarField(grid, rhs)
    if kind == "u":
        return FlowState(t, pot, dot, metric, C3, dt_last)
    if kind == "v":
        return ScaledFlowState(t, pot, dot, metric, r, C3, dt_last)
    return ComparisonFlowState(t, pot, dot, metric, dt_last)


def initial_flow_state(problem: FlowProblem) -> FlowState:
    C3 = normalization_constant(problem)
    return _build_state("u", problem, 0.0, problem.phi0_hat.copy(), C3, 0.0, 0)


def initial_scaled_state(problem: FlowProblem) -> ScaledFlowState:
    C3 = normalization_constant(problem)
    return _build_state("v", problem, 0.0, problem.phi0_hat.copy(), C3, 0.0,
                        problem.scaled_r)


def initial_comparison_state(problem: FlowProblem) -> ComparisonFlowState:
    return _build_state("w", problem, 0.0, problem.phi0_hat.copy(), 0.0, 0.0,
                        problem.scaled_r)


def step_rk4(state, dt: float, problem: FlowProblem,
             use_integrating_factor: bool = False):
    """Advance one state by dt with the 4-stage step.

    On mid-stage positivity loss the step is retried with halved dt (up to 20
    times) before raising SingularityStopError.  The returned state carries
    the dt actually used in dt_last, with the rate field and the metric
    refreshed from the RHS at the new time.
    """
    kind, r, comparison = _state_params(state)
    pot = state.u if kind == "u" else state.v if kind == "v" else state.w
    if kind == "w":
        r = problem.scaled_r
    p_hat = problem.embed(pot.values, state.t)
    new, dt_used, _ = _attempt_step(
        problem, [(p_hat, r, comparison)], state.t, dt, use_integrating_factor
    )
    C3 = getattr(state, "C3", 0.0)
    return _build_state(kind, problem, state.t + dt_used, new[0][0], C3, dt_used, r)


def rhs_mskrf(u: ScalarField, t: float, problem: FlowProblem) -> ScalarField:
    """RHS of the raw potential flow: log of the flow volume ratio at (t, u)."""
    res = _eval_flow(problem, problem.embed(u.values, t), t, 0, False, full=True)
    return ScalarField(problem.grid, res.rhs_phys)


def rhs_scaled(v: ScalarField, t: float, problem: FlowProblem) -> ScalarField:
    """RHS of the scaled flow: raw RHS plus r t (r = generic fibre dimension)."""
    res = _eval_flow(problem, problem.embed(v.values, t), t, problem.scaled_r,
                     False, full=True)
    return ScalarField(problem.grid, res.rhs_phys)


def rhs_comparison(w: ScalarField, t: float, problem: FlowProblem) -> ScalarField:
    """RHS of the normalized auxiliary flow: scaled RHS at w, minus w."""
    res = _eval_flow(problem, problem.embed(w.values, t), t, problem.scaled_r,
                     False, full=True)
    return ScalarField(problem.grid, res.rhs_phys - w.values)


def stable_dt(state) -> float:
    """Parabolic stability bound for the plain explicit step.

    dt = sigma / (lambda_bar (pi N)^2 / 2) with lambda_bar the largest
    pointwise eigenvalue of the inverse metric and sigma = 0.8.
    """
    metric = state.metric
    grid = metric.grid
    comps = components_from_hermitian(metric)
    lam = lambda_min_components(comps)
    lam_bar = float((1.0 / lam).max())
    return STABILITY_SAFETY / (lam_bar * (math.pi * grid.N) ** 2 / 2.0)


def normalization_constant(problem: FlowProblem) -> float:
    """Shift constant C3 from the t=0 data.

    C3 = max( max_x du/dt|0 , max_x [Lap(du/dt) - <metric0, omega0 - omegainf>
    + du/dt]|0 ); the monitored potential u - C3 t then has nonpositive value
    and rate along the flow.
    """
    grid = problem.grid
    res = _eval_flow(problem, problem.phi0_hat.copy(), 0.0, 0, False, full=True)
    udot0 = res.rhs_phys
    lap = trace_pair_components(
        res.comps, hessian_components(grid, forward(grid, udot0)), res.det
    )
    diff_comps = metric_components(
        problem.path.A0 - problem.path.Ainf,
        hessian_components(grid, -problem.drift_hat),
        grid.n,
        grid.shape,
    )
    pairing = trace_pair_components(res.comps, diff_comps, res.det)
    second = lap - pairing + udot0
    return max(float(udot0.max()), float(second.max()))


# ---------------------------------------------------------------------------
# Full runs


@dataclass
class RunOptions:
    t_max: float
    run_comparison: bool = False
    use_integrating_factor: bool = True
    dt_cap: float = 0.02
    snap_dt: float = 0.1
    uhat_snap_dt: float = 0.5
    S_list: tuple = (1.0, 3.0, 5.0)
    stop_margin: float = 1e-3
    collect_uhat_snaps: bool = False


@dataclass
class RunResult:
    status: str
    stop_reason: str
    series: dict
    constants: dict
    violations: list
    final: dict
    uhat_snaps: list
    delta_samples: dict
    C3: float
    steps: int
    halvings: int
    wall_time: float
    columns: list
    step_control: dict


def _w_ring_lookup(ring, t_query):
    """Linear interpolation between stored comparison-flow snapshots."""
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
            lam = (t_query - t0) / (ts - t0)
            return (1.0 - lam) * a0 + lam * arr
    t0, a0 = lo
    if abs(t_query - t0) < 1e-9:
        return a0
    return None


def run_flow(problem: FlowProblem, options: RunOptions) -> RunResult:
    """Integrate from t=0 with adaptive steps, invoking monitors each step.

    Stops at t_max (a finite-time run at T - stop_margin at the latest, as a
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
        t_max = min(t_max, T - options.stop_margin)
    C3 = normalization_constant(problem)
    qn2 = (math.pi * grid.N) ** 2 / 2.0

    run_w = options.run_comparison and regime == Regime.COLLAPSED
    # only the Kahler-limit convergence monitor consumes potential snapshots
    collect_snaps = options.collect_uhat_snaps and regime == Regime.KAHLER_LIMIT

    columns = [
        "t", "dt", "min_u_hat", "max_u_hat", "min_ut_hat", "max_ut_hat",
        "lambda_min_metric", "mean_det", "class_det",
        "margin_u_hat_nonpos", "margin_ut_hat_nonpos", "margin_eq7",
        "margin_combo_monotone", "margin_conservation", "margin_positivity",
    ]
    if regime == Regime.FINITE_TIME:
        columns += ["margin_eq8_chain", "min_F", "margin_vol_sandwich"]
    if regime == Regime.COLLAPSED:
        columns += ["min_v", "max_v", "min_vt", "max_vt"]
    if run_w:
        columns += ["min_w", "max_w", "min_wt", "max_wt", "margin_appendix_w"]
        columns += [f"min_q_s{S:g}" for S in options.S_list]
    series = {c: [] for c in columns}

    # event grid: snapshot cadence plus finite-time sample times
    deltas = (0.2, 0.1, 0.05)
    events = set()
    k = 1
    while k * options.snap_dt < t_max + 1e-9:
        events.add(round(k * options.snap_dt, 10))
        k += 1
    if regime == Regime.FINITE_TIME:
        for d in deltas:
            if T - d > 0:
                events.add(T - d)
    events.add(t_max)
    events = sorted(e for e in events if e > 1e-12)

    y = problem.phi0_hat.copy()
    yw = problem.phi0_hat.copy() if run_w else None
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
    limits = dict.fromkeys(("error", "dt_cap", "stability", "event", "positivity"), 0)
    status = "completed"
    stop_reason = "reached t_max"
    w_ring = []
    uhat_snaps = []
    delta_samples = {}
    ev = _eval_flow(problem, y, t, r, False, full=True)
    evw = _eval_flow(problem, yw, t, r, True, full=True) if run_w else None

    def record(dt_used):
        nonlocal prev_combo
        phi_t = problem.phi_t_phys(t)
        shift = 0.5 * r * t * t + C3 * t
        v_phys = ev.pot_phys - phi_t
        u_hat = v_phys - shift
        ut_hat = ev.rhs_phys - (r * t + C3)
        lam = lambda_min_components(ev.comps, ev.det)
        lam_min = float(lam.min())
        lam_loc = tuple(int(i) for i in np.unravel_index(int(np.argmin(lam)), lam.shape))
        mean_det = float(np.mean(ev.det))
        class_det = problem.class_det(t)
        snap = monitors.StepSnapshot(
            t, n, regime.value, T, u_hat, ut_hat, lam_min, lam_loc,
            problem.positivity_floor(t), mean_det, class_det, problem.class_det0,
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
            w_phys = evw.pot_phys - phi_t
            w_dot = evw.rhs_phys - w_phys
            row["min_w"] = float(w_phys.min())
            row["max_w"] = float(w_phys.max())
            row["min_wt"] = float(w_dot.min())
            row["max_wt"] = float(w_dot.max())
            Q = np.expm1(t) * w_dot - w_phys - (n - r) * t - r * math.exp(t)
            row["margin_appendix_w"] = -r - float(Q.max())
            for S in options.S_list:
                wpast = _w_ring_lookup(w_ring, t - S)
                if wpast is None:
                    row[f"min_q_s{S:g}"] = math.nan
                else:
                    qS = (1.0 - math.exp(S)) * ev.rhs_phys + v_phys - wpast
                    row[f"min_q_s{S:g}"] = float(qS.min())
        for c in columns:
            series[c].append(row[c])
        for res in report.failures():
            worst = violations.get(res.name)
            if worst is None or res.margin < worst:
                violations[res.name] = res.margin
        if not all(math.isfinite(row[c]) or math.isnan(row[c]) for c in columns):
            raise FlowBreakdownError(f"non-finite observables at t={t:.6f}")
        return u_hat, (evw.pot_phys - phi_t) if run_w else None

    rho_cache = [-10, 0.0]  # step index of last estimate, cached value

    def measured_rho():
        A = problem.A_t(t)
        M = matrix_sqrt_hermitian(A)
        zero = np.zeros((n, n), dtype=complex)
        rho = 0.0
        for e in (ev, evw) if run_w else (ev,):
            inv = inverse_components(e.comps, e.det)
            dev = list(congruence_components(M, inv))
            dev[0] = dev[0] - 1.0
            if len(dev) > 1:
                dev[1] = dev[1] - 1.0
            rho = max(rho, float(spectral_radius_diff(tuple(dev), zero).max()))
        return rho

    def propose_dt():
        """The largest dt every bound allows, and the name of the bound that set it."""
        bounds = [(options.dt_cap, "dt_cap"), (dt_err, "error")]
        if options.use_integrating_factor:
            # the mean-relative variation drifts slowly; re-measure every few steps
            if steps - rho_cache[0] >= 5:
                rho_cache[0] = steps
                rho_cache[1] = measured_rho()
            excess = rho_cache[1] - IF_FREE_VARIATION
            if excess > 0.0:
                lam_bar_A = 1.0 / float(np.linalg.eigvalsh(problem.A_t(t)).min())
                bounds.append((2.2 / (lam_bar_A * excess * qn2), "stability"))
        else:
            lam = lambda_min_components(ev.comps, ev.det)
            lam_bar = float((1.0 / lam).max())
            if run_w:
                lamw = lambda_min_components(evw.comps, evw.det)
                lam_bar = max(lam_bar, float((1.0 / lamw).max()))
            bounds.append((STABILITY_SAFETY / (lam_bar * qn2), "stability"))
        dt, limit = min(bounds, key=lambda b: b[0])
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
            u_hat_arr, w_arr = record(dt_last)
            if run_w and (abs(t / options.snap_dt - round(t / options.snap_dt)) < 1e-9
                          or t == 0.0):
                w_ring.append((t, w_arr.copy()))
                horizon = max(options.S_list) + 2 * options.snap_dt
                while w_ring and w_ring[0][0] < t - horizon:
                    w_ring.pop(0)
            if collect_snaps and (
                t == 0.0
                or abs(t / options.uhat_snap_dt - round(t / options.uhat_snap_dt)) < 1e-9
            ):
                uhat_snaps.append((t, u_hat_arr.copy()))
            if regime == Regime.FINITE_TIME:
                for d in deltas:
                    if abs(t - (T - d)) < 1e-9:
                        delta_samples[d] = (t, series["min_ut_hat"][-1])
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
            ev.comps = ev.det = None
            states = [(y, r, False, ev.F_hat)]
            if run_w:
                evw.comps = evw.det = None
                states.append((yw, r, True, evw.F_hat))
            # error rejections redo the step at a smaller dt, as many times
            # as positivity loss may halve it
            for _ in range(MAX_HALVINGS + 1):
                new, dt_used, halv = _attempt_step(
                    problem, states, t, dt, options.use_integrating_factor
                )
                halvings_total += halv
                if halv:
                    rho_cache[0] = -10  # force re-measurement after a positivity halving
                t_new = t + dt_used
                for e in events:
                    if abs(t_new - e) < 1e-11:
                        t_new = e
                        break
                # the full evaluations at the new point record the step, seed
                # the next one's first stage and complete the error estimate
                ev_new = _eval_flow(problem, new[0][0], t_new, r, False, full=True)
                err = _embedded_error(problem, new[0][1], ev_new.F_hat, dt_used)
                if run_w:
                    evw_new = _eval_flow(problem, new[1][0], t_new, r, True, full=True)
                    err = max(err, _embedded_error(problem, new[1][1], evw_new.F_hat,
                                                   dt_used))
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
            y = new[0][0]
            ev = ev_new
            if run_w:
                yw = new[1][0]
                evw = evw_new
            t = t_new
            dt_last = dt_used
            steps += 1
            # the previous state, its RHS and the consumed estimates are
            # garbage now; release them before the next record
            del new, states
    except SingularityStopError as stop:
        status = "singularity-stop"
        stop_reason = str(stop)
    except FlowBreakdownError as bd:
        status = "breakdown"
        stop_reason = str(bd)

    phi_t = problem.phi_t_phys(t)
    shift = 0.5 * r * t * t + C3 * t
    v_phys = ev.pot_phys - phi_t
    final = {
        "u_hat": ScalarField(grid, v_phys - shift),
        "ut_hat": ScalarField(grid, ev.rhs_phys - (r * t + C3)),
    }
    final["V_proxy"] = ScalarField(grid, final["u_hat"].values + final["ut_hat"].values)
    if regime == Regime.COLLAPSED:
        final["v"] = ScalarField(grid, v_phys.copy())
    if run_w and evw is not None:
        w_phys = evw.pot_phys - phi_t
        final["w"] = ScalarField(grid, w_phys)
        final["w_dot"] = ScalarField(grid, evw.rhs_phys - w_phys)

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
        delta_samples=delta_samples,
        C3=C3,
        steps=steps,
        halvings=halvings_total,
        wall_time=time.perf_counter() - t_start,
        columns=columns,
        step_control={
            "accepted": steps,
            "rejections": rejections,
            "limits": limits,
            "max_error": max_err,
            "tol": STEP_TOL,
        },
    )
