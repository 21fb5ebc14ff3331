"""Damped Newton solver for the torus Monge-Ampere equation.

solve_cy finds the mean-zero potential U with

    det(A + H[phi] + H[U]) = c h   pointwise,   c = det(A) / mean(h),

which is discretely solvable because the grid mean of the determinant equals
det(A) for any periodic potential.  Newton linear systems are solved
inexactly, to a tolerance proportional to the current residual, by a
preconditioned Krylov iteration, and steps are damped by halving until the
sup-norm residual decreases.  The preconditioner divides its input by the
fixed density weight w = (target / mean target)^((n-1)/n) and then inverts
the constant-coefficient Laplacian of the mean metric exactly in Fourier
space; there is no weight at n=1 or for a constant density.  The Jacobian
applied to the zero vector, which lgmres's zero start asks for in every
system, is answered without a transform and not counted.

solve_psi_family reuses the same solver along a collapsed pencil, producing
the per-time reference potentials whose uniform bounds the collapsed-regime
monitors consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .geometry import (
    POSITIVITY_EPS,
    KahlerForm,
    Regime,
    SingularMetricError,
    VolumeDensity,
    check_positive_components,
    congruence_components,
    det_components,
    hessian_components,
    matrix_sqrt_hermitian,
    trace_pair_components,
)
from .grid import ScalarField, forward, inverse, tables

SUP_TOL_FACTOR = 1e-10
LINEAR_RTOL = 1e-8
# largest forcing term: the linear tolerance of the first Newton step is the
# relative residual, that of the later ones the Eisenstat-Walker choice 1;
# all are capped here and floored at LINEAR_RTOL
MAX_FORCING = 0.1
MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30


class NewtonConvergenceError(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__(
            f"Newton did not converge: residual {report.final_residual:.3e} "
            f"after {report.iterations} iterations"
        )


@dataclass
class EllipticProblem:
    """Reference form, background density, and the compatibility constant."""

    form: KahlerForm
    omega: VolumeDensity
    c: float

    @classmethod
    def compatible(cls, form: KahlerForm, omega: VolumeDensity) -> "EllipticProblem":
        det_a = float(np.linalg.det(form.A).real)
        return cls(form, omega, det_a / float(np.mean(omega.h.values)))


@dataclass
class NewtonReport:
    iterations: int = 0
    final_residual: float = math.inf
    residual_history: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)
    gauge_offset: float = 0.0
    converged: bool = False
    message: str = ""
    # per Newton iteration: the lgmres relative tolerance and the number of
    # Jacobian applications it took
    linear_rtols: list = field(default_factory=list)
    matvecs: list = field(default_factory=list)


def _frame_state(problem: EllipticProblem, root_inv: np.ndarray, U: np.ndarray):
    """Metric in the A-orthonormal frame: I + A^{-1/2} H[phi+U] A^{-1/2}.

    Working in this frame keeps the residual at unit scale even when the
    class matrix is nearly degenerate, because the frame rescaling of the
    Hessian components is an exact floating-point multiplication while the
    Hessian noise itself is proportional to the (small) degenerate-direction
    spectral mass.
    """
    grid = problem.form.grid
    n = grid.n
    pot = problem.form.phi.values + U
    hs = hessian_components(grid, forward(grid, pot))
    fr = list(congruence_components(root_inv, hs))
    fr[0] = 1.0 + fr[0]
    if n == 2:
        fr[1] = 1.0 + fr[1]
    fr = tuple(fr)
    check_positive_components(fr)
    return fr, det_components(fr)


def _precond_weight(target: np.ndarray, n: int):
    """Pointwise weight w of the Krylov preconditioner, or None for w = 1.

    J v = tr(adj(g) R H[v] R) and adj(g) ~ det(g)^((n-1)/n) I for a nearly
    isotropic frame metric g, with det g = target at the solution, so J is
    close to w L0 for the frame Laplacian L0 of the mean metric and
    w = (target / mean target)^((n-1)/n).  The preconditioner is
    L0^{-1} (v / w), a fast constant-coefficient solve scaled pointwise
    (Concus and Golub 1973).  No weight at n=1, where J = L0 exactly, or for
    a constant target.
    """
    if n == 1 or np.ptp(target) == 0.0:
        return None
    return (target / target.mean()) ** ((n - 1) / n)


class _FrameOperators:
    """Newton linear systems of one solve, in the A-orthonormal frame.

    The frame congruence R H[v] R with R = A^{-1/2} is a constant linear map
    of the Hessian symbols, so it is folded into the stencil once per solve:
    a Jacobian application is one forward transform, one stencil product,
    one batched inverse transform and one pointwise pairing.
    """

    def __init__(self, grid, A: np.ndarray, root_inv: np.ndarray, weight=None):
        tab = tables(grid.n, grid.N)
        self.grid = grid
        self.stencil = np.stack(congruence_components(root_inv, tuple(tab._stack)))
        self.product = np.empty(self.stencil.shape, dtype=np.complex128)
        # exact inverse of the mean-metric Laplacian as the spectral
        # preconditioner; modes with vanishing symbol (the constant and the
        # pure-Nyquist modes the spectral Hessian annihilates) are the discrete
        # gauge kernel and are projected out by a zero in the inverse symbol
        ell = np.broadcast_to(tab.laplacian_symbol(np.linalg.inv(A)), tab.rshape)
        self.kernel = ell == 0.0
        self.inv_ell = np.divide(1.0, ell, out=np.zeros(tab.rshape), where=~self.kernel)
        # pointwise scaling of the preconditioner's input (see _precond_weight)
        self.inv_weight = None if weight is None else 1.0 / weight
        self.matvecs = 0
        # argument and result of the latest matvec: lgmres ends by applying
        # J to the solution it returns, which gives the linear residual free
        self.last = (None, None)

    def applied_to(self, x):
        """J x if the latest matvec was applied to x as it is now, else None.

        Valid right after lgmres returns x, before any other matvec; lgmres
        leaves that result unmodified.  The stored pair is released.
        """
        v, out = self.last
        self.last = (None, None)
        if v is None or not np.array_equal(v, x):
            return None
        return out

    def operators(self, comps, det):
        """Jacobian J and preconditioner M at the frame metric comps.

        Both return a fresh array on every call: lgmres keeps them in its
        Krylov basis.
        """
        grid = self.grid
        npts = grid.num_points
        mean_det = float(det.mean())
        # det tr(g^{-1} S) = tr(adj(g) S): the pairing with the determinant
        # set to one is the adjugate pairing for n=2; for n=1 adj(g) = 1
        adj = comps if grid.n == 2 else (1.0,)

        def matvec(v):
            # lgmres opens every system with J applied to its zero start
            if not v.any():
                out = np.zeros(npts)
            else:
                self.matvecs += 1
                vh = forward(grid, v.reshape(grid.shape))
                hs = hessian_components(grid, vh, buf=self.product, stencil=self.stencil)
                out = trace_pair_components(adj, hs, 1.0)
                out -= out.mean()
                out = out.ravel()
            self.last = (v, out)
            return out

        def precond(v):
            v = v.reshape(grid.shape)
            if self.inv_weight is not None:
                v = v * self.inv_weight
            vh = forward(grid, v)
            vh *= self.inv_ell
            out = inverse(grid, vh)
            out /= mean_det
            return out.ravel()

        J = spla.LinearOperator((npts, npts), matvec=matvec, dtype=np.float64)
        M = spla.LinearOperator((npts, npts), matvec=precond, dtype=np.float64)
        return J, M


def solve_cy(problem: EllipticProblem, U0: ScalarField | None = None,
             max_iter: int = MAX_NEWTON_ITER):
    """Solve the prescribed-determinant equation by damped inexact Newton iteration.

    Each Newton system is solved inexactly by lgmres (Dembo, Eisenstat and
    Steihaug 1982).  The first to the relative tolerance residual / scale;
    every later one to the safeguarded Eisenstat-Walker choice 1 (SISC 1996),
    |‖F_k‖ - ‖F_{k-1} + J_{k-1} s_{k-1}‖| / ‖F_{k-1}‖ in the 2-norm of the
    linear systems, kept at least eta_{k-1}^((1+sqrt 5)/2) when that exceeds 0.1:
    the tolerance is tight when the last linear model predicted the new
    residual well, i.e. where the problem is nearly linear.  Every forcing
    term is capped at MAX_FORCING and floored at LINEAR_RTOL and at the
    value that leaves a linear residual of half the Newton tolerance, so
    early steps are not oversolved and the last ones are solved no tighter
    than needed.  J s comes from lgmres's own final residual check, so the
    forcing costs no Jacobian application.

    Returns (U, NewtonReport) with mean(U) = 0 and sup-norm residual below
    SUP_TOL_FACTOR c mean(h).  Raises NewtonConvergenceError when the
    iteration stalls.
    """
    grid = problem.form.grid
    A = problem.form.A
    eig = np.linalg.eigvalsh(A)
    if eig.min() <= POSITIVITY_EPS:
        raise ValueError("reference class must be positive definite for the elliptic solve")
    det_A = float(np.linalg.det(A).real)
    root_inv = matrix_sqrt_hermitian(np.linalg.inv(A))
    h = problem.omega.h.values
    # all residual arithmetic happens at the unit scale of the A-frame
    target = (problem.c / det_A) * h
    scale = problem.c * float(np.mean(h)) / det_A
    tol = scale * SUP_TOL_FACTOR

    report = NewtonReport()
    U = np.zeros(grid.shape) if U0 is None else U0.values.copy()
    offset = float(U.mean())
    U -= offset
    report.gauge_offset = offset

    comps, det = _frame_state(problem, root_inv, U)
    res = det - target
    res_norm = float(np.abs(res).max())
    report.residual_history.append(res_norm * det_A)

    ops = _FrameOperators(grid, A, root_inv, _precond_weight(target, grid.n))
    npts = grid.num_points

    forcing = res_norm / scale
    for it in range(max_iter):
        if res_norm <= tol:
            report.converged = True
            break
        J, M = ops.operators(comps, det)
        rhs = -(res - res.mean()).ravel()
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm > 0.0:
            # a linear residual of half the Newton tolerance is as good as solved
            forcing = max(forcing, 0.5 * tol / rhs_norm)
        rtol = max(LINEAR_RTOL, min(MAX_FORCING, forcing))
        matvecs_before = ops.matvecs
        # a maxiter return still carries the best iterate; the line search
        # below decides whether the direction is usable
        try:
            delta, _ = spla.lgmres(J, rhs, M=M, rtol=rtol, atol=0.0,
                                   maxiter=12, inner_m=30)
        except RuntimeError:
            # residual entirely inside the preconditioner kernel
            delta = np.zeros(npts)
        report.linear_rtols.append(rtol)
        report.matvecs.append(ops.matvecs - matvecs_before)
        # the linear model's residual J delta - rhs, kept as the two numbers
        # that with rhs_norm give its norm once the line search picks s
        J_delta = ops.applied_to(delta)
        model = None
        if J_delta is not None and rhs_norm > 0.0:
            J_delta -= rhs
            model = (float(np.linalg.norm(J_delta)), float(J_delta @ rhs))
        # the next Krylov basis is the solve's memory peak: hold no stale
        # full-grid arrays through it
        del J_delta
        delta = delta.reshape(grid.shape)
        delta -= delta.mean()

        s = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            trial = U + s * delta
            trial -= trial.mean()
            try:
                comps_t, det_t = _frame_state(problem, root_inv, trial)
            except SingularMetricError:
                s *= 0.5
                continue
            res_t = det_t - target
            res_t_norm = float(np.abs(res_t).max())
            if res_t_norm < res_norm:
                if model is None:
                    forcing = res_t_norm / scale
                else:
                    # ‖s (J delta - rhs) + (s - 1) rhs‖
                    r1, r1_rhs = model
                    linear = r1 if s == 1.0 else math.sqrt(max(
                        0.0, (s * r1) ** 2 + 2.0 * s * (s - 1.0) * r1_rhs
                        + ((s - 1.0) * rhs_norm) ** 2))
                    new_norm = float(np.linalg.norm(res_t - res_t.mean()))
                    forcing = abs(new_norm - linear) / rhs_norm
                    # safeguard: the previous term to the golden-ratio power
                    floor = rtol ** (0.5 * (1.0 + math.sqrt(5.0)))
                    if floor > 0.1:
                        forcing = max(forcing, floor)
                U, comps, det, res, res_norm = trial, comps_t, det_t, res_t, res_t_norm
                accepted = True
                break
            s *= 0.5
        del delta
        report.damping_history.append(s if accepted else 0.0)
        report.iterations = it + 1
        report.residual_history.append(res_norm * det_A)
        if not accepted:
            # distinguish a genuine stall from an under-resolved target whose
            # residual lives in the discrete gauge kernel
            kernel = ops.kernel
            res_hat = np.abs(forward(grid, res)) / npts
            kern = float(res_hat[kernel].max()) if kernel.any() else 0.0
            report.message = f"line search failed at iteration {it}"
            if kern > 0.25 * res_norm:
                report.message += (
                    f" (target has unresolvable Nyquist-mode content ~{kern:.2e};"
                    " refine the grid)"
                )
            break
    report.final_residual = res_norm * det_A
    if not report.converged and res_norm <= tol:
        report.converged = True
    if not report.converged:
        raise NewtonConvergenceError(report)
    return ScalarField(grid, U), report


def psi_problem(flow_problem, t: float) -> EllipticProblem:
    """Elliptic reference problem at one time of a collapsed pencil.

    The e^{-rt} scalings of the density and the compatibility constant cancel
    exactly, leaving det(A_t + H[phi_t + psi]) = det(A_t) h / mean(h).
    """
    grid = flow_problem.grid
    w = math.exp(-t)
    phi_t = inverse(grid, w * flow_problem.phi0_hat + (1.0 - w) * flow_problem.phi_inf_hat)
    form = KahlerForm(flow_problem.A_t(t), ScalarField(grid, phi_t))
    c = float(np.linalg.det(form.A).real) / flow_problem.mean_h
    return EllipticProblem(form, flow_problem.omega, c)


def solve_psi_family(flow_problem, times):
    """Solve the per-time reference equations along a collapsed pencil.

    Returns (psis, reports); each solve is warm-started from the previous
    time.  Raises ValueError for non-collapsed paths and
    NewtonConvergenceError (carrying the failing time in the message) on a
    per-time failure.
    """
    if flow_problem.path.regime != Regime.COLLAPSED:
        raise ValueError("psi family requires a collapsed class path")
    psis = []
    reports = []
    guess = None
    for t in times:
        prob = psi_problem(flow_problem, t)
        # warm starts can lose admissibility as the pencil degenerates;
        # back off toward the always-admissible zero guess
        candidates = [guess] if guess is not None else [None]
        if guess is not None:
            candidates += [ScalarField(guess.grid, s * guess.values) for s in (0.5, 0.25)]
            candidates.append(None)
        last_err = None
        for g0 in candidates:
            try:
                psi, rep = solve_cy(prob, U0=g0)
                break
            except SingularMetricError as err:
                last_err = err
                continue
            except NewtonConvergenceError as err:
                err.report.message += f" (psi solve at t={t:g})"
                raise
        else:
            raise ValueError(f"no admissible initial guess for psi solve at t={t:g}: {last_err}")
        psis.append(psi)
        reports.append(rep)
        guess = psi
    return psis, reports
