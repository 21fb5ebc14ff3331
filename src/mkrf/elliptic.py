"""Damped Newton solver for the torus Monge-Ampere equation.

solve_cy finds the mean-zero potential U with

    det(A + H[phi] + H[U]) = c h   pointwise,   c = det(A) / mean(h),

which is discretely solvable because the grid mean of the determinant equals
det(A) for any periodic potential.  Newton linear systems are solved
inexactly, to a tolerance proportional to the current residual, by a right
preconditioned Krylov iteration, and steps are damped by halving until the
sup-norm residual decreases.  The preconditioner divides its input by the
fixed density weight w = (target / mean target)^((n-1)/n) and then inverts
the constant-coefficient Laplacian of the mean metric exactly in Fourier
space; there is no weight at n=1 or for a constant density.  lgmres
iterates on the preconditioned operator K = J P, and the Newton step is
lifted from the Krylov solution once per system; both start from the same
preconditioned spectrum of their input.  Every Hessian of a solve, in the
frame states and in the applications of K, is made directly in the
A-orthonormal frame from one frame stencil, the frame congruence of the
Hessian symbols built once per solve.  lgmres runs one restart cycle per
call, and K y is kept current from its augmentation vectors, so no
application of K checks the iterate it returns: that value decides
convergence, ends a Krylov solve whose restart cycles stop reducing the
residual, and feeds the forcing.  The operator applied to the zero vector,
which lgmres's zero start asks for in every system, is answered without a
transform and not counted.  One exact componentwise test, shared with the
flow, decides positivity of every frame state.  A solve on a grid whose
half is a grid too starts from the interpolated solution of the same
equation on the half grid, solved to a looser certificate (nested
iteration); the fine certificate is unchanged.

solve_psi_family reuses the same solver along a collapsed pencil, producing
the per-time reference potentials whose uniform bounds the collapsed-regime
monitors consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
from .grid import GridSpec, ScalarField, forward, hessian_rows, inverse, tables

SUP_TOL_FACTOR = 1e-10
LINEAR_RTOL = 1e-8
# largest forcing term: the linear tolerance of the first Newton step is the
# relative residual, that of the later ones the Eisenstat-Walker choice 1;
# all are capped here and floored at LINEAR_RTOL
MAX_FORCING = 0.1
MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
# certificate of the coarse solves of a nested start, relative like
# SUP_TOL_FACTOR.  The interpolated start's residual cannot fall below the
# half grid's discretization error (5e-4 of the scale on cy-n24), and at
# 1e-4 it reaches that floor on every problem swept; tighter coarse solves
# buy no fine iteration and can stagnate on an under-resolved half grid
# (see the sweep in CHANGES.md)
COARSE_TOL_FACTOR = 1e-4
# a restart cycle of lgmres that leaves more than this share of the linear
# residual it started from ends the Krylov solve: the rest of the
# right-hand side lies outside the reach of the Jacobian (on an
# under-resolved density), and further cycles only repeat the work
STAGNATION_RATIO = 0.9
# restart cycles of one Krylov solve, each of at most 30 Krylov iterations
MAX_KRYLOV_CYCLES = 12


class NewtonConvergenceError(Exception):
    """A stalled Newton solve; the message is made from the report when
    printed, so it shows what was added to report.message after the raise."""

    def __init__(self, report):
        super().__init__()
        self.report = report

    def __str__(self):
        rep = self.report
        return (f"Newton did not converge: residual {rep.final_residual:.3e} after "
                f"{rep.iterations} iterations" + (rep.message and f": {rep.message.lstrip()}"))


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
    converged: bool = False
    message: str = ""
    # per Newton iteration: the lgmres relative tolerance and the number of
    # Jacobian applications it took
    linear_rtols: list = field(default_factory=list)
    matvecs: list = field(default_factory=list)
    # per Newton iteration: the relative linear residual
    # ‖J delta - rhs‖ / ‖rhs‖ the Krylov solve reached, from the K y it
    # keeps current; None for a zero right-hand side
    linear_residuals: list = field(default_factory=list)
    # where the iteration started: "nested" (the interpolated half-grid
    # solution) or "zero"; and the coarse solves of the nested start,
    # coarsest first, as {N, iterations, matvecs, converged}
    start: str = "zero"
    coarse_levels: list = field(default_factory=list)


def _frame_stencil(grid, A: np.ndarray) -> np.ndarray:
    """Symbols of the Hessian in the A-orthonormal frame: the congruence
    R S R, R = A^{-1/2}, of the tables' symbols S, as a real stack of shape
    (components,) + rshape.

    The congruence is a constant linear map of the Hessian components, so
    the rows of hessian_components with this stencil are the components of
    A^{-1/2} H A^{-1/2}, with no congruence on grid fields.  It reads the
    symbols as the tables make them, so no stack of the plain symbols is
    made; every frame symbol spans the full grid (at n=2 each has an
    off-diagonal term).
    """
    root_inv = matrix_sqrt_hermitian(np.linalg.inv(A))
    return np.stack(congruence_components(root_inv, tables(grid.n, grid.N).symbols()))


def _frame_state(problem: EllipticProblem, stencil: np.ndarray, U: np.ndarray,
                 row_buf: np.ndarray):
    """Metric in the A-orthonormal frame, I + A^{-1/2} H[phi+U] A^{-1/2}, and
    its determinant.

    Working in this frame keeps the residual at unit scale even when the
    class matrix is nearly degenerate: the frame rescaling is applied to the
    Hessian symbols (stencil, the solve's _frame_stencil), and the transform
    noise of each row is proportional to that row's own spectral mass.  The
    rows are made one at a time through the one-row product buffer row_buf.
    Raises SingularMetricError unless the frame metric is positive.
    """
    grid = problem.form.grid
    coeffs = forward(problem.form.phi.values + U)
    fr = tuple(hessian_rows(hessian_components, grid, coeffs, stencil, row_buf))
    del coeffs
    for diagonal in fr[:grid.n]:
        diagonal += 1.0
    det = det_components(fr)
    check_positive_components(fr, det=det)
    return fr, det


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
    """Newton linear systems of one solve, in the A-orthonormal frame, right
    preconditioned.

    The preconditioner P = L0^{-1} (. / w) / mean_det approximates J^{-1}.
    lgmres solves K y = rhs for K = J P, and the Newton step is the lifted
    delta = P y, so lgmres's residual ‖rhs - K y‖ is the true linear
    residual ‖rhs - J delta‖ (Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., section 9.3).  An application of K and a lift both
    start from the preconditioned spectrum forward(y / w) / L0 of their
    input: an application then makes the frame Hessian rows from it with
    the solve's frame stencil, one stencil product and one inverse
    transform per row, consumed by one pairing as they are made; a lift is
    its one inverse transform.  row_buf is the solve's one-row product
    buffer (see grid.hessian_rows), shared with its frame states.  Of their own
    the operators keep only 1 / w, the inverse symbol and its kernel mask;
    y / w is a temporary that the forward transform consumes at once.
    """

    def __init__(self, grid, A: np.ndarray, stencil: np.ndarray, row_buf: np.ndarray, weight):
        tab = tables(grid.n, grid.N)
        self.grid = grid
        # exact inverse of the mean-metric Laplacian as the spectral
        # preconditioner; modes with vanishing symbol (the constant and the
        # pure-Nyquist modes the spectral Hessian annihilates) are the discrete
        # gauge kernel and are projected out by a zero in the inverse symbol
        ell = np.broadcast_to(tab.laplacian_symbol(np.linalg.inv(A)), tab.rshape)
        self.kernel = ell == 0.0
        self.inv_ell = np.divide(1.0, ell, out=np.zeros(tab.rshape), where=~self.kernel)
        self.stencil = stencil
        self.row_buf = row_buf
        # pointwise scaling of the preconditioner's input (see _precond_weight)
        self.inv_weight = None if weight is None else 1.0 / weight
        self.matvecs = 0

    def _preconditioned_spectrum(self, y):
        """forward(y / w) times the inverse Laplacian symbol, a fresh array:
        the spectrum of P y up to the factor 1 / mean_det."""
        v = y.reshape(self.grid.shape)
        if self.inv_weight is not None:
            v = v * self.inv_weight
        yh = forward(v)
        yh *= self.inv_ell
        return yh

    def operator(self, comps, mean_det: float):
        """K = J P at the frame metric comps, whose determinant has the grid
        mean mean_det.

        It returns a fresh array on every call, the first Hessian row
        overwritten by the pairing: lgmres keeps them in its Krylov basis.
        """
        import scipy.sparse.linalg as spla  # see solve

        grid = self.grid
        npts = grid.num_points
        # det tr(g^{-1} S) = tr(adj(g) S): the pairing with the determinant
        # set to one is the adjugate pairing for n=2; for n=1 adj(g) = 1
        adj = comps if grid.n == 2 else (1.0,)

        def matvec(y):
            # lgmres opens every system with K applied to its zero start
            if not y.any():
                return np.zeros(npts)
            self.matvecs += 1
            rows = hessian_rows(hessian_components, grid, self._preconditioned_spectrum(y),
                                self.stencil, self.row_buf)
            out = trace_pair_components(adj, rows, 1.0)
            out -= out.mean()
            out /= mean_det
            return out.ravel()

        return spla.LinearOperator((npts, npts), matvec=matvec, dtype=np.float64)

    def solve(self, comps, mean_det: float, rhs, rtol: float):
        """lgmres on K y = rhs, with K the operator at comps and mean_det, to
        the relative tolerance rtol; returns (y, K y).

        lgmres runs one restart cycle per call and carries its augmentation
        pairs (dx/‖dx‖, K dx/‖dx‖) from call to call (Baker, Jessup and
        Manteuffel, SIMAX 26, 2005), so K y is kept current from the newest
        pair without an application of K.  That residual ends the solve
        once it meets rtol, or once a cycle removed less than
        1 - STAGNATION_RATIO of the residual it started from.  Each cycle
        after the first opens with lgmres's own true-residual application.

        scipy.sparse.linalg is imported here, at the first Krylov solve, and
        not with the module: a run without Newton solves never loads it.
        """
        import scipy.sparse.linalg as spla

        K = self.operator(comps, mean_det)
        rhs_norm = float(np.linalg.norm(rhs))
        y = None
        Ky = np.zeros(rhs.shape)
        outer_v = []
        res, prev = rhs_norm, math.inf
        for _ in range(MAX_KRYLOV_CYCLES):
            if res <= rtol * rhs_norm or res > STAGNATION_RATIO * prev:
                break
            newest = outer_v[-1] if outer_v else None
            y_new, _ = spla.lgmres(K, rhs, x0=y, rtol=rtol, atol=0.0, maxiter=1, inner_m=30,
                                   outer_v=outer_v)
            if not outer_v or outer_v[-1] is newest:
                # no step: the opening residual met rtol, or the cycle broke
                # down (a right-hand side with no Krylov direction)
                break
            dx_norm = float(np.linalg.norm(y_new if y is None else y_new - y))
            Ky += dx_norm * outer_v[-1][1]
            y = y_new
            prev, res = res, float(np.linalg.norm(rhs - Ky))
        return (np.zeros(rhs.shape) if y is None else y), Ky

    def lift(self, y, mean_det: float):
        """The Newton step delta = P y of a solution y of K y = rhs."""
        delta = inverse(self.grid, self._preconditioned_spectrum(y))
        delta /= mean_det
        return delta


def solve_cy(problem: EllipticProblem):
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
    than needed.  J s comes from the K y the Krylov solve keeps current, so
    the forcing costs no Jacobian application.

    Nested iteration (Bank and Rose 1982): while N/2 is even and at least
    8, the equation is restricted to the half grid; the restricted problems
    are solved coarsest first to the looser certificate COARSE_TOL_FACTOR,
    each from the prolonged solution of the one below, else from zero, and
    by mesh independence (Allgower, Boehmer, Potra and Rheinboldt 1986) the
    fine iteration then starts inside its quadratic basin.  coarse_levels
    records the coarse solves as {N, iterations, matvecs, converged}.

    Returns (U, NewtonReport) with mean(U) = 0 and sup-norm residual below
    SUP_TOL_FACTOR c mean(h).  Raises NewtonConvergenceError when the
    iteration stalls.
    """
    lam = float(np.linalg.eigvalsh(problem.form.A).min())
    if lam <= POSITIVITY_EPS:
        raise ValueError(f"class must be positive definite for the elliptic solve"
                         f" (smallest eigenvalue {lam:.3e} <= {POSITIVITY_EPS:g})")
    chain = [problem]
    while chain[-1].form.grid.N % 4 == 0 and chain[-1].form.grid.N >= 16:
        chain.append(_restrict(chain[-1]))
    levels = []
    start = None  # the prolonged solution of the level below, if it converged
    while len(chain) > 1:
        grid = chain[-1].form.grid
        try:
            # popped, and the solution rebound: no coarse array outlives its level
            start, report = _newton_from(chain.pop(), start, COARSE_TOL_FACTOR)
            start = _prolong(ScalarField(grid, start), chain[-1].form.grid).values
        except NewtonConvergenceError as err:
            start, report = None, err.report
        except SingularMetricError:
            # the coarse data is not a Kahler metric at all
            start, report = None, NewtonReport()
        levels.append({"N": grid.N, "iterations": report.iterations,
                       "matvecs": list(report.matvecs), "converged": start is not None})
    U, report = _newton_from(problem, start, SUP_TOL_FACTOR)
    report.coarse_levels = levels
    return ScalarField(problem.form.grid, U), report


def _restrict(problem: EllipticProblem) -> EllipticProblem:
    """The same equation on the half grid.

    The even points of the grid are exactly the points of the half grid, so
    phi and h are taken there; the compatibility constant is recomputed from
    the coarse mean of h, which keeps the coarse problem discretely solvable.
    """
    grid = problem.form.grid
    coarse = GridSpec(grid.n, grid.N // 2)
    even = (slice(None, None, 2),) * (2 * grid.n)
    phi = ScalarField(coarse, np.ascontiguousarray(problem.form.phi.values[even]))
    h = ScalarField(coarse, np.ascontiguousarray(problem.omega.h.values[even]))
    return EllipticProblem.compatible(KahlerForm(problem.form.A, phi), VolumeDensity(h))


def _prolong(coarse: ScalarField, fine: GridSpec) -> ScalarField:
    """Trigonometric interpolation of a field onto a finer grid.

    The rfft spectrum is zero-padded: the coarse Nyquist planes, whose modes
    the spectral Hessian annihilates and which have no single fine
    counterpart, are dropped, and the coefficients are scaled by
    (N_fine / N_coarse)^(2n) for the unnormalized transforms.  A field
    band-limited below the coarse Nyquist frequency is reproduced exactly.
    """
    nc, nf = coarse.grid.N, fine.N
    half = nc // 2
    kept_c = np.r_[0:half, half + 1:nc]
    kept_f = np.r_[0:half, nf - half + 1:nf]
    naxes = 2 * fine.n
    coeffs = forward(coarse.values)
    padded = np.zeros(tables(fine.n, nf).rshape, dtype=np.complex128)
    last = np.arange(half)
    padded[np.ix_(*[kept_f] * (naxes - 1), last)] = coeffs[np.ix_(*[kept_c] * (naxes - 1), last)]
    padded *= (nf / nc) ** naxes
    return ScalarField(fine, inverse(fine, padded))


def _newton_from(problem: EllipticProblem, start, tol_factor: float):
    """_newton from start, or from zero when there is none or it is
    inadmissible on this grid."""
    if start is not None:
        try:
            U, report = _newton(problem, start, tol_factor)
        except SingularMetricError:
            pass
        else:
            report.start = "nested"
            return U, report
    return _newton(problem, np.zeros(problem.form.grid.shape), tol_factor)


def _frame_target(problem: EllipticProblem, det_A: float) -> np.ndarray:
    """The right-hand side (c / det A) h of the equation in the A-frame, a
    fresh array: all residual arithmetic happens at its unit scale."""
    return (problem.c / det_A) * problem.omega.h.values


def _newton(problem: EllipticProblem, U: np.ndarray, tol_factor: float):
    """Damped inexact Newton from the mean-zero start U, which is updated in
    place, to the sup-norm certificate tol_factor * scale.

    The frame target is a grid field only until the preconditioner weight
    is made from it; the line search makes it again for each trial, so no
    Krylov system holds it.

    Returns (U, NewtonReport).  Raises SingularMetricError when the start is
    inadmissible and NewtonConvergenceError when the iteration stalls.
    """
    grid = problem.form.grid
    A = problem.form.A
    det_A = float(np.linalg.det(A).real)
    stencil = _frame_stencil(grid, A)
    target = _frame_target(problem, det_A)
    scale = problem.c * float(np.mean(problem.omega.h.values)) / det_A
    tol = scale * tol_factor

    report = NewtonReport()
    # the one-row product buffer of every Hessian transform in this solve
    row_buf = np.empty((1,) + tables(grid.n, grid.N).rshape, dtype=np.complex128)
    comps, det = _frame_state(problem, stencil, U, row_buf)
    res = det - target
    res_norm = float(np.abs(res).max())
    report.residual_history.append(res_norm * det_A)

    # the Newton right-hand side, the residual less its mean, negated; the
    # line search overwrites it and state in place: allocated before the
    # first Krylov basis, these arrays stay below every later one, so the
    # heap top can be returned after each Krylov solve
    state = (U, *comps)
    rhs = np.negative(res.ravel() - res.mean())
    mean_det = float(det.mean())
    del det, res
    ops = _FrameOperators(grid, A, stencil, row_buf, _precond_weight(target, grid.n))
    del target
    npts = grid.num_points

    forcing = res_norm / scale
    for it in range(MAX_NEWTON_ITER):
        if res_norm <= tol:
            report.converged = True
            break
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm > 0.0:
            # a linear residual of half the Newton tolerance is as good as solved
            forcing = max(forcing, 0.5 * tol / rhs_norm)
        rtol = max(LINEAR_RTOL, min(MAX_FORCING, forcing))
        matvecs_before = ops.matvecs
        # the line search below decides whether the direction is usable
        y, J_delta = ops.solve(comps, mean_det, rhs, rtol)
        report.linear_rtols.append(rtol)
        report.matvecs.append(ops.matvecs - matvecs_before)
        # the linear model's residual J delta - rhs, kept as the two numbers
        # that with rhs_norm give its norm once the line search picks s
        model = None
        if rhs_norm > 0.0:
            J_delta -= rhs
            model = (float(np.linalg.norm(J_delta)), float(J_delta @ rhs))
            report.linear_residuals.append(model[0] / rhs_norm)
        else:
            report.linear_residuals.append(None)
        del J_delta
        delta = ops.lift(y, mean_det)
        del y
        delta -= delta.mean()

        step = _line_search(problem, stencil, row_buf, det_A, state, rhs, delta, res_norm)
        del delta
        report.iterations = it + 1
        if step is None:
            report.damping_history.append(0.0)
            report.residual_history.append(res_norm * det_A)
            # distinguish a genuine stall from an under-resolved target whose
            # residual lives in the discrete gauge kernel (its mean, which
            # rhs lacks, is round-off: mean det = det A on every grid)
            kernel = ops.kernel
            res_hat = np.abs(forward(rhs.reshape(grid.shape))) / npts
            kern = float(res_hat[kernel].max()) if kernel.any() else 0.0
            report.message = f"line search failed at iteration {it}"
            if kern > 0.25 * res_norm:
                report.message += (
                    f" (target has unresolvable Nyquist-mode content ~{kern:.2e};"
                    " refine the grid)"
                )
            break
        s, res_t_norm, mean_det = step
        if model is None:
            forcing = res_t_norm / scale
        else:
            # ‖s (J delta - rhs) + (s - 1) rhs‖
            r1, r1_rhs = model
            linear = r1 if s == 1.0 else math.sqrt(max(
                0.0, (s * r1) ** 2 + 2.0 * s * (s - 1.0) * r1_rhs
                + ((s - 1.0) * rhs_norm) ** 2))
            new_norm = float(np.linalg.norm(rhs))
            forcing = abs(new_norm - linear) / rhs_norm
            # safeguard: the previous term to the golden-ratio power
            floor = rtol ** (0.5 * (1.0 + math.sqrt(5.0)))
            if floor > 0.1:
                forcing = max(forcing, floor)
        res_norm = res_t_norm
        report.damping_history.append(s)
        report.residual_history.append(res_norm * det_A)
    report.final_residual = res_norm * det_A
    if not report.converged and res_norm <= tol:
        report.converged = True
    if not report.converged:
        raise NewtonConvergenceError(report)
    return U, report


def _line_search(problem: EllipticProblem, stencil, row_buf, det_A: float, state, rhs,
                 delta, res_norm):
    """Damped step: halve s until U + s delta is admissible and lowers the
    sup-norm residual against the frame target of det_A.  The accepted step
    overwrites state = (U, *comps) and rhs, the negated residual less its
    mean, in place.  Returns (s, residual, mean det) or None after
    MAX_HALVINGS halvings.
    """
    U = state[0]
    s = 1.0
    for _ in range(MAX_HALVINGS):
        trial = U + s * delta
        trial -= trial.mean()
        try:
            comps, det = _frame_state(problem, stencil, trial, row_buf)
        except SingularMetricError:
            s *= 0.5
            continue
        res = _frame_target(problem, det_A)
        np.subtract(det, res, out=res)
        trial_norm = float(np.abs(res).max())
        if trial_norm < res_norm:
            for cur, new in zip(state, (trial, *comps)):
                cur[...] = new
            np.negative(res.ravel() - res.mean(), out=rhs)
            return s, trial_norm, float(det.mean())
        s *= 0.5
    return None


def psi_problem(flow_problem, t: float) -> EllipticProblem:
    """Elliptic reference problem at one time of a collapsed pencil.

    The e^{-rt} scalings of the density and the compatibility constant cancel
    exactly, leaving det(A_t + H[phi_t + psi]) = det(A_t) h / mean(h).
    """
    grid = flow_problem.grid
    phi_t = ScalarField(grid, inverse(grid, flow_problem.phi_t_hat(t)))
    return EllipticProblem.compatible(KahlerForm(flow_problem.A_t(t), phi_t), flow_problem.omega)


def solve_psi_family(flow_problem, times):
    """Solve the per-time reference equations along a collapsed pencil.

    Returns (psis, reports); every solve starts cold, from its half-grid
    solution where there is one: psi(t_prev) is no admissible start on the
    collapsed pencils tried, and where it is, the nested start needs fewer
    fine Newton iterations.
    Raises ValueError for non-collapsed paths or an inadmissible start and
    NewtonConvergenceError (carrying the failing time in the message) on a
    per-time failure.
    """
    if flow_problem.path.regime != Regime.COLLAPSED:
        raise ValueError("psi family requires a collapsed class path")
    psis = []
    reports = []
    for t in times:
        try:
            psi, rep = solve_cy(psi_problem(flow_problem, t))
        except NewtonConvergenceError as err:
            err.report.message += f" (psi solve at t={t:g})"
            raise
        except SingularMetricError as err:
            raise ValueError(f"no admissible start for psi solve at t={t:g}: {err}") from err
        psis.append(psi)
        reports.append(rep)
    return psis, reports
