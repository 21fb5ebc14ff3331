"""Kahler forms on the torus, Monge-Ampere densities, traces, and the class pencil.

A Kahler form is a constant Hermitian matrix A (the class representative;
torus classes always have one) plus the complex Hessian of a periodic
potential.  Densities follow the convention det(g)/h, which absorbs all
factorial and 2^n constants: the identity metric against the Euclidean
density has density 1, and the torus Monge-Ampere conservation law reads
mean(det) = det(A) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import GridSpec, ScalarField, complex_hessian, forward, hessian_components

# Pointwise metrics below this smallest-eigenvalue threshold count as singular;
# it separates genuine degeneration from round-off.
POSITIVITY_EPS = 1e-10

HERMITIAN_TOL = 1e-12
# width of the bracket compute_T narrows the pencil's boundary parameter to
BISECTION_TOL = 1e-12


class SingularMetricError(Exception):
    """Positivity loss of a metric at some grid point."""

    def __init__(self, lambda_min: float, location, t: float | None):
        self.lambda_min = float(lambda_min)
        self.location = tuple(int(i) for i in location)
        self.t = t
        msg = f"metric not positive: lambda_min={self.lambda_min:.3e} at grid point {self.location}"
        if t is not None:
            msg += f" (t={t:.6f})"
        super().__init__(msg)


class Regime(str, Enum):
    KAHLER_LIMIT = "KAHLER_LIMIT"
    FINITE_TIME = "FINITE_TIME"
    COLLAPSED = "COLLAPSED"


def as_matrix(A, n: int) -> np.ndarray:
    M = np.asarray(A, dtype=np.complex128)
    if M.shape != (n, n):
        raise ValueError(f"expected {n}x{n} matrix, got shape {M.shape}")
    return M


def check_hermitian(A: np.ndarray, what: str) -> None:
    if np.abs(A - A.conj().T).max() > HERMITIAN_TOL * max(1.0, np.abs(A).max()):
        raise ValueError(f"{what} is not Hermitian within tolerance")


# ---------------------------------------------------------------------------
# Hermitian matrix fields are real component arrays, as a tuple or as the
# stack hessian_components returns:
# n=1: (g11,); n=2: (g11, g22, p12, q12) with entry01 = p12 + i q12.


def constant_components(A: np.ndarray, n: int) -> tuple:
    """The components of a constant Hermitian matrix, as scalars."""
    if n == 1:
        return (A[0, 0].real,)
    return (A[0, 0].real, A[1, 1].real, A[0, 1].real, A[0, 1].imag)


def metric_components(A: np.ndarray, hess_stack: np.ndarray | None, n: int, shape):
    """Component arrays of A + H, H given as a hessian_components stack
    (None for H = 0)."""
    consts = constant_components(A, n)
    if hess_stack is None:
        return tuple(c + np.zeros(shape) for c in consts)
    return tuple(c + hess_stack[i] for i, c in enumerate(consts))


def det_components(comps):
    """Pointwise determinant; for n=1 this is comps[0] itself."""
    if len(comps) == 1:
        return comps[0]
    g11, g22, p, q = comps
    qq = q * q
    pq = p * p
    pq += qq
    det = np.multiply(g11, g22, out=qq)
    det -= pq
    return det


def diagonal_and_det(A: np.ndarray, hess_rows, n: int) -> tuple:
    """The diagonal (g11,) / (g11, g22) of g = A + H and det(g), with H given
    as its rows in the order of hessian_components (e.g. grid.hessian_rows).

    The rows are read strictly in order and are the workspace: the diagonal
    is made in the first two and det in the last (for n=1 det is g11
    itself).  The off-diagonal rows are squared as soon as they arrive, so
    at most four rows are live.  Each entry is H + A (IEEE addition
    commutes) and det is formed with det_components' operations in its
    order, so every bit is the bit of metric_components and det_components.
    """
    consts = constant_components(A, n)
    rows = iter(hess_rows)
    g11 = next(rows)
    g11 += consts[0]
    if n == 1:
        return (g11,), g11
    g22 = next(rows)
    g22 += consts[1]
    pq = next(rows)
    pq += consts[2]
    pq *= pq
    q = next(rows)
    q += consts[3]
    q *= q
    pq += q
    det = np.multiply(g11, g22, out=q)
    det -= pq
    return (g11, g22), det


def lambda_min_components(diag, det):
    """Smallest eigenvalue field, computed in a cancellation-safe form, from
    the diagonal (g11,) / (g11, g22) and det of a Hermitian field."""
    if len(diag) == 1:
        return diag[0]
    g11, g22 = diag
    m = 0.5 * (g11 + g22)
    s = np.sqrt(np.maximum(m * m - det, 0.0))
    lam_max = m + s
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(lam_max > 0.0, det / np.where(lam_max > 0.0, lam_max, 1.0), m - s)
    return np.where(det > 0.0, safe, m - s)


def trace_pair_components(phi_comps, psi_comps, phi_det=None):
    """Pointwise trace of psi against the inverse of phi.

    The arrays of psi_comps (e.g. the rows of a hessian_components stack)
    are the workspace: the result is written into the first row and
    returned, and the other rows are clobbered.  The rows are read strictly
    in order, so psi_comps may be an iterator that makes each row on demand;
    at most three of them are live at once.
    """
    rows = iter(psi_comps)
    if len(phi_comps) == 1:
        s11 = next(rows)
        return np.divide(s11, phi_comps[0], out=s11)
    f11, f22, fp, fq = phi_comps
    if phi_det is None:
        phi_det = det_components(phi_comps)
    s11 = next(rows)
    out = np.multiply(f22, s11, out=s11)
    s22 = next(rows)
    out += np.multiply(f11, s22, out=s22)
    del s22
    sp = next(rows)
    cross = np.multiply(fp, sp, out=sp)
    sq = next(rows)
    cross += np.multiply(fq, sq, out=sq)
    cross *= 2.0
    out -= cross
    out /= phi_det
    return out


def matrix_sqrt_hermitian(A: np.ndarray) -> np.ndarray:
    """Principal square root of a positive definite 1x1 or 2x2 Hermitian matrix."""
    if A.shape == (1, 1):
        return np.array([[complex(np.sqrt(A[0, 0].real))]])
    det = float(np.linalg.det(A).real)
    tr = float(np.trace(A).real)
    s = np.sqrt(det)
    tau = np.sqrt(tr + 2.0 * s)
    return (A + s * np.eye(2)) / tau


def congruence_components(M: np.ndarray, comps):
    """Component arrays of M X M for constant Hermitian M and Hermitian field X."""
    if len(comps) == 1:
        return ((M[0, 0].real ** 2) * comps[0],)
    x11, x22, p, q = comps
    a = M[0, 0].real
    b = M[1, 1].real
    mr, mi = M[0, 1].real, M[0, 1].imag
    m2 = mr * mr + mi * mi
    # Re(conj(m) xi) with xi = p + i q
    rmx = mr * p + mi * q
    y11 = a * a * x11 + 2.0 * a * rmx + m2 * x22
    y22 = m2 * x11 + 2.0 * b * rmx + b * b * x22
    # y12 = a m x11 + a b xi + m^2 conj(xi) + b m x22
    m_sq_r = mr * mr - mi * mi
    m_sq_i = 2.0 * mr * mi
    y12_r = a * mr * x11 + a * b * p + (m_sq_r * p + m_sq_i * q) + b * mr * x22
    y12_i = a * mi * x11 + a * b * q + (m_sq_i * p - m_sq_r * q) + b * mi * x22
    return (y11, y22, y12_r, y12_i)


def positive_components(comps, det, floor: float = POSITIVITY_EPS,
                        work: np.ndarray | None = None) -> bool:
    """Whether the smallest eigenvalue is at least floor at every grid point.

    det is det_components(comps).  Only the diagonal of comps is read, so it
    may be (g11, g22) alone.  Decided without an eigenvalue: for n=2,
    lambda_min >= floor iff g11 >= floor and det(g - floor I) >= 0, and
    det > 0 is required as well.  Any NaN fails.  work, shaped like det,
    receives the shifted determinant (None to allocate).
    """
    det_min = float(det.min())
    if len(comps) == 1:
        return det_min >= floor and det_min > 0.0
    g11, g22 = comps[0], comps[1]
    if not (det_min > 0.0 and g11.min() >= floor):
        return False
    shifted = np.add(g11, g22, out=work)
    shifted *= floor
    np.subtract(det, shifted, out=shifted)
    shifted += floor * floor
    return bool(shifted.min() >= 0.0)


def singular_metric_error(diag, det, t: float | None) -> SingularMetricError:
    """The error for a field that failed positive_components (diag and det
    as there): its smallest eigenvalue and the grid point where it sits."""
    lam = lambda_min_components(diag, det)
    loc = np.unravel_index(int(np.argmin(lam)), lam.shape)
    return SingularMetricError(float(lam.min()), loc, t)


def check_positive_components(comps, t: float | None = None, det=None):
    """Raise SingularMetricError where the pointwise smallest eigenvalue dips
    below POSITIVITY_EPS; det, when given, is det_components(comps), and
    then comps may be the diagonal alone."""
    if det is None:
        det = det_components(comps)
    if not positive_components(comps, det):
        raise singular_metric_error(comps[:2], det, t)


# ---------------------------------------------------------------------------
# Domain types


@dataclass
class KahlerForm:
    """Constant class representative A plus a periodic potential phi."""

    A: np.ndarray
    phi: ScalarField

    def __post_init__(self):
        self.A = as_matrix(self.A, self.phi.grid.n)
        check_hermitian(self.A, "class representative")

    @property
    def grid(self) -> GridSpec:
        return self.phi.grid

    def metric(self, extra: ScalarField | None = None):
        """Component arrays of A + H[phi] (+ H[extra])."""
        vals = self.phi.values if extra is None else self.phi.values + extra.values
        if np.any(vals):
            hs = hessian_components(self.grid, forward(vals))
        else:
            hs = None
        return metric_components(self.A, hs, self.grid.n, self.grid.shape)


@dataclass
class VolumeDensity:
    """Positive density h of the background volume relative to the Euclidean one."""

    h: ScalarField

    def __post_init__(self):
        if not np.all(np.isfinite(self.h.values)) or self.h.values.min() <= 0.0:
            raise ValueError("volume density must be positive and finite")

    @property
    def grid(self) -> GridSpec:
        return self.h.grid


@dataclass
class ClassPath:
    """Cohomology pencil A_t = Ainf + e^{-t}(A0 - Ainf) with singular time T."""

    A0: np.ndarray
    Ainf: np.ndarray
    T: float
    regime: Regime
    r: int = 0
    s_star: float = 0.0

    def A_t(self, t: float) -> np.ndarray:
        w = math.exp(-t)
        return self.Ainf + w * (self.A0 - self.Ainf)


# ---------------------------------------------------------------------------
# Operations


def ma_density(form: KahlerForm, u: ScalarField) -> ScalarField:
    """det(A + H[phi] + H[u]) pointwise; raises SingularMetricError on positivity loss."""
    if u.grid != form.grid:
        raise ValueError("grid mismatch")
    comps = form.metric(u)
    check_positive_components(comps)
    return ScalarField(form.grid, det_components(comps))


def trace_pair(phi_comps, psi_comps) -> np.ndarray:
    """Pointwise trace of psi with respect to (the inverse of) the positive
    field phi, both given as component tuples or stacks; psi is copied, so
    the caller's arrays are left as they are."""
    shapes = {np.shape(c) for c in (*phi_comps, *psi_comps)}
    if len(phi_comps) != len(psi_comps) or len(shapes) != 1:
        raise ValueError("shape mismatch")
    check_positive_components(phi_comps)
    return trace_pair_components(phi_comps, np.array(psi_comps, dtype=np.float64))


def flow_laplacian(metric, f: ScalarField) -> ScalarField:
    """Laplacian of f with respect to the flow metric (component tuple or
    stack): trace of H[f] against the metric."""
    return ScalarField(f.grid, trace_pair(metric, complex_hessian(f)))


def class_volume(A: np.ndarray) -> float:
    """Top self-intersection of the constant class: det(A) under the fixed convention."""
    A = np.asarray(A, dtype=np.complex128)
    check_hermitian(A, "class matrix")
    return float(np.linalg.det(A).real)


def compute_T(A0, Ainf) -> ClassPath:
    """Classify the pencil and locate the singular time by bisection.

    mu(s) = lambda_min((1-s) Ainf + s A0) is concave on [0, 1] with mu(1) > 0,
    so {mu > 0} is an interval (s*, 1] and bisection on s is exact enough.
    """
    A0 = np.asarray(A0, dtype=np.complex128)
    Ainf = np.asarray(Ainf, dtype=np.complex128)
    n = A0.shape[0]
    if A0.shape != (n, n) or Ainf.shape != (n, n):
        raise ValueError("A0 and Ainf must be square matrices of equal size")
    check_hermitian(A0, "A0")
    check_hermitian(Ainf, "Ainf")
    if np.linalg.eigvalsh(A0).min() <= 0.0:
        raise ValueError("A0 must be positive definite")

    def mu(s: float) -> float:
        return float(np.linalg.eigvalsh((1.0 - s) * Ainf + s * A0).min())

    eig_inf = np.linalg.eigvalsh(Ainf)
    lam_inf = float(eig_inf.min())
    scale = max(1.0, float(np.abs(Ainf).max()), float(np.abs(A0).max()))
    if lam_inf > HERMITIAN_TOL * scale:
        return ClassPath(A0, Ainf, math.inf, Regime.KAHLER_LIMIT, r=0, s_star=0.0)
    if lam_inf >= -HERMITIAN_TOL * scale:
        r = int(np.sum(np.abs(eig_inf) <= HERMITIAN_TOL * scale))
        return ClassPath(A0, Ainf, math.inf, Regime.COLLAPSED, r=r, s_star=0.0)

    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mu(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    s_star = 0.5 * (lo + hi)
    return ClassPath(A0, Ainf, -math.log(s_star), Regime.FINITE_TIME, r=0, s_star=s_star)
