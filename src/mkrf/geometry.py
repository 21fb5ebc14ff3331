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

from .grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    complex_hessian,
    forward,
    hessian_components,
    mean,
)

# Pointwise metrics below this smallest-eigenvalue threshold count as singular;
# it separates genuine degeneration from round-off.
POSITIVITY_EPS = 1e-10

HERMITIAN_TOL = 1e-12


class SingularMetricError(Exception):
    """Positivity loss of a metric at some grid point."""

    def __init__(self, lambda_min: float, location, t: float | None = None):
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


def check_hermitian(A: np.ndarray, what: str = "matrix") -> None:
    if np.abs(A - A.conj().T).max() > HERMITIAN_TOL * max(1.0, np.abs(A).max()):
        raise ValueError(f"{what} is not Hermitian within tolerance")


# ---------------------------------------------------------------------------
# Component-array representation of Hermitian matrix fields.
#
# n=1: (g11,); n=2: (g11, g22, p12, q12) with entry01 = p12 + i q12.
# This keeps the flow and solver hot loops on plain real arrays.


def metric_components(A: np.ndarray, hess_stack: np.ndarray | None, n: int, shape,
                      out: np.ndarray | None = None):
    """Component arrays of A + H, H given as a hessian_components stack.

    out, a stack shaped like hess_stack (it may be hess_stack itself),
    receives the components, which are then returned as views into it.
    """
    if hess_stack is None:
        if n == 1:
            return (np.full(shape, A[0, 0].real),)
        z = np.zeros(shape)
        return (A[0, 0].real + z, A[1, 1].real + z, A[0, 1].real + z, A[0, 1].imag + z)
    consts = (A[0, 0].real,) if n == 1 else (
        A[0, 0].real, A[1, 1].real, A[0, 1].real, A[0, 1].imag)
    return tuple(
        np.add(c, hess_stack[i], out=None if out is None else out[i])
        for i, c in enumerate(consts)
    )


def det_components(comps, out: np.ndarray | None = None, work: np.ndarray | None = None):
    """Pointwise determinant; for n=1 this is comps[0] itself.

    out receives the result and work, of the same shape, holds the
    intermediate p^2 + q^2; either may be None to allocate.
    """
    if len(comps) == 1:
        return comps[0]
    g11, g22, p, q = comps
    qq = np.multiply(q, q, out=out)
    pq = np.multiply(p, p, out=work)
    pq += qq
    det = np.multiply(g11, g22, out=qq)
    det -= pq
    return det


def lambda_min_components(comps, det=None):
    """Smallest eigenvalue field, computed in a cancellation-safe form."""
    if len(comps) == 1:
        return comps[0]
    g11, g22, p, q = comps
    if det is None:
        det = det_components(comps)
    m = 0.5 * (g11 + g22)
    s = np.sqrt(np.maximum(m * m - det, 0.0))
    lam_max = m + s
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(lam_max > 0.0, det / np.where(lam_max > 0.0, lam_max, 1.0), m - s)
    return np.where(det > 0.0, safe, m - s)


def trace_pair_components(phi_comps, psi_comps, phi_det=None):
    """Pointwise trace of psi against the inverse of phi."""
    if len(phi_comps) == 1:
        return psi_comps[0] / phi_comps[0]
    f11, f22, fp, fq = phi_comps
    s11, s22, sp, sq = psi_comps
    if phi_det is None:
        phi_det = det_components(phi_comps)
    return (f22 * s11 + f11 * s22 - 2.0 * (fp * sp + fq * sq)) / phi_det


def inverse_components(comps, det=None):
    if len(comps) == 1:
        return (1.0 / comps[0],)
    g11, g22, p, q = comps
    if det is None:
        det = det_components(comps)
    return (g22 / det, g11 / det, -p / det, -q / det)


def spectral_radius_diff(comps_inv, B: np.ndarray):
    """Pointwise spectral radius of (inverse-metric field minus constant B)."""
    if len(comps_inv) == 1:
        return np.abs(comps_inv[0] - B[0, 0].real)
    d11 = comps_inv[0] - B[0, 0].real
    d22 = comps_inv[1] - B[1, 1].real
    dp = comps_inv[2] - B[0, 1].real
    dq = comps_inv[3] - B[0, 1].imag
    m = 0.5 * (d11 + d22)
    s = np.sqrt(0.25 * (d11 - d22) ** 2 + dp * dp + dq * dq)
    return np.abs(m) + s


def components_from_hermitian(H: HermitianField):
    if H.grid.n == 1:
        return (H.entries[0, 0].real.copy(),)
    return (
        H.entries[0, 0].real.copy(),
        H.entries[1, 1].real.copy(),
        H.entries[0, 1].real.copy(),
        H.entries[0, 1].imag.copy(),
    )


def hermitian_from_components(grid: GridSpec, comps) -> HermitianField:
    n = grid.n
    entries = np.zeros((n, n) + grid.shape, dtype=np.complex128)
    if n == 1:
        entries[0, 0] = comps[0]
    else:
        entries[0, 0] = comps[0]
        entries[1, 1] = comps[1]
        entries[0, 1] = comps[2] + 1j * comps[3]
        entries[1, 0] = comps[2] - 1j * comps[3]
    return HermitianField(grid, entries)


def matrix_lambda_min(A: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(A).min())


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


def check_positive_components(comps, t: float | None = None):
    """Raise SingularMetricError where the pointwise smallest eigenvalue dips below threshold."""
    lam = lambda_min_components(comps)
    lmin = float(lam.min())
    if not np.isfinite(lmin) or lmin < POSITIVITY_EPS:
        loc = np.unravel_index(int(np.argmin(lam)), lam.shape)
        raise SingularMetricError(lmin, loc, t)
    return lam


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

    def metric_componentwise(self, extra: ScalarField | None = None):
        """Component arrays of A + H[phi] (+ H[extra])."""
        vals = self.phi.values if extra is None else self.phi.values + extra.values
        if np.any(vals):
            hs = hessian_components(self.grid, forward(self.grid, vals))
        else:
            hs = None
        return metric_components(self.A, hs, self.grid.n, self.grid.shape)

    def metric(self, extra: ScalarField | None = None) -> HermitianField:
        return hermitian_from_components(self.grid, self.metric_componentwise(extra))


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

    @property
    def log_h(self) -> np.ndarray:
        return np.log(self.h.values)

    def mean(self) -> float:
        return mean(self.h)

    def ricci(self) -> HermitianField:
        """Ricci form of the density: -H[log h]."""
        H = complex_hessian(ScalarField(self.grid, self.log_h))
        return HermitianField(self.grid, -H.entries)


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

    @property
    def n(self) -> int:
        return self.A0.shape[0]


# ---------------------------------------------------------------------------
# Operations


def ma_density(form: KahlerForm, u: ScalarField) -> ScalarField:
    """det(A + H[phi] + H[u]) pointwise; raises SingularMetricError on positivity loss."""
    if u.grid != form.grid:
        raise ValueError("grid mismatch")
    comps = form.metric_componentwise(u)
    check_positive_components(comps)
    return ScalarField(form.grid, det_components(comps))


def trace_pair(Phi: HermitianField, Psi: HermitianField) -> ScalarField:
    """Pointwise trace of Psi with respect to (the inverse of) the positive field Phi."""
    if Phi.grid != Psi.grid:
        raise ValueError("grid mismatch")
    pc = components_from_hermitian(Phi)
    check_positive_components(pc)
    sc = components_from_hermitian(Psi)
    return ScalarField(Phi.grid, trace_pair_components(pc, sc))


def flow_laplacian(metric: HermitianField, f: ScalarField) -> ScalarField:
    """Laplacian of f with respect to the flow metric: trace of H[f] against metric."""
    return trace_pair(metric, complex_hessian(f))


def class_volume(A: np.ndarray) -> float:
    """Top self-intersection of the constant class: det(A) under the fixed convention."""
    A = np.asarray(A, dtype=np.complex128)
    check_hermitian(A, "class matrix")
    return float(np.linalg.det(A).real)


def compute_T(A0, Ainf, tol: float = 1e-12) -> ClassPath:
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
    eig0 = np.linalg.eigvalsh(A0)
    if eig0.min() <= 0.0:
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mu(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    s_star = 0.5 * (lo + hi)
    return ClassPath(A0, Ainf, -math.log(s_star), Regime.FINITE_TIME, r=0, s_star=s_star)
