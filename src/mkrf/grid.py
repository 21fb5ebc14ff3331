"""Discretized flat-torus calculus.

Fields live on the unit torus [0,1)^(2n) with complex dimension n in {1, 2}
and N points per real axis, row-major axis order (x1, y1, x2, y2).  All
differentiation is spectral (discrete Fourier), so trigonometric polynomials
below the Nyquist limit are differentiated exactly.  Complex derivatives use
d/dz_j = (d/dx_j - i d/dy_j)/2.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

MAGIC = b"MKRF"
SNAPSHOT_VERSION = 1


class SnapshotFormatError(Exception):
    """Raised when a snapshot file cannot be parsed."""


def fft_workers() -> int:
    """Thread cap for internal data-parallel FFTs (MKRF_THREADS, default 1)."""
    try:
        return max(1, int(os.environ.get("MKRF_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the torus: n complex dimensions, N points per real axis."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"complex dimension must be 1 or 2, got {self.n}")
        # Powers of two are the common choice; any even N >= 8 is accepted so
        # that resolution-stability comparisons (e.g. N=16 vs N=24) are possible.
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")

    @property
    def shape(self) -> tuple:
        return (self.N,) * (2 * self.n)

    @property
    def num_points(self) -> int:
        return self.N ** (2 * self.n)

    @property
    def dx(self) -> float:
        return 1.0 / self.N

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate array of one real axis, broadcastable over the grid."""
        x = np.arange(self.N) / self.N
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return x.reshape(shape)

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros(self.shape))


@dataclass
class ScalarField:
    """Periodic real function sampled on the grid (row-major values)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class HermitianField:
    """Pointwise Hermitian n x n matrix field.

    entries[j, k] is the grid-shaped array of the (j, k) matrix entry;
    entries[j, k] == conj(entries[k, j]) pointwise.
    """

    grid: GridSpec
    entries: np.ndarray  # complex, shape (n, n) + grid.shape

    def __post_init__(self):
        n = self.grid.n
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (n, n) + self.grid.shape:
            raise ValueError("entries shape does not match (n, n) + grid shape")

    def hermitian_defect(self) -> float:
        n = self.grid.n
        d = 0.0
        for j in range(n):
            for k in range(n):
                d = max(d, float(np.abs(self.entries[j, k] - np.conj(self.entries[k, j])).max()))
        return d


class SpectralTables:
    """Cached Fourier symbols for one grid.

    All derivative factors zero the Nyquist mode, keeping real inputs real,
    the symbols genuinely odd, and the determinant conservation identity
    exact for arbitrary grid input.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        n, N = grid.n, grid.N
        naxes = 2 * n
        self.rshape = (N,) * (naxes - 1) + (N // 2 + 1,)

        def axis_freqs(axis, zero_nyquist):
            if axis == naxes - 1:
                k = np.arange(N // 2 + 1, dtype=np.float64)
                if zero_nyquist:
                    k[-1] = 0.0
            else:
                k = np.fft.fftfreq(N) * N
                if zero_nyquist:
                    k[N // 2] = 0.0
            shape = [1] * naxes
            shape[axis] = k.size
            return k.reshape(shape)

        kodd = [axis_freqs(a, zero_nyquist=True) for a in range(naxes)]
        pi2 = np.pi ** 2

        # Hessian entry symbols: H[f]_{jk} = d/dz_j d/dzbar_k f.
        # Diagonal: -pi^2 (kx_j^2 + ky_j^2).  Every factor uses the
        # Nyquist-zeroed first-derivative frequencies so that the discrete
        # product identity behind Monge-Ampere mass conservation holds
        # pointwise in k for arbitrary (not just band-limited) input.
        self.diag = [
            -pi2 * (kodd[2 * j] ** 2 + kodd[2 * j + 1] ** 2) for j in range(n)
        ]
        self.off_re = {}
        self.off_im = {}
        for j in range(n):
            for k in range(j + 1, n):
                self.off_re[(j, k)] = -pi2 * (
                    kodd[2 * j] * kodd[2 * k] + kodd[2 * j + 1] * kodd[2 * k + 1]
                )
                self.off_im[(j, k)] = -pi2 * (
                    kodd[2 * j] * kodd[2 * k + 1] - kodd[2 * j + 1] * kodd[2 * k]
                )

        # Stacked symbols in the fixed component order used by hessian_components.
        if n == 1:
            parts = [self.diag[0]]
        else:
            parts = [self.diag[0], self.diag[1], self.off_re[(0, 1)], self.off_im[(0, 1)]]
        self._stack = np.stack([np.broadcast_to(p, self.rshape) for p in parts])

    def laplacian_symbol(self, inv_matrix: np.ndarray) -> np.ndarray:
        """Symbol of the constant-coefficient Laplacian tr(B . H[f]) for B = inv_matrix."""
        n = self.grid.n
        if n == 1:
            return inv_matrix[0, 0].real * self.diag[0]
        b = inv_matrix
        out = b[0, 0].real * self.diag[0] + b[1, 1].real * self.diag[1]
        # B and S are Hermitian: cross terms give 2 Re(B_01 conj(S_01)).
        out += 2.0 * (b[0, 1].real * self.off_re[(0, 1)] + b[0, 1].imag * self.off_im[(0, 1)])
        return out


@lru_cache(maxsize=None)
def tables(n: int, N: int) -> SpectralTables:
    return SpectralTables(GridSpec(n, N))


def forward(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return sfft.rfftn(values, workers=fft_workers())


def inverse(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    return sfft.irfftn(coeffs, s=grid.shape, workers=fft_workers())


def hessian_components(grid: GridSpec, coeffs: np.ndarray,
                       buf: np.ndarray | None = None) -> np.ndarray:
    """Real component fields of the complex Hessian from rfft coefficients.

    Returns a stacked array: (H11,) for n=1; (H11, H22, Re H12, Im H12) for n=2.
    One batched inverse transform keeps this on the hot path.  buf, when
    given, is a complex array of shape (components,) + coeffs.shape that
    receives the stencil product in place of a fresh allocation; the
    returned stack is always a new array.
    """
    t = tables(grid.n, grid.N)
    stack = np.multiply(t._stack, coeffs, out=buf)
    naxes = 2 * grid.n
    return sfft.irfftn(
        stack, s=grid.shape, axes=tuple(range(1, naxes + 1)), workers=fft_workers()
    )


def complex_hessian(f: ScalarField) -> HermitianField:
    """Pointwise complex Hessian H[f]_{jk} = d/dz_j d/dzbar_k f.

    Spectral differentiation; the result is Hermitian and every diagonal
    entry has zero torus average.
    """
    if not np.all(np.isfinite(f.values)):
        raise ValueError("complex_hessian: input field has non-finite values")
    grid = f.grid
    comps = hessian_components(grid, forward(grid, f.values))
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


def mean(f: ScalarField) -> float:
    """Arithmetic grid mean; equals the torus integral for band-limited fields."""
    return float(np.mean(f.values))


def synthesize(grid: GridSpec, modes) -> ScalarField:
    """Build a field from a list of (mode_vector, amplitude[, phase]) cosine terms.

    Each term contributes amp * cos(2 pi m . x + phase) with m an integer
    vector over the 2n real axes.
    """
    vals = np.zeros(grid.shape)
    for term in modes:
        if len(term) == 2:
            mvec, amp = term
            phase = 0.0
        else:
            mvec, amp, phase = term
        mvec = tuple(int(m) for m in mvec)
        if len(mvec) != 2 * grid.n:
            raise ValueError(f"mode vector {mvec} must have {2 * grid.n} components")
        arg = np.zeros(grid.shape)
        for axis, m in enumerate(mvec):
            if m != 0:
                arg = arg + (2.0 * np.pi * m) * grid.axis_coordinate(axis)
        vals += float(amp) * np.cos(arg + float(phase))
    return ScalarField(grid, vals)


def write_snapshot(fields, path) -> None:
    """Write named fields to the binary snapshot format.

    fields: sequence of (name, ScalarField) pairs on one common grid.
    Layout: magic 'MKRF', u16 version, u16 n, u32 N, u32 field count, then for
    each field a u16 name length, the UTF-8 name, and the float64 values
    little-endian in row-major order.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("write_snapshot: no fields")
    grid = fields[0][1].grid
    for name, f in fields:
        if f.grid != grid:
            raise ValueError("write_snapshot: inconsistent grids")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHII", SNAPSHOT_VERSION, grid.n, grid.N, len(fields)))
        for name, f in fields:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshot(path):
    """Read a snapshot written by write_snapshot; round-trip is bit-exact."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise SnapshotFormatError("truncated header")
    if data[:4] != MAGIC:
        raise SnapshotFormatError(f"bad magic {data[:4]!r}")
    version, n, N, count = struct.unpack("<HHII", data[4:16])
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported version {version}")
    try:
        grid = GridSpec(n, N)
    except ValueError as e:
        raise SnapshotFormatError(str(e)) from e
    npts = grid.num_points
    out = []
    pos = 16
    for _ in range(count):
        if pos + 2 > len(data):
            raise SnapshotFormatError("truncated field header")
        (namelen,) = struct.unpack("<H", data[pos : pos + 2])
        pos += 2
        if pos + namelen + 8 * npts > len(data):
            raise SnapshotFormatError("truncated field payload")
        name = data[pos : pos + namelen].decode("utf-8")
        pos += namelen
        vals = np.frombuffer(data[pos : pos + 8 * npts], dtype="<f8").reshape(grid.shape)
        pos += 8 * npts
        out.append((name, ScalarField(grid, vals.copy())))
    return out
