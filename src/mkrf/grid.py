"""Discretized flat-torus calculus.

Fields live on the unit torus [0,1)^(2n) with complex dimension n in {1, 2},
row-major axis order (x1, y1, x2, y2).  The layout of a grid is its one-point
axes (GridSpec.one_point): every real axis has N points except those, which
have one.  On a flat torus every operator commutes with translations, so a
field constant along an axis stays constant along it, and one point there
carries the same numbers as N would.  The transforms run over the full
(N-point) axes, or over the last axis when none is full (a one-point
transform is the identity); the last transform axis is the half axis of the
real transform.  No other module reads the layout: the half grid, the sup
bound of a spectrum and the transfers between a grid and its half grid are
made here.  Snapshot files always hold the full N**(2n) grid.

All differentiation is spectral (discrete Fourier), so trigonometric
polynomials below the Nyquist limit are differentiated exactly.  Complex
derivatives use d/dz_j = (d/dx_j - i d/dy_j)/2.

The transforms call scipy's compiled pocketfft kernel,
``scipy.fft._pocketfft.pypocketfft``, loaded from its file next to scipy's
package origin.  ``import scipy.fft`` would run the package's ``__init__``,
which imports ``scipy.special`` and clones the numpy namespace (with
``numpy.f2py``, ``numpy.testing``, ``numpy.random``, ...) at about 0.4 s
per process, while mkrf needs only the real-to-complex pair.  The kernel is
called with the arguments ``scipy.fft.rfftn`` and ``scipy.fft.irfftn`` pass
it (axes, last size, norm code, no output array, thread count), so every
result is bit-equal to theirs;
``tests/test_grid.py::test_transforms_are_bit_equal_to_scipy_fft`` checks
that on arbitrary input.  The module is registered in ``sys.modules`` under its
scipy name, so a later ``import scipy.fft`` shares it.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import struct
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

MAGIC = b"MKRF"
SNAPSHOT_VERSION = 1
# scipy's name of its pocketfft extension module
KERNEL = "scipy.fft._pocketfft.pypocketfft"


class SnapshotFormatError(Exception):
    """Raised when a snapshot file cannot be parsed."""


def load_kernel(directory: str):
    """scipy's pocketfft extension module from directory, registered in
    sys.modules under its scipy name.

    Raises ImportError naming directory and scipy's version when no file of
    the kernel is there.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "pypocketfft" + suffix)
        if os.path.isfile(path):
            break
    else:
        from importlib.metadata import version

        raise ImportError(f"scipy's pocketfft kernel (pypocketfft) is not in {directory}"
                          f" (scipy {version('scipy')})")
    spec = importlib.util.spec_from_file_location(KERNEL, path)
    kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel)
    sys.modules[KERNEL] = kernel
    return kernel


# find_spec locates scipy without running any of its package code
_pfft = load_kernel(os.path.join(
    os.path.dirname(importlib.util.find_spec("scipy").origin), "fft", "_pocketfft"))


def fft_workers() -> int:
    """Thread count of every transform (MKRF_THREADS, default 1).

    The value goes to the kernel's nthreads unchecked, and the kernel reads
    0 as every hardware thread, so the clamp to at least 1 is what keeps
    "0", negative and unparsable settings single-threaded.
    """
    try:
        return max(1, int(os.environ.get("MKRF_THREADS", "1")))
    except ValueError:
        return 1


def _transform_axes(shape: tuple) -> tuple:
    """The axes the transforms of a grid of this shape run over: the full
    ones, or the last axis when none is full."""
    return tuple(a for a, s in enumerate(shape) if s > 1) or (len(shape) - 1,)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the torus: n complex dimensions, N points on every real
    axis but the one-point axes, a set of real-axis indices (none by default),
    which have one point each."""

    n: int
    N: int
    one_point: frozenset = frozenset()

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"complex dimension must be 1 or 2, got {self.n}")
        # Powers of two are the common choice; any even N >= 8 is accepted so
        # that resolution-stability comparisons (e.g. N=16 vs N=24) are possible.
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")

    @cached_property
    def shape(self) -> tuple:
        return tuple(1 if a in self.one_point else self.N for a in range(2 * self.n))

    @cached_property
    def axes(self) -> tuple:
        """The transform axes (_transform_axes); the last is the half axis of
        the real transform."""
        return _transform_axes(self.shape)

    @property
    def num_points(self) -> int:
        return math.prod(self.shape)

    def half(self) -> "GridSpec | None":
        """The grid of the even points, half the points on every full axis;
        None unless the full axes have at least 16 points and an even half
        (so also on a grid without a full axis)."""
        size = max(self.shape)
        if size % 4 or size < 16:
            return None
        return GridSpec(self.n, self.N // 2, self.one_point)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate array of one real axis, broadcastable over the grid."""
        x = np.arange(self.shape[axis]) / self.N
        shape = [1] * (2 * self.n)
        shape[axis] = self.shape[axis]
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


class SpectralTables:
    """Cached Fourier symbols for one grid, kept as per-axis factors.

    All derivative factors zero the Nyquist mode, keeping real inputs real,
    the symbols genuinely odd, and the determinant conservation identity
    exact for arbitrary grid input.  The tables hold only the frequencies of
    each axis; every symbol is made from them where it is used, and a
    product of the same factors gives the same bits whether or not it was
    first broadcast to the full grid.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        half = grid.axes[-1]  # the half axis of the real transform
        self.rshape = tuple(s // 2 + 1 if a == half else s for a, s in enumerate(grid.shape))

        def axis_freqs(axis):
            size = grid.shape[axis]
            if axis == half:
                k = np.arange(size // 2 + 1, dtype=np.float64)
            else:
                k = np.fft.fftfreq(size) * size
            k[size // 2] = 0.0  # the Nyquist frequency (0 on a one-point axis)
            return k.reshape([k.size if a == axis else 1 for a in range(2 * grid.n)])

        # Nyquist-zeroed first-derivative frequencies, each shaped to
        # broadcast along its own axis of the rfft grid
        self.freqs = tuple(axis_freqs(a) for a in range(2 * grid.n))

    def symbols(self) -> list:
        """Hessian entry symbols H[f]_{jk} = d/dz_j d/dzbar_k f in the
        component order of hessian_components, as arrays that broadcast to
        rshape: the diagonal -pi^2 (kx_j^2 + ky_j^2), each over its own two
        axes, then Re and Im of the (0, 1) entry, made on every call.

        Every factor uses the Nyquist-zeroed first-derivative frequencies so
        that the discrete product identity behind Monge-Ampere mass
        conservation holds pointwise in k for arbitrary (not just
        band-limited) input.
        """
        k = self.freqs
        pi2 = np.pi ** 2
        parts = [-pi2 * (k[2 * j] ** 2 + k[2 * j + 1] ** 2) for j in range(self.grid.n)]
        if self.grid.n == 2:
            parts.append(-pi2 * (k[0] * k[2] + k[1] * k[3]))
            parts.append(-pi2 * (k[0] * k[3] - k[1] * k[2]))
        return parts

    def laplacian_symbol(self, inv_matrix: np.ndarray) -> np.ndarray:
        """Symbol of the constant-coefficient Laplacian tr(B . H[f]) for B = inv_matrix."""
        b = inv_matrix
        s = self.symbols()
        if self.grid.n == 1:
            return b[0, 0].real * s[0]
        out = b[0, 0].real * s[0] + b[1, 1].real * s[1]
        # B and S are Hermitian: cross terms give 2 Re(B_01 conj(S_01)).
        out += 2.0 * (b[0, 1].real * s[2] + b[0, 1].imag * s[3])
        return out


@lru_cache(maxsize=None)
def tables(grid: GridSpec) -> SpectralTables:
    return SpectralTables(grid)


# pocketfft norm codes: forward unscaled, inverse scaled by 1/num_points
_NORM_FORWARD, _NORM_INVERSE = 0, 2


def forward(values: np.ndarray) -> np.ndarray:
    """rfftn of a real grid over its transform axes."""
    return _pfft.r2c(values, _transform_axes(values.shape), True, _NORM_FORWARD, None,
                     fft_workers())


def _c2r(grid: GridSpec, coeffs: np.ndarray, first: int) -> np.ndarray:
    """irfftn over the grid's transform axes, which start at axis first of coeffs."""
    axes = tuple(a + first for a in grid.axes)
    return _pfft.c2r(coeffs, axes, grid.shape[grid.axes[-1]], False, _NORM_INVERSE, None,
                     fft_workers())


def inverse(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """irfftn of rfft coefficients back to a real grid."""
    return _c2r(grid, coeffs, 0)


def hessian_components(grid: GridSpec, coeffs: np.ndarray, buf: np.ndarray,
                       stencil: np.ndarray) -> np.ndarray:
    """Real fields of the complex Hessian from rfft coefficients, one per row
    of the real stencil, in one batched inverse transform (called only by
    hessian_rows).  buf, a complex array of shape (rows,) + coeffs.shape,
    receives the stencil product; the returned stack is a new array.
    """
    return _c2r(grid, np.multiply(stencil, coeffs, out=buf), 1)


def hessian_rows(hessian_components, grid: GridSpec, coeffs: np.ndarray,
                 stencil, row_buf: np.ndarray):
    """The Hessian rows of coeffs, one per row of stencil (real rows that
    broadcast to the rfft grid, e.g. the tables' symbols), made on demand
    and in order, one inverse transform each.

    hessian_components is this module's function as the calling module
    binds it, so a wrapper on the caller's name (perfbench's spans) sees
    every row under its caller.  row_buf, a one-row complex array shaped
    (1,) + coeffs.shape, receives each row's stencil product, so no step
    holds more than one row of the product or of the transform.
    """
    for row in stencil:
        yield hessian_components(grid, coeffs, row_buf, row[np.newaxis])[0]


def field_hessian_rows(f: ScalarField):
    """The Hessian rows of f (hessian_rows with the tables' symbols and a
    one-row buffer of its own); zero rows, made without a transform, when f
    vanishes."""
    grid = f.grid
    if not np.any(f.values):
        return (np.zeros(grid.shape) for _ in range(grid.n ** 2))
    tabs = tables(grid)
    return hessian_rows(hessian_components, grid, forward(f.values), tabs.symbols(),
                        np.empty((1,) + tabs.rshape, dtype=np.complex128))


def complex_hessian(f: ScalarField) -> np.ndarray:
    """Pointwise complex Hessian H[f]_{jk} = d/dz_j d/dzbar_k f as the stack
    of its rows (field_hessian_rows).

    Spectral differentiation; every diagonal component has zero torus average.
    """
    if not np.all(np.isfinite(f.values)):
        raise ValueError("complex_hessian: input field has non-finite values")
    return np.stack(list(field_hessian_rows(f)))


def mean(f: ScalarField) -> float:
    """Arithmetic grid mean; equals the torus integral for band-limited fields."""
    return float(np.mean(f.values))


def sup_bound(grid: GridSpec, coeffs: np.ndarray, out: np.ndarray) -> float:
    """Upper bound of the sup norm of the field with rfft coefficients coeffs;
    out, a real array of their shape, receives their moduli.

    The l1 norm of the full spectrum over the number of points; the half
    spectrum stands for its conjugate too, except on the self-conjugate
    planes (frequencies 0 and size // 2 of the half axis, one plane on a
    one-point axis).  No transform is needed.
    """
    a = np.abs(coeffs, out=out)
    half = grid.axes[-1]
    total = 2.0 * float(a.sum())
    for k in sorted({0, grid.shape[half] // 2}):
        total -= float(a[(slice(None),) * half + (k,)].sum())
    return total / grid.num_points


def restrict(f: ScalarField) -> ScalarField:
    """f at the even points of its grid, which are the points of the half
    grid; a one-point axis keeps its point."""
    even = (slice(None, None, 2),) * (2 * f.grid.n)
    return ScalarField(f.grid.half(), np.ascontiguousarray(f.values[even]))


def prolong(coarse: ScalarField, fine: GridSpec) -> ScalarField:
    """Trigonometric interpolation of a field on fine's half grid onto fine.

    The rfft spectrum is zero-padded along the full axes: the coarse Nyquist
    planes, whose modes the spectral Hessian annihilates and which have no
    single fine counterpart, are dropped, and the coefficients are scaled by
    (N_fine / N_coarse)^(full axes) for the unnormalized transforms.  A field
    band-limited below the coarse Nyquist frequency is reproduced exactly.
    """
    axes = fine.axes
    nc, nf = coarse.grid.N, fine.N
    half = nc // 2
    kept_c = np.r_[0:half, half + 1:nc]
    kept_f = np.r_[0:half, nf - half + 1:nf]

    def index(kept):
        """Per axis: the kept frequencies, the non-negative ones on the half
        axis and the one point of a one-point axis."""
        return np.ix_(*[np.arange(half) if a == axes[-1] else kept if a in axes else [0]
                        for a in range(2 * fine.n)])

    padded = np.zeros(tables(fine).rshape, dtype=np.complex128)
    padded[index(kept_f)] = forward(coarse.values)[index(kept_c)]
    padded *= (nf / nc) ** len(axes)
    return ScalarField(fine, inverse(fine, padded))


def synthesize(grid: GridSpec, modes) -> ScalarField:
    """Build a field from a list of (mode_vector, amplitude[, phase]) cosine terms.

    Each term contributes amp * cos(2 pi m . x + phase) with m an integer
    vector over the 2n real axes.  A term's argument and cosine are built
    only over the axes where m is non-zero and added into the grid by
    broadcasting, with the operations of the full-grid formula.  A term may
    not vary along a one-point axis.
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
        if any(m != 0 and s == 1 for m, s in zip(mvec, grid.shape)):
            raise ValueError(f"mode vector {mvec} varies along a one-point axis of {grid.shape}")
        arg = np.zeros((1,) * (2 * grid.n))
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
    little-endian in row-major order, on the full grid of N**(2n) points: a
    field on one-point axes is broadcast along them.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("write_snapshot: no fields")
    grid = fields[0][1].grid
    for name, f in fields:
        if f.grid != grid:
            raise ValueError("write_snapshot: inconsistent grids")
    full = (grid.N,) * (2 * grid.n)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHII", SNAPSHOT_VERSION, grid.n, grid.N, len(fields)))
        for name, f in fields:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(np.ascontiguousarray(np.broadcast_to(f.values, full), dtype="<f8").tobytes())


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
        try:
            name = data[pos : pos + namelen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise SnapshotFormatError(f"field name: {e}") from e
        pos += namelen
        vals = np.frombuffer(data[pos : pos + 8 * npts], dtype="<f8").reshape(grid.shape)
        pos += 8 * npts
        out.append((name, ScalarField(grid, vals.copy())))
    if pos != len(data):
        raise SnapshotFormatError(f"{len(data) - pos} trailing bytes after the last field")
    return out
