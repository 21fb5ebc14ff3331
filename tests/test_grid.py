import numpy as np
import pytest

from mkrf.grid import (
    GridSpec,
    ScalarField,
    SnapshotFormatError,
    complex_hessian,
    forward,
    hessian_components,
    inverse,
    mean,
    read_snapshot,
    synthesize,
    tables,
    write_snapshot,
)


def symbol_stack(grid):
    """The tables' Hessian symbols broadcast to the grid's rfft shape and
    stacked: the stencil of one batched Hessian of every row."""
    tab = tables(grid)
    return np.stack([np.broadcast_to(s, tab.rshape) for s in tab.symbols()])


def batched_hessian(grid, coeffs):
    """Every Hessian row of coeffs from one batched inverse transform."""
    stack = symbol_stack(grid)
    return hessian_components(grid, coeffs, np.empty(stack.shape, dtype=np.complex128), stack)


# --- independent oracle: analytic complex Hessian of cosine polynomials ----
#
# For f = sum amp * cos(2 pi m.x + phase) the entrywise Hessian is
#   H_jk = -pi^2 [ (mxj mxk + myj myk) + i (mxj myk - myj mxk) ] * amp * cos(theta)
# evaluated term by term.  No FFT involved.


def trig_hessian_oracle(grid, modes):
    n = grid.n
    H = np.zeros((n, n) + grid.shape, dtype=np.complex128)
    for mvec, amp, phase in modes:
        arg = np.zeros(grid.shape)
        for axis, m in enumerate(mvec):
            if m != 0:
                arg = arg + (2.0 * np.pi * m) * grid.axis_coordinate(axis)
        c = amp * np.cos(arg + phase)
        for j in range(n):
            for k in range(n):
                mxj, myj = mvec[2 * j], mvec[2 * j + 1]
                mxk, myk = mvec[2 * k], mvec[2 * k + 1]
                coef = (mxj * mxk + myj * myk) + 1j * (mxj * myk - myj * mxk)
                H[j, k] += -np.pi**2 * coef * c
    return H


def oracle_components(H):
    """The real components (H11,) or (H11, H22, Re H12, Im H12) of an oracle
    (n, n) + grid entry array, after checking that it is Hermitian."""
    n = H.shape[0]
    assert all(np.array_equal(H[j, k], np.conj(H[k, j])) for j in range(n) for k in range(n))
    if n == 1:
        return H[0, 0].real[None]
    return np.stack([H[0, 0].real, H[1, 1].real, H[0, 1].real, H[0, 1].imag])


def random_modes(rng, grid, count, max_mode=3):
    modes = []
    for _ in range(count):
        mvec = tuple(int(m) for m in rng.integers(-max_mode, max_mode + 1, size=2 * grid.n))
        amp = float(rng.uniform(-1.0, 1.0))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        modes.append((mvec, amp, phase))
    return modes


def test_gridspec_validation():
    GridSpec(1, 8)
    GridSpec(2, 16)
    GridSpec(2, 24)  # even non-power-of-two is allowed for resolution studies
    with pytest.raises(ValueError):
        GridSpec(3, 16)
    with pytest.raises(ValueError):
        GridSpec(1, 7)
    with pytest.raises(ValueError):
        GridSpec(1, 6)


def test_hessian_zero():
    grid = GridSpec(2, 8)
    H = complex_hessian(grid.zeros())
    assert H.shape == (4,) + grid.shape
    assert np.abs(H).max() == 0.0


def test_hessian_n1_cosine():
    grid = GridSpec(1, 32)
    eps = 0.3
    f = synthesize(grid, [((1, 0), eps)])
    H = complex_hessian(f)
    x = grid.axis_coordinate(0)
    expected = -eps * np.pi**2 * np.cos(2 * np.pi * x) + 0.0 * grid.axis_coordinate(1)
    assert H.dtype == np.float64 and H.shape == (1,) + grid.shape
    assert np.abs(H[0] - expected).max() < 1e-12


def test_hessian_n2_cos_cos():
    # f = cos(2 pi x1) cos(2 pi y2): diagonal entries -pi^2 cos cos, off-diagonal
    # entry H12 = i pi^2 sin sin, so Re H12 = 0 and Im H12 = pi^2 sin sin.
    grid = GridSpec(2, 8)
    x1 = grid.axis_coordinate(0)
    y2 = grid.axis_coordinate(3)
    f = ScalarField(grid, np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2) + np.zeros(grid.shape))
    H = complex_hessian(f)
    cc = np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2) + np.zeros(grid.shape)
    ss = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * y2) + np.zeros(grid.shape)
    assert np.abs(H[0] - (-np.pi**2 * cc)).max() < 1e-11
    assert np.abs(H[1] - (-np.pi**2 * cc)).max() < 1e-11
    assert np.abs(H[2]).max() < 1e-11
    assert np.abs(H[3] - np.pi**2 * ss).max() < 1e-11


@pytest.mark.parametrize("n,N", [(1, 16), (1, 32), (2, 8), (2, 16)])
def test_hessian_matches_trig_oracle(n, N):
    rng = np.random.default_rng(1234 + 10 * n + N)
    grid = GridSpec(n, N)
    modes = random_modes(rng, grid, count=6, max_mode=3)
    f = synthesize(grid, modes)
    H = complex_hessian(f)
    expected = trig_hessian_oracle(grid, modes)
    assert np.abs(H - oracle_components(expected)).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_hessian_buffer_matches_allocating_call(n):
    rng = np.random.default_rng(40 + n)
    grid = GridSpec(n, 16)
    coeffs = forward(rng.standard_normal(grid.shape))
    want = batched_hessian(grid, coeffs)
    buf = np.full((want.shape[0],) + coeffs.shape, np.nan, dtype=np.complex128)
    got = hessian_components(grid, coeffs, buf, symbol_stack(GridSpec(n, 16)))
    assert np.array_equal(got, want)
    assert not np.shares_memory(got, buf)


def test_hessian_hermitian_for_rough_input():
    # Even white noise must produce a Hermitian result: the real components
    # agree with a full-spectrum transform whose output is real to round-off.
    rng = np.random.default_rng(7)
    grid = GridSpec(2, 8)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    H = complex_hessian(f)
    full = full_spectrum_hessian(grid, f.values)
    scale = max(1.0, np.abs(H).max())
    assert np.abs(full.imag).max() < 1e-12 * scale
    assert np.abs(full.real - H).max() < 1e-12 * scale


def test_hessian_diagonal_zero_mean():
    rng = np.random.default_rng(8)
    grid = GridSpec(2, 16)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    H = complex_hessian(f)
    for j in range(2):
        assert abs(np.mean(H[j])) < 1e-12 * max(1.0, np.abs(H).max())


def test_hessian_rejects_nonfinite():
    grid = GridSpec(1, 8)
    vals = np.zeros(grid.shape)
    vals[0, 0] = np.nan
    with pytest.raises(ValueError):
        complex_hessian(ScalarField(grid, vals))


def test_mean_constant_and_cosine():
    grid = GridSpec(1, 16)
    c = ScalarField(grid, np.full(grid.shape, 2.75))
    assert mean(c) == pytest.approx(2.75, abs=0.0)
    f = synthesize(grid, [((1, 0), 1.0)])
    assert abs(mean(f)) < 1e-14


def test_mean_matches_refined_quadrature():
    rng = np.random.default_rng(99)
    grid = GridSpec(2, 8)
    fine = GridSpec(2, 32)
    modes = random_modes(rng, grid, count=5, max_mode=3)
    coarse_mean = mean(synthesize(grid, modes))
    fine_mean = mean(synthesize(fine, modes))
    assert abs(coarse_mean - fine_mean) < 1e-12


def test_mean_trace_of_hessian_vanishes():
    # Integration by parts on the torus: the average of tr(M H[f]) is zero for
    # any constant Hermitian matrix M.
    rng = np.random.default_rng(5)
    grid = GridSpec(2, 8)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    h11, h22, p, q = complex_hessian(f)
    R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    M = R + R.conj().T
    # M01 H10 + M10 H01 = 2 Re(M01 conj(H01)) with H01 = p + i q
    tr = M[0, 0].real * h11 + M[1, 1].real * h22 + 2.0 * (M[0, 1].real * p + M[0, 1].imag * q)
    scale = max(1.0, np.abs(h11).max(), np.abs(h22).max(), np.abs(p).max(), np.abs(q).max())
    assert abs(np.mean(tr)) < 1e-12 * scale


def along(n, N, directions):
    """The grid with N points on both real axes of each complex direction j
    (0-based) in directions and one point on both axes of the others."""
    return GridSpec(n, N, frozenset(a for a in range(2 * n) if a // 2 not in directions))


@pytest.mark.parametrize("directions", [{0}, {1}, set()], ids=["z1", "z2", "none"])
def test_one_point_axes_give_the_full_grid_numbers(directions, tmp_path):
    # a field constant along the complex directions not in directions: on
    # the grid with one point along them, its Hessian rows are the full
    # grid's and its snapshot is the full grid's file
    full = GridSpec(2, 16)
    grid = along(2, 16, directions)
    assert grid.shape == tuple(16 if a // 2 in directions else 1 for a in range(4))
    assert grid.num_points == 16 ** (2 * len(directions)) and grid.N == 16
    assert (grid == full) == (directions == {0, 1}) and tables(grid).grid == grid
    assert along(2, 16, {0, 1}) == full
    rng = np.random.default_rng(61)
    vals = rng.standard_normal(grid.shape)
    whole = np.ascontiguousarray(np.broadcast_to(vals, full.shape))
    coeffs = forward(vals)
    assert coeffs.shape == tables(grid).rshape
    assert np.abs(inverse(grid, coeffs) - vals).max() < 1e-14
    H = complex_hessian(ScalarField(grid, vals))
    H_full = complex_hessian(ScalarField(full, whole))
    assert np.abs(H - H_full).max() < 1e-12 * max(1.0, np.abs(H_full).max())
    write_snapshot([("f", ScalarField(grid, vals))], tmp_path / "f.mkrf")
    write_snapshot([("f", ScalarField(full, whole))], tmp_path / "whole.mkrf")
    assert (tmp_path / "f.mkrf").read_bytes() == (tmp_path / "whole.mkrf").read_bytes()


def test_half_grid_keeps_one_point_axes_and_modes_stay_on_full_axes():
    grid = along(2, 16, {1})
    assert grid.half() == along(2, 8, {1})
    assert grid.half().shape == (1, 1, 8, 8)
    with pytest.raises(ValueError, match="one-point axis"):
        synthesize(grid, [((1, 0, 0, 0), 0.1)])


def test_snapshot_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    grid = GridSpec(2, 8)
    fields = [
        ("u", ScalarField(grid, rng.standard_normal(grid.shape))),
        ("u_dot", ScalarField(grid, rng.standard_normal(grid.shape))),
    ]
    path = tmp_path / "snap.mkrf"
    write_snapshot(fields, path)
    back = read_snapshot(path)
    assert [name for name, _ in back] == ["u", "u_dot"]
    for (_, orig), (_, rt) in zip(fields, back):
        assert orig.values.tobytes() == rt.values.tobytes()


def test_snapshot_truncated(tmp_path):
    grid = GridSpec(1, 8)
    path = tmp_path / "snap.mkrf"
    write_snapshot([("u", grid.zeros())], path)
    data = path.read_bytes()
    bad = tmp_path / "bad.mkrf"
    bad.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(bad)
    short = tmp_path / "short.mkrf"
    short.write_bytes(data[:10])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(short)


def test_snapshot_wrong_magic(tmp_path):
    grid = GridSpec(1, 8)
    path = tmp_path / "snap.mkrf"
    write_snapshot([("u", grid.zeros())], path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    bad = tmp_path / "bad.mkrf"
    bad.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(bad)


def test_snapshot_non_utf8_field_name(tmp_path):
    grid = GridSpec(1, 8)
    path = tmp_path / "snap.mkrf"
    write_snapshot([("u", grid.zeros())], path)
    data = bytearray(path.read_bytes())
    data[18] = 0xFF  # the one byte of the name "u", after the 16-byte header and its length
    bad = tmp_path / "bad.mkrf"
    bad.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError, match="field name"):
        read_snapshot(bad)


def test_snapshot_trailing_bytes(tmp_path):
    grid = GridSpec(1, 8)
    path = tmp_path / "snap.mkrf"
    write_snapshot([("u", grid.zeros())], path)
    data = path.read_bytes()
    for extra in (b"\x00", b"\x01\x00u"):
        bad = tmp_path / "bad.mkrf"
        bad.write_bytes(data + extra)
        with pytest.raises(SnapshotFormatError, match="trailing"):
            read_snapshot(bad)


def test_snapshot_grid_mismatch(tmp_path):
    g1 = GridSpec(1, 8)
    g2 = GridSpec(1, 16)
    with pytest.raises(ValueError):
        write_snapshot([("a", g1.zeros()), ("b", g2.zeros())], tmp_path / "x.mkrf")


def test_fft_thread_cap_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(77)
    grid = GridSpec(2, 16)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    monkeypatch.delenv("MKRF_THREADS", raising=False)
    base = complex_hessian(f)
    monkeypatch.setenv("MKRF_THREADS", "2")
    threaded = complex_hessian(f)
    assert base.tobytes() == threaded.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_hessian_stencil_argument(n):
    g = GridSpec(n, 8)
    rng = np.random.default_rng(11)
    c = forward(rng.standard_normal(g.shape))
    plain = batched_hessian(g, c)
    stack = symbol_stack(GridSpec(n, 8))
    buf = np.empty(stack.shape, dtype=np.complex128)
    assert np.array_equal(hessian_components(g, c, buf=buf, stencil=stack), plain)
    assert np.array_equal(hessian_components(g, c, buf=buf, stencil=2.0 * stack), 2.0 * plain)



@pytest.mark.parametrize("n,N", [(1, 8), (1, 64), (2, 8), (2, 12), (2, 16), (2, 24)])
def test_one_row_hessians_equal_the_batched_rows_bit_for_bit(n, N):
    # the flow and the elliptic layer transform one Hessian row at a time
    # through a one-row product buffer (hessian_rows); its rows must be the
    # batched call's, from the stacked symbols and from the tables' symbols
    # as they broadcast
    from mkrf.grid import hessian_rows

    g = GridSpec(n, N)
    c = forward(np.random.default_rng(N + n).standard_normal(g.shape))
    stack = symbol_stack(GridSpec(n, N))
    batched = batched_hessian(g, c)
    buf = np.empty((1,) + c.shape, dtype=np.complex128)
    for k in range(len(stack)):
        row = hessian_components(g, c, buf=buf, stencil=stack[k:k + 1])
        assert row.shape == (1,) + g.shape
        assert np.array_equal(row[0].view(np.uint64), batched[k].view(np.uint64))
    for stencil in (stack, tables(GridSpec(n, N)).symbols()):
        rows = list(hessian_rows(hessian_components, g, c, stencil, buf))
        assert len(rows) == len(stack)
        for row, want in zip(rows, batched):
            assert row.shape == g.shape
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


def full_grid_synthesis(grid, modes):
    """synthesize's formula with every term built over the whole grid."""
    vals = np.zeros(grid.shape)
    for mvec, amp, phase in modes:
        arg = np.zeros(grid.shape)
        for axis, m in enumerate(mvec):
            if m != 0:
                arg = arg + (2.0 * np.pi * m) * grid.axis_coordinate(axis)
        vals += amp * np.cos(arg + phase)
    return vals


def test_synthesize_is_bit_identical_to_the_full_grid_formula():
    rng = np.random.default_rng(300)
    for trial in range(300):
        n = int(rng.integers(1, 3))
        grid = GridSpec(n, int(rng.choice([8, 12, 16, 24] if n == 2 else [8, 12, 16, 24, 64])))
        modes = []
        for _ in range(int(rng.integers(0, 5))):
            # mostly zero entries, negative ones and repeated terms included
            mvec = tuple(int(m) for m in rng.choice([-2, -1, 0, 0, 0, 1, 3], size=2 * n))
            amp = float(rng.uniform(-0.5, 0.5))
            phase = float(rng.uniform(-4.0, 4.0)) if rng.random() < 0.5 else 0.0
            modes.append((mvec, amp, phase))
            if rng.random() < 0.2:
                modes.append(modes[-1])
        got = synthesize(grid, [t if t[2] else t[:2] for t in modes]).values
        want = full_grid_synthesis(grid, modes)
        assert got.shape == grid.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (trial, modes)


# --- spectral identities on arbitrary (non-band-limited) grid input ----------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from mkrf.geometry import det_components, metric_rows  # noqa: E402

ROUGH_N = 8


def rough_fields(n):
    """Arbitrary grid values: spikes, steps and noise, far from band-limited."""
    shape = GridSpec(n, ROUGH_N).shape
    values = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.tuples(arrays(np.float64, shape, elements=values),
                     st.floats(1e-3, 10.0))


def hermitian_matrices(n):
    diag = st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)
    off = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    return st.tuples(diag, off).map(lambda d: _hermitian(n, *d))


def _hermitian(n, diag, off):
    A = np.diag(np.asarray(diag, dtype=np.complex128))
    if n == 2:
        A[0, 1] = complex(*off)
        A[1, 0] = np.conj(A[0, 1])
    return A


def full_spectrum_hessian(grid, f):
    """The Hessian components by a complex FFT over the whole spectrum, with
    the same Nyquist-zeroed derivative factors: no half-spectrum symmetry is
    assumed, so the imaginary part shows whether the symbols are consistent."""
    n, N = grid.n, grid.N
    k = np.fft.fftfreq(N) * N
    k[N // 2] = 0.0
    ks = np.meshgrid(*([k] * (2 * n)), indexing="ij")
    pi2 = np.pi ** 2
    syms = [-pi2 * (ks[2 * j] ** 2 + ks[2 * j + 1] ** 2) for j in range(n)]
    if n == 2:
        syms.append(-pi2 * (ks[0] * ks[2] + ks[1] * ks[3]))
        syms.append(-pi2 * (ks[0] * ks[3] - ks[1] * ks[2]))
    fh = np.fft.fftn(f)
    return np.stack([np.fft.ifftn(s * fh) for s in syms])


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mass_conservation_on_rough_grids(n, data):
    values, amp = data.draw(rough_fields(n))
    A = data.draw(hermitian_matrices(n))
    grid = GridSpec(n, ROUGH_N)
    f = amp * values
    comps = tuple(metric_rows(A, batched_hessian(grid, forward(f)), n))
    det = det_components(comps)
    scale = (1.0 + max(float(np.abs(c).max()) for c in comps)) ** n
    assert abs(float(np.mean(det)) - float(np.linalg.det(A).real)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hessian_hermitian_real_and_finite_on_rough_grids(n, data):
    values, amp = data.draw(rough_fields(n))
    grid = GridSpec(n, ROUGH_N)
    f = amp * values
    hs = batched_hessian(grid, forward(f))
    assert hs.dtype == np.float64
    assert np.isfinite(hs).all()
    full = full_spectrum_hessian(grid, f)
    scale = max(1.0, float(np.abs(full).max()))
    assert np.abs(full.imag).max() <= 1e-13 * scale
    assert np.abs(full.real - hs).max() <= 1e-13 * scale
    assert np.array_equal(complex_hessian(ScalarField(grid, f)), hs)


# --- the direct binding of scipy's pocketfft kernel --------------------------

import scipy.fft  # noqa: E402
from hypothesis import Phase  # noqa: E402

from mkrf.grid import fft_workers, load_kernel  # noqa: E402


def finite_grid_values(grid):
    """Arbitrary finite grid values: hypothesis-chosen floats (zeros, signed
    zeros, subnormals, large magnitudes) scattered over the grid, small
    enough that no symbol product overflows."""
    elements = st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False)
    pool = arrays(np.float64, st.integers(1, 64), elements=elements)
    return st.tuples(pool, st.integers(0, 2**32 - 1)).map(
        lambda d: np.random.default_rng(d[1]).choice(d[0], size=grid.shape))


# a wrong kernel argument fails on every input, so shrinking (minutes on
# n = 2 grids) would show nothing more than the first failing example
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=12, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_transforms_are_bit_equal_to_scipy_fft(n, threads, data):
    # a drawn layout (full, reduced or all one-point) and the all-one-point
    # grid: the transforms run over the full axes, or the last axis when
    # none is full
    N = data.draw(st.sampled_from([8, 10, 16, 24]))
    drawn = data.draw(st.frozensets(st.integers(0, 2 * n - 1)))
    for grid in (GridSpec(n, N, drawn), GridSpec(n, N, frozenset(range(2 * n)))):
        values = data.draw(finite_grid_values(grid))
        axes = tuple(a for a, s in enumerate(grid.shape) if s > 1) or (2 * n - 1,)
        sizes = [grid.shape[a] for a in axes]
        stack = symbol_stack(grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("MKRF_THREADS", threads)
            workers = int(threads)
            coeffs = forward(values)
            assert (coeffs.tobytes()
                    == scipy.fft.rfftn(values, axes=axes, workers=workers).tobytes())
            assert (inverse(grid, coeffs).tobytes()
                    == scipy.fft.irfftn(coeffs, s=sizes, axes=axes, workers=workers).tobytes())
            want = scipy.fft.irfftn(stack * coeffs, s=sizes, axes=[a + 1 for a in axes],
                                    workers=workers)
            assert batched_hessian(grid, coeffs).tobytes() == want.tobytes()
            k = data.draw(st.integers(0, len(stack) - 1))
            buf = np.empty((1,) + coeffs.shape, dtype=np.complex128)
            row = hessian_components(grid, coeffs, buf=buf, stencil=stack[k:k + 1])
            assert row.tobytes() == want[k:k + 1].tobytes()


@pytest.mark.parametrize("setting,threads", [
    (None, 1), ("2", 2), ("0", 1), ("-3", 1), ("abc", 1)])
def test_fft_workers_clamps_the_thread_setting(monkeypatch, setting, threads):
    # the kernel reads nthreads=0 as every hardware thread: only fft_workers
    # keeps such settings single-threaded, so no transform runs here
    if setting is None:
        monkeypatch.delenv("MKRF_THREADS", raising=False)
    else:
        monkeypatch.setenv("MKRF_THREADS", setting)
    assert fft_workers() == threads


def test_missing_kernel_names_the_directory(tmp_path):
    with pytest.raises(ImportError, match="scipy") as err:
        load_kernel(str(tmp_path))
    assert str(tmp_path) in str(err.value)
