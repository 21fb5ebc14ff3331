import numpy as np
import pytest

from mkrf.grid import (
    GridSpec,
    ScalarField,
    SnapshotFormatError,
    complex_hessian,
    forward,
    hessian_components,
    mean,
    read_snapshot,
    synthesize,
    write_snapshot,
)


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
    assert np.abs(H.entries).max() == 0.0


def test_hessian_n1_cosine():
    grid = GridSpec(1, 32)
    eps = 0.3
    f = synthesize(grid, [((1, 0), eps)])
    H = complex_hessian(f)
    x = grid.axis_coordinate(0)
    expected = -eps * np.pi**2 * np.cos(2 * np.pi * x) + 0.0 * grid.axis_coordinate(1)
    assert np.abs(H.entries[0, 0].real - expected).max() < 1e-12
    assert np.abs(H.entries[0, 0].imag).max() < 1e-12


def test_hessian_n2_cos_cos():
    # f = cos(2 pi x1) cos(2 pi y2): diagonal entries -pi^2 cos cos, off-diagonal
    # i pi^2 sin sin.
    grid = GridSpec(2, 8)
    x1 = grid.axis_coordinate(0)
    y2 = grid.axis_coordinate(3)
    f = ScalarField(grid, np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2) + np.zeros(grid.shape))
    H = complex_hessian(f)
    cc = np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2) + np.zeros(grid.shape)
    ss = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * y2) + np.zeros(grid.shape)
    assert np.abs(H.entries[0, 0] - (-np.pi**2 * cc)).max() < 1e-11
    assert np.abs(H.entries[1, 1] - (-np.pi**2 * cc)).max() < 1e-11
    assert np.abs(H.entries[0, 1] - 1j * np.pi**2 * ss).max() < 1e-11
    assert np.abs(H.entries[1, 0] + 1j * np.pi**2 * ss).max() < 1e-11


@pytest.mark.parametrize("n,N", [(1, 16), (1, 32), (2, 8), (2, 16)])
def test_hessian_matches_trig_oracle(n, N):
    rng = np.random.default_rng(1234 + 10 * n + N)
    grid = GridSpec(n, N)
    modes = random_modes(rng, grid, count=6, max_mode=3)
    f = synthesize(grid, modes)
    H = complex_hessian(f)
    expected = trig_hessian_oracle(grid, modes)
    assert np.abs(H.entries - expected).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_hessian_buffer_matches_allocating_call(n):
    rng = np.random.default_rng(40 + n)
    grid = GridSpec(n, 16)
    coeffs = forward(grid, rng.standard_normal(grid.shape))
    want = hessian_components(grid, coeffs)
    buf = np.full((want.shape[0],) + coeffs.shape, np.nan, dtype=np.complex128)
    got = hessian_components(grid, coeffs, buf)
    assert np.array_equal(got, want)
    assert not np.shares_memory(got, buf)


def test_hessian_hermitian_for_rough_input():
    # Even white noise must produce an exactly Hermitian (to round-off) result.
    rng = np.random.default_rng(7)
    grid = GridSpec(2, 8)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    H = complex_hessian(f)
    assert H.hermitian_defect() < 1e-12 * max(1.0, np.abs(H.entries).max())
    assert np.abs(H.entries[0, 0].imag).max() < 1e-10


def test_hessian_diagonal_zero_mean():
    rng = np.random.default_rng(8)
    grid = GridSpec(2, 16)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    H = complex_hessian(f)
    for j in range(2):
        assert abs(np.mean(H.entries[j, j].real)) < 1e-12 * max(1.0, np.abs(H.entries).max())


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
    # any constant matrix M.
    rng = np.random.default_rng(5)
    grid = GridSpec(2, 8)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    H = complex_hessian(f)
    R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    M = R + R.conj().T
    tr = sum(M[j, k] * H.entries[k, j] for j in range(2) for k in range(2))
    scale = max(1.0, np.abs(H.entries).max())
    assert abs(np.mean(tr.real)) < 1e-12 * scale
    assert np.abs(tr.imag).max() < 1e-10 * scale


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
    base = complex_hessian(f).entries.copy()
    monkeypatch.setenv("MKRF_THREADS", "2")
    threaded = complex_hessian(f).entries
    assert base.tobytes() == threaded.tobytes()
