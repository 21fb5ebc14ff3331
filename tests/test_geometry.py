import math
import weakref

import numpy as np
import pytest

from mkrf.geometry import (
    KahlerForm,
    Regime,
    SingularMetricError,
    class_volume,
    compute_T,
    flow_laplacian,
    ma_density,
    trace_pair,
)
from mkrf.grid import GridSpec, ScalarField, mean, synthesize


def identity_form(grid):
    return KahlerForm(np.eye(grid.n), grid.zeros())


def shifted_form(form, u):
    """The form with potential phi + u."""
    return KahlerForm(form.A, ScalarField(form.grid, form.phi.values + u.values))


def random_positive_hermitian_field(rng, grid, shift=0.5):
    """Components of the pointwise R^H R + shift*I, positive definite by
    construction."""
    n = grid.n
    R = rng.standard_normal((n, n) + grid.shape) + 1j * rng.standard_normal((n, n) + grid.shape)
    entries = np.zeros((n, n) + grid.shape, dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            for m in range(n):
                entries[j, k] += np.conj(R[m, j]) * R[m, k]
    for j in range(n):
        entries[j, j] += shift
    if n == 1:
        return entries[0, 0].real[None]
    return np.stack([entries[0, 0].real, entries[1, 1].real,
                     entries[0, 1].real, entries[0, 1].imag])


def pointwise_matrices(comps):
    """Rearrange a component tuple or stack into an (..., n, n) stack of
    Hermitian matrices for numpy oracles."""
    if len(comps) == 1:
        return np.asarray(comps[0], dtype=np.complex128)[..., None, None]
    g11, g22, p, q = comps
    off = p + 1j * q
    return np.stack([np.stack([g11 + 0j, off], axis=-1),
                     np.stack([np.conj(off), g22 + 0j], axis=-1)], axis=-2)


# --- ma_density -------------------------------------------------------------


def test_ma_density_flat():
    grid = GridSpec(2, 8)
    d = ma_density(identity_form(grid), grid.zeros())
    assert np.abs(d.values - 1.0).max() < 1e-14


def test_ma_density_n1_cosine():
    grid = GridSpec(1, 32)
    a, eps = 2.0, 0.05
    form = KahlerForm(np.array([[a]]), grid.zeros())
    u = synthesize(grid, [((1, 0), eps)])
    d = ma_density(form, u)
    x = grid.axis_coordinate(0)
    expected = a - eps * np.pi**2 * np.cos(2 * np.pi * x) + 0.0 * grid.axis_coordinate(1)
    assert np.abs(d.values - expected).max() < 1e-12


def test_ma_density_n2_matches_dense_determinant():
    rng = np.random.default_rng(21)
    grid = GridSpec(2, 8)
    phi = synthesize(grid, [((1, 0, 0, 0), 0.01), ((0, 1, 1, 0), 0.008)])
    u = synthesize(grid, [((0, 0, 1, 0), 0.012), ((1, 0, 0, 1), -0.007)])
    form = KahlerForm(np.eye(2), phi)
    d = ma_density(form, u)
    M = pointwise_matrices(shifted_form(form, u).metric())
    expected = np.linalg.det(M).real
    assert np.abs(d.values - expected).max() < 1e-12


def test_ma_density_positivity_loss_reports_location():
    grid = GridSpec(1, 32)
    form = KahlerForm(np.array([[0.1]]), grid.zeros())
    u = synthesize(grid, [((1, 0), 0.05)])  # H11 = -0.05 pi^2 cos, dips below -0.1
    with pytest.raises(SingularMetricError) as exc:
        ma_density(form, u)
    err = exc.value
    x = err.location[0] / grid.N
    val = 0.1 - 0.05 * np.pi**2 * np.cos(2 * np.pi * x)
    assert err.lambda_min == pytest.approx(val, abs=1e-12)
    assert err.lambda_min < 0


# --- positivity test ---------------------------------------------------------

from hypothesis import Phase, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from mkrf.geometry import (  # noqa: E402
    POSITIVITY_EPS,
    check_positive_components,
    det_components,
    lambda_min_components,
    positive_components,
)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_positivity_test_decides_as_the_eigenvalue_scan(n, data):
    # random Hermitian component fields, shifted so that both outcomes
    # occur, with lambda_min away from the threshold at every point
    shape = (3, 5)
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    comps = [data.draw(arrays(np.float64, shape, elements=entries)) for _ in range(n * n)]
    shift = data.draw(st.floats(-1.0, 3.0))
    floor = data.draw(st.sampled_from([POSITIVITY_EPS, 1e-3, 0.5]))
    for diagonal in comps[:n]:
        diagonal += shift
    det = det_components(comps)
    lam = lambda_min_components(comps[:2], det)
    assume(float(np.abs(lam - floor).min()) > 1e-9)
    expected = bool(float(lam.min()) >= floor)
    assert positive_components(comps, det, floor) == expected
    assert positive_components(comps, det, floor, work=np.empty(shape)) == expected
    if floor == POSITIVITY_EPS:
        if expected:
            check_positive_components(comps, det)
        else:
            # on failure the eigenvalue scan names lambda_min and its point
            with pytest.raises(SingularMetricError) as exc:
                check_positive_components(comps, det)
            assert exc.value.lambda_min == float(lam.min())
            assert exc.value.location == np.unravel_index(int(np.argmin(lam)), shape)
            assert exc.value.t is None


def test_positivity_test_fails_on_nan():
    for comps in ((np.array([1.0, np.nan]),),
                  (np.array([1.0, np.nan]), np.ones(2), np.zeros(2), np.zeros(2))):
        assert not positive_components(comps, det_components(comps))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# a wrong operation order fails on nearly every input, so shrinking would
# show nothing more than the first failing example
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_streamed_metric_is_bit_identical_to_the_four_row_stack(n, data):
    # the flow makes A + H one Hessian row at a time and keeps only the
    # diagonal and det; those, the positivity verdict and the error of a
    # failed test must be the bits the stack-based path gives, on arbitrary
    # finite rows and class constants (zero and signed-zero off-diagonals
    # included), small enough that no product overflows
    from mkrf.geometry import constant_components, diagonal_and_det, singular_metric_error

    shape = (3, 4)
    value = st.one_of(st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 1e-310, -1.0, 1.0]))
    rows = [data.draw(arrays(np.float64, shape, elements=value)) for _ in range(n * n)]
    for row in rows[n:]:
        zero = data.draw(st.sampled_from([None, 0.0, -0.0]))
        if zero is not None:
            row[...] = zero
    a11, a22, ap, aq = (data.draw(value) for _ in range(4))
    A = np.array([[a11, complex(ap, aq)], [complex(ap, -aq), a22]])[:n, :n]
    floor = data.draw(st.sampled_from([POSITIVITY_EPS, 1e-3, 0.5]))

    comps = tuple(c + row for c, row in zip(constant_components(A, n), rows))
    det_ref = det_components(comps)
    diag, det = diagonal_and_det(A, (row.copy() for row in rows), n)
    assert len(diag) == n
    assert [_bits(g) for g in diag] == [_bits(g) for g in comps[:n]]
    assert _bits(det) == _bits(det_ref)
    assert positive_components(diag, det, floor) == positive_components(comps, det_ref, floor)
    err = singular_metric_error(diag, det, 0.5)
    ref = singular_metric_error(comps[:2], det_ref, 0.5)
    assert _bits(err.lambda_min) == _bits(ref.lambda_min)
    assert err.location == ref.location


@pytest.mark.parametrize("n", [1, 2])
def test_check_metric_decides_on_the_bits_of_the_metric(n, monkeypatch):
    # the streamed check returns det of metric() bit for bit, and a failed
    # check names the time it is given and the eigenvalue scan of metric()
    import mkrf.grid
    from mkrf.geometry import det_components, lambda_min_components

    grid = GridSpec(n, 8)
    phi = synthesize(grid, [((1,) + (0,) * (2 * n - 1), 0.02), ((0,) * (2 * n - 1) + (1,), 0.01)])
    form = KahlerForm(np.eye(n), phi)
    assert _bits(form.check_metric(t=0.0)) == _bits(det_components(form.metric()))
    bad = KahlerForm(0.05 * np.eye(n), phi)
    comps = bad.metric()
    lam = lambda_min_components(comps[:2], det_components(comps))
    with pytest.raises(SingularMetricError) as exc:
        bad.check_metric(t=2.5)
    assert exc.value.t == 2.5 and exc.value.lambda_min == float(lam.min())
    assert exc.value.location == np.unravel_index(int(np.argmin(lam)), grid.shape)

    # a vanishing potential is checked with zero rows, without a transform
    def refuse(values):
        raise AssertionError("transform of a zero potential")

    monkeypatch.setattr(mkrf.grid, "forward", refuse)
    assert np.all(identity_form(grid).check_metric() == 1.0)
    with pytest.raises(SingularMetricError):
        KahlerForm(-np.eye(n), grid.zeros()).check_metric()


# --- trace_pair -------------------------------------------------------------


def test_trace_pair_identity_cases():
    grid = GridSpec(2, 8)
    eye = identity_form(grid).metric()
    tp = trace_pair(eye, eye)
    assert np.abs(tp - 2.0).max() < 1e-14

    rng = np.random.default_rng(3)
    P = random_positive_hermitian_field(rng, grid)
    tp2 = trace_pair(P, P)
    assert np.abs(tp2 - 2.0).max() < 1e-11


def test_trace_pair_matches_dense_oracle():
    rng = np.random.default_rng(4)
    grid = GridSpec(2, 8)
    P = random_positive_hermitian_field(rng, grid)
    Q = random_positive_hermitian_field(rng, grid)
    tp = trace_pair(P, Q)
    Pm = pointwise_matrices(P)
    Qm = pointwise_matrices(Q)
    expected = np.trace(np.linalg.inv(Pm) @ Qm, axis1=-2, axis2=-1).real
    assert np.abs(tp - expected).max() < 1e-10 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("with_det", [False, True])
def test_trace_pair_in_place_is_bit_identical(n, with_det):
    # the pairing consumes a hessian_components-shaped stack and keeps the
    # operation order of the plain formula
    from mkrf.geometry import det_components, trace_pair_components

    def plain(phi, psi, det):
        if n == 1:
            return psi[0] / phi[0]
        f11, f22, fp, fq = phi
        s11, s22, sp, sq = psi
        if det is None:
            det = det_components(phi)
        return (f22 * s11 + f11 * s22 - 2.0 * (fp * sp + fq * sq)) / det

    rng = np.random.default_rng(11)
    shape = GridSpec(n, 8).shape
    phi = 0.1 * rng.standard_normal((n * n,) + shape)
    phi[:n] += 1.0
    phi = tuple(phi)
    stack = rng.standard_normal((n * n,) + shape)
    det = det_components(phi) if with_det else None
    want = plain(phi, stack.copy(), det)
    got = trace_pair_components(phi, stack, det)
    assert np.array_equal(got, want)
    assert np.shares_memory(got, stack[0])


def test_trace_pair_leaves_its_arguments_alone():
    # the public pairing copies the rows the componentwise one overwrites
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(5)
    phi = 0.1 * rng.standard_normal((4,) + grid.shape)
    phi[:2] += 1.0
    psi = rng.standard_normal((4,) + grid.shape)
    kept = (phi.copy(), psi.copy())
    trace_pair(phi, psi)
    assert np.array_equal(phi, kept[0]) and np.array_equal(psi, kept[1])


@pytest.mark.parametrize("n", [1, 2])
def test_trace_pair_reads_an_iterator_of_rows_in_order(n):
    # the elliptic layer feeds the pairing Hessian rows made on demand; at
    # most three may be live, and the result is the stacked call's
    from mkrf.geometry import trace_pair_components

    rng = np.random.default_rng(12 + n)
    shape = GridSpec(n, 8).shape
    phi = 0.1 * rng.standard_normal((n * n,) + shape)
    phi[:n] += 1.0
    phi = tuple(phi)
    stack = rng.standard_normal((n * n,) + shape)
    want = trace_pair_components(phi, stack.copy(), 1.0)
    made = []

    def rows():
        for k in range(len(stack)):
            # with the row about to be made, at most three are live
            assert sum(ref() is not None for ref in made) <= 2
            row = [stack[k].copy()]
            made.append(weakref.ref(row[0]))
            yield row.pop()

    got = trace_pair_components(phi, rows(), 1.0)
    assert len(made) == n * n and made[0]() is got
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_trace_pair_rejects_singular():
    grid = GridSpec(2, 8)
    singular = np.zeros((4,) + grid.shape)
    singular[0] = 1.0  # g22 = 0: singular everywhere
    eye = identity_form(grid).metric()
    with pytest.raises(SingularMetricError):
        trace_pair(singular, eye)


def test_trace_pair_rejects_shape_mismatch():
    eye8 = identity_form(GridSpec(2, 8)).metric()
    with pytest.raises(ValueError, match="shape mismatch"):
        trace_pair(eye8, identity_form(GridSpec(2, 16)).metric())
    with pytest.raises(ValueError, match="shape mismatch"):
        trace_pair(eye8, eye8[:1])
    with pytest.raises(ValueError, match="shape mismatch"):
        flow_laplacian(eye8, GridSpec(2, 16).zeros())


# --- flow_laplacian ---------------------------------------------------------


def test_flow_laplacian_identity_metric():
    grid = GridSpec(1, 32)
    eye = identity_form(grid).metric()
    f = synthesize(grid, [((1, 0), 1.0), ((0, 2), 0.5)])
    lap = flow_laplacian(eye, f)
    # Delta f = (f_xx + f_yy)/4 for the identity metric.
    x, y = grid.axis_coordinate(0), grid.axis_coordinate(1)
    expected = -np.pi**2 * (np.cos(2 * np.pi * x) + 0.5 * 4.0 * np.cos(4 * np.pi * y)) + np.zeros(
        grid.shape
    )
    assert np.abs(lap.values - expected).max() < 1e-10


def test_flow_laplacian_constant_field():
    grid = GridSpec(2, 8)
    eye = identity_form(grid).metric()
    c = ScalarField(grid, np.full(grid.shape, 3.3))
    lap = flow_laplacian(eye, c)
    assert np.abs(lap.values).max() < 1e-12


def test_flow_laplacian_zero_mean_constant_metric():
    rng = np.random.default_rng(11)
    grid = GridSpec(2, 8)
    A = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.5]])
    form = KahlerForm(A, grid.zeros())
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    lap = flow_laplacian(form.metric(), f)
    scale = max(1.0, np.abs(lap.values).max())
    assert abs(mean(lap)) < 1e-12 * scale


# --- compute_T / class_volume ----------------------------------------------


def scan_s_star(A0, Ainf, step=1e-6):
    """Independent dense-scan oracle for the pencil boundary."""
    s = np.arange(step, 1.0 + step, step)
    mus = np.array(
        [np.linalg.eigvalsh((1.0 - si) * Ainf + si * A0).min() for si in s]
    )
    pos = np.nonzero(mus > 0)[0]
    return s[pos[0]]


def test_compute_T_kahler_limit():
    path = compute_T(np.eye(2), np.eye(2))
    assert path.regime == Regime.KAHLER_LIMIT
    assert math.isinf(path.T)


def test_compute_T_finite_time_closed_form():
    A0 = np.eye(2)
    Ainf = np.diag([2.0, -1.0]).astype(complex)
    path = compute_T(A0, Ainf)
    assert path.regime == Regime.FINITE_TIME
    # mu(s) = 2s - 1 on the second eigendirection, so s* = 1/2 and T = log 2.
    assert abs(path.s_star - 0.5) < 1e-11
    assert abs(path.T - math.log(2.0)) < 1e-10
    s_scan = scan_s_star(A0, Ainf, step=1e-5)
    assert abs(path.s_star - s_scan) < 2e-5


def test_compute_T_collapsed():
    path = compute_T(np.eye(2), np.diag([1.0, 0.0]).astype(complex))
    assert path.regime == Regime.COLLAPSED
    assert math.isinf(path.T)
    assert path.r == 1


def test_compute_T_rejects_nonpositive_A0():
    with pytest.raises(ValueError):
        compute_T(np.diag([1.0, -0.5]), np.eye(2))


def test_compute_T_monotone_consistency():
    rng = np.random.default_rng(17)
    for _ in range(20):
        R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A0 = R @ R.conj().T + 0.5 * np.eye(2)
        S = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Ainf = S + S.conj().T  # generically indefinite
        if np.linalg.eigvalsh(Ainf).min() >= 0:
            continue
        path = compute_T(A0, Ainf)
        assert path.regime == Regime.FINITE_TIME

        def mu(s):
            return np.linalg.eigvalsh((1 - s) * Ainf + s * A0).min()

        for s in np.linspace(path.s_star + 1e-10, 1.0, 37):
            assert mu(s) > 0.0
        assert mu(path.s_star) <= 1e-10


def test_class_volume():
    assert class_volume(np.eye(2)) == pytest.approx(1.0)
    assert class_volume(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0, abs=1e-15)
    assert class_volume(np.diag([2.0, 3.0]).astype(complex)) == pytest.approx(6.0)


def test_class_path_pencil():
    path = compute_T(np.eye(2), np.diag([1.0, 0.0]).astype(complex))
    At = path.A_t(2.0)
    assert np.allclose(At, np.diag([1.0, math.exp(-2.0)]))


# --- trace inequalities (also acceptance criterion 7) ------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_trace_inequalities_random_pairs(n):
    rng = np.random.default_rng(1000 + n)
    grid = GridSpec(n, 8)  # n=2 gives 4096 points, over 1000 random pairs
    alpha = random_positive_hermitian_field(rng, grid)
    beta = random_positive_hermitian_field(rng, grid)
    t_ab = trace_pair(alpha, beta)
    t_ba = trace_pair(beta, alpha)
    assert (t_ab * t_ba - n * n).min() > -1e-12

    Am = pointwise_matrices(alpha)
    Bm = pointwise_matrices(beta)
    det_a = np.linalg.det(Am).real
    det_b = np.linalg.det(Bm).real
    margin = t_ab ** (n - 1) * det_a / det_b - t_ba
    assert margin.min() > -1e-12


# --- cohomology conservation and linearization ------------------------------


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_cohomology_conservation(n, N):
    grid = GridSpec(n, N)
    if n == 1:
        A = np.array([[1.5]])
        phi = synthesize(grid, [((1, 0), 0.01)])
        u = synthesize(grid, [((2, 0), 0.004), ((0, 1), 0.006)])
    else:
        A = np.array([[1.5, 0.2j], [-0.2j, 1.2]])
        phi = synthesize(grid, [((1, 0, 0, 0), 0.01)])
        u = synthesize(grid, [((0, 1, 1, 0), 0.006), ((1, 0, 0, 1), 0.004)])
    form = KahlerForm(A, phi)
    m_u = mean(ma_density(form, u))
    m_0 = mean(ma_density(form, grid.zeros()))
    assert abs(m_u - m_0) < 1e-9
    # and both agree with the class volume
    assert abs(m_0 - class_volume(A)) < 1e-9


def test_ma_linearization_directional_derivative():
    grid = GridSpec(2, 8)
    phi = synthesize(grid, [((1, 0, 0, 0), 0.01)])
    form = KahlerForm(np.eye(2), phi)
    u = synthesize(grid, [((0, 0, 1, 0), 0.01)])
    delta = synthesize(grid, [((1, 0, 1, 0), 0.008), ((0, 1, 0, 0), 0.005)])

    from mkrf.grid import complex_hessian

    base = ma_density(form, u)
    metric = shifted_form(form, u).metric()
    lin = trace_pair(metric, complex_hessian(delta))
    predicted_det = base.values * lin

    # det is polynomial of degree n in the potential, so for n <= 2 centered
    # differences reproduce the directional derivative to round-off.
    det_errs = {}
    log_errs = {}
    for eps in (1e-3, 1e-4, 1e-5):
        up = ma_density(form, ScalarField(grid, u.values + eps * delta.values)).values
        dn = ma_density(form, ScalarField(grid, u.values - eps * delta.values)).values
        fd = (up - dn) / (2 * eps)
        det_errs[eps] = np.abs(fd - predicted_det).max() / max(1.0, np.abs(predicted_det).max())
        fd_log = (np.log(up) - np.log(dn)) / (2 * eps)
        log_errs[eps] = np.abs(fd_log - lin).max() / max(1.0, np.abs(lin).max())

    assert all(e <= 1e-6 for e in det_errs.values())
    assert log_errs[1e-5] <= 1e-6
    # the log-density linearization shows clean second-order convergence
    assert 30.0 < log_errs[1e-3] / log_errs[1e-4] < 300.0
