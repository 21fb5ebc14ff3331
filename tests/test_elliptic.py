import math

import numpy as np
import pytest

from mkrf.elliptic import (
    EllipticProblem,
    solve_cy,
    solve_psi_family,
)
from mkrf.flow import FlowProblem
from mkrf.geometry import KahlerForm, VolumeDensity, ma_density, trace_pair
from mkrf.grid import (GridSpec, ScalarField, complex_hessian, forward, hessian_components,
                       inverse, mean, synthesize, tables)
from mkrf.scenario import Scenario, build_limit_problem, validate


def batched_hessian(g, coeffs):
    """Every Hessian row of coeffs from one batched inverse transform of the
    tables' symbols, broadcast to the full grid and stacked."""
    stack = np.stack(np.broadcast_arrays(*tables(g).symbols()))
    return hessian_components(g, coeffs, np.empty(stack.shape, dtype=np.complex128), stack)


def ones_density(grid):
    return VolumeDensity(ScalarField(grid, np.ones(grid.shape)))


def newton_from(prob, U0=None):
    """A single-level Newton solve from U0 less its mean, or from zero (the
    start _newton_from falls back to): (U, report), with no coarse level."""
    import mkrf.elliptic as elliptic

    g = prob.form.grid
    U = np.zeros(g.shape) if U0 is None else U0.values - U0.values.mean()
    U, rep = elliptic._newton(prob, U, elliptic.SUP_TOL_FACTOR)
    return ScalarField(g, U), rep


def test_solve_cy_trivial():
    g = GridSpec(1, 16)
    prob = EllipticProblem.compatible(KahlerForm(np.eye(1), g.zeros()), ones_density(g))
    U, rep = solve_cy(prob)
    assert np.abs(U.values).max() == 0.0
    assert rep.converged
    assert rep.iterations == 0


def test_solve_cy_manufactured():
    # prescribe the density from a known potential; 0.1 cos leaves the metric
    # barely positive, exercising the damping safety as well
    g = GridSpec(1, 64)
    Ustar = synthesize(g, [((1, 0), 0.1)])
    form = KahlerForm(np.eye(1), g.zeros())
    h = ma_density(form, Ustar)
    assert mean(h) == pytest.approx(1.0, abs=1e-12)
    prob = EllipticProblem.compatible(form, VolumeDensity(h))
    U, rep = solve_cy(prob)
    gap = np.abs(U.values - (Ustar.values - Ustar.values.mean())).max()
    assert gap < 1e-9
    assert rep.final_residual <= 1e-10 * prob.c * mean(ScalarField(g, h.values))
    assert abs(U.values.mean()) < 1e-12
    # accepted damped steps decrease the residual monotonically
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_solve_cy_unique_up_to_gauge():
    g = GridSpec(1, 32)
    form = KahlerForm(np.eye(1), g.zeros())
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0), 0.12), ((0, 2), 0.05)]).values))
    prob = EllipticProblem.compatible(form, VolumeDensity(h))
    U1, _ = solve_cy(prob)
    U2, _ = newton_from(prob, synthesize(g, [((2, 0), 0.01), ((0, 1), 0.015)]))
    assert np.abs(U1.values - U2.values).max() < 1e-8


def test_solve_cy_n2_with_potential_part():
    # N=16 keeps the spectral tail of the synthesized density far below the
    # residual certificate
    g = GridSpec(2, 16)
    phi = synthesize(g, [((1, 0, 0, 0), 0.01)])
    form = KahlerForm(np.array([[1.2, 0.1j], [-0.1j, 1.0]]), phi)
    h = ScalarField(g, np.exp(synthesize(g, [((0, 0, 1, 0), 0.08), ((1, 0, 0, 1), 0.04)]).values))
    prob = EllipticProblem.compatible(form, VolumeDensity(h))
    U, rep = solve_cy(prob)
    resid = ma_density(form, U).values - prob.c * h.values
    assert np.abs(resid).max() <= 1e-10 * prob.c * mean(h)
    assert rep.converged


def test_solve_cy_reports_unresolved_target():
    # a coarse grid cannot match the Nyquist-set content of this density;
    # the failure names the cause
    from mkrf.elliptic import NewtonConvergenceError

    g = GridSpec(2, 8)
    form = KahlerForm(np.eye(2), g.zeros())
    h = ScalarField(g, np.exp(synthesize(g, [((0, 0, 1, 0), 0.2), ((1, 0, 0, 1), 0.15)]).values))
    prob = EllipticProblem.compatible(form, VolumeDensity(h))
    with pytest.raises(NewtonConvergenceError) as exc:
        solve_cy(prob)
    assert "Nyquist" in exc.value.report.message


def test_newton_operator_matches_directional_derivative():
    g = GridSpec(2, 8)
    form = KahlerForm(np.eye(2), synthesize(g, [((1, 0, 0, 0), 0.01)]))
    U = synthesize(g, [((0, 0, 1, 0), 0.01)])
    delta = synthesize(g, [((0, 1, 1, 0), 0.006)])
    base = ma_density(form, U)
    metric = KahlerForm(form.A, ScalarField(g, form.phi.values + U.values)).metric()
    predicted = base.values * trace_pair(metric, complex_hessian(delta))
    eps = 1e-5
    up = ma_density(form, ScalarField(g, U.values + eps * delta.values)).values
    dn = ma_density(form, ScalarField(g, U.values - eps * delta.values)).values
    fd = (up - dn) / (2 * eps)
    rel = np.abs(fd - predicted).max() / max(1.0, np.abs(predicted).max())
    assert rel <= 1e-6


def test_solve_cy_rejects_degenerate_class():
    g = GridSpec(2, 8)
    form = KahlerForm(np.diag([1.0, 0.0]).astype(complex), g.zeros())
    with pytest.raises(ValueError):
        solve_cy(EllipticProblem.compatible(form, ones_density(g)))


def collapsed_flow_problem(N=8, with_phi=True):
    g = GridSpec(2, N)
    phi0 = synthesize(g, [((1, 0, 0, 0), 0.02), ((0, 1, 1, 0), 0.008)]) if with_phi \
        else g.zeros()
    return FlowProblem(
        KahlerForm(np.eye(2), phi0),
        KahlerForm(np.diag([1.0, 0.0]).astype(complex), g.zeros()),
        ones_density(g),
    )


def test_psi_family_trivial_at_zero():
    fp = collapsed_flow_problem(with_phi=False)
    psis, reps = solve_psi_family(fp, [0.0])
    assert np.abs(psis[0].values).max() < 1e-12
    assert reps[0].converged


def test_psi_family_bounds_and_rates():
    fp = collapsed_flow_problem()
    times = [0.0, 2.0, 5.0, 8.0]
    psis, reps = solve_psi_family(fp, times)
    sups = [float(np.abs(p.values).max()) for p in psis]
    # uniformly bounded and non-trending: the late sups do not exceed the
    # early ones by more than the acceptance slack
    assert max(sups[2:]) <= max(sups[:2]) + 0.1
    rates = [
        float(np.abs(b.values - a.values).max()) / (t1 - t0)
        for (a, b, t0, t1) in zip(psis, psis[1:], times, times[1:])
    ]
    assert all(r <= rates[0] + 1e-9 for r in rates)
    # residual certificate at the collapsing scale det(A_t)
    for t, rep in zip(times, reps):
        scale = float(np.linalg.det(fp.A_t(t)).real)
        assert rep.final_residual <= 1e-10 * scale


def test_psi_family_solves_every_time_cold():
    from mkrf.elliptic import psi_problem

    fp = collapsed_flow_problem(N=16)
    times = [0.0, 2.0, 5.0]
    psis, reps = solve_psi_family(fp, times)
    assert [r.start for r in reps] == ["nested"] * len(times)
    for t, psi in zip(times, psis):
        alone, _ = solve_cy(psi_problem(fp, t))
        assert np.array_equal(psi.values, alone.values)


def test_psi_family_of_a_product_density_is_its_base_solutions():
    # on the collapsing pencil A_t = diag(1, e^-t) with a density h1(z1) h2(z2)
    # and no potential, psi_t = a(z1) + e^-t b(z2) solves the psi equation,
    # where 1 + H11[a] = h1 / mean(h1) and 1 + H22[b] = h2 / mean(h2): each
    # factor is one spectral Poisson solve.  t = 12 and later wait for the
    # psi certificate on nearly collapsed classes.
    g = GridSpec(2, 16)
    h1 = np.exp(synthesize(g, [((1, 0, 0, 0), 0.1)]).values)
    h2 = np.exp(synthesize(g, [((0, 0, 1, 1), 0.08, 0.3)]).values)
    log_h = synthesize(g, [((1, 0, 0, 0), 0.1), ((0, 0, 1, 1), 0.08, 0.3)])
    fp = FlowProblem(KahlerForm(np.eye(2), g.zeros()),
                     KahlerForm(np.diag([1.0, 0.0]).astype(complex), g.zeros()),
                     VolumeDensity(ScalarField(g, np.exp(log_h.values))))
    symbols = tables(g).symbols()

    def poisson(f, j):
        """The mean-free solution u of H_jj[u] = f - mean(f)."""
        coeffs = forward(f - f.mean())
        sym = np.broadcast_to(symbols[j], coeffs.shape)
        sol = np.zeros_like(coeffs)
        np.divide(coeffs, sym, out=sol, where=sym != 0.0)
        return inverse(g, sol)

    a, b = poisson(h1 / h1.mean(), 0), poisson(h2 / h2.mean(), 1)
    times = [0.0, 5.0, 10.0]
    psis, reps = solve_psi_family(fp, times)
    assert all(rep.converged for rep in reps)
    for t, psi in zip(times, psis):
        want = a + math.exp(-t) * b
        assert np.abs(psi.values - (want - want.mean())).max() < 1e-11, t


def test_psi_family_requires_collapsed():
    g = GridSpec(2, 8)
    fp = FlowProblem(
        KahlerForm(np.eye(2), g.zeros()),
        KahlerForm(np.eye(2), g.zeros()),
        ones_density(g),
    )
    with pytest.raises(ValueError):
        solve_psi_family(fp, [0.0, 1.0])


def test_solve_cy_reports_nonconvergence(monkeypatch):
    import mkrf.elliptic as elliptic
    from mkrf.elliptic import NewtonConvergenceError

    # n=2 is genuinely nonlinear, so a single Newton iteration cannot reach
    # the certificate
    g = GridSpec(2, 8)
    form = KahlerForm(np.eye(2), g.zeros())
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0, 0, 0), 0.3), ((0, 0, 1, 0), 0.2)]).values))
    prob = EllipticProblem.compatible(form, VolumeDensity(h))
    monkeypatch.setattr(elliptic, "MAX_NEWTON_ITER", 1)
    with pytest.raises(NewtonConvergenceError) as exc:
        solve_cy(prob)
    assert exc.value.report.iterations <= 1
    assert exc.value.report.final_residual > 0.0


def varying_density_problem():
    # at N=8 this density has content the grid cannot resolve
    g = GridSpec(2, 16)
    form = KahlerForm(np.array([[1.2, 0.1j], [-0.1j, 1.0]]), g.zeros())
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0, 0, 0), 0.1), ((0, 1, 1, 0), 0.05)]).values))
    return EllipticProblem.compatible(form, VolumeDensity(h))


def test_newton_report_records_forcing_and_matvecs(monkeypatch):
    import mkrf.elliptic as elliptic

    calls = []
    pairing = elliptic.trace_pair_components

    def counted(*args, **kwargs):
        calls.append(1)
        return pairing(*args, **kwargs)

    monkeypatch.setattr(elliptic, "trace_pair_components", counted)
    prob = varying_density_problem()
    form, h = prob.form, prob.omega.h
    # a single-level solve from zero
    _, plain = newton_from(prob)

    # record every Newton system and apply its operator once more to the
    # Krylov solution y: K y is J delta for the Newton step delta
    systems = []
    real_solve = elliptic._FrameOperators.solve

    def recording_solve(ops, comps, mean_det, rhs, rtol):
        y, Ky = real_solve(ops, comps, mean_det, rhs, rtol)
        systems.append((rhs.copy(), ops.apply(comps, mean_det, y).copy()))
        return y, Ky

    monkeypatch.setattr(elliptic._FrameOperators, "solve", recording_solve)
    calls.clear()
    _, rep = newton_from(prob)
    assert rep.iterations >= 3
    assert len(rep.linear_rtols) == len(rep.matvecs) == len(systems) == rep.iterations
    assert rep.krylov_cycles == plain.krylov_cycles
    assert len(plain.krylov_cycles) == plain.iterations and min(plain.krylov_cycles) >= 1
    assert sum(rep.matvecs) == len(calls)
    # the forcing reads J s off the K y the Krylov solve keeps current: an
    # extra application of K changes nothing
    assert rep.linear_rtols == plain.linear_rtols
    assert [m - 1 for m in rep.matvecs] == plain.matvecs
    # the relative linear residual each system reached, from the same check
    assert rep.linear_residuals == plain.linear_residuals
    for reached, (b, jx) in zip(plain.linear_residuals, systems):
        assert reached == pytest.approx(np.linalg.norm(jx - b) / np.linalg.norm(b), rel=1e-12)

    # forcing: the relative residual first, then the safeguarded
    # Eisenstat-Walker choice 1; capped at MAX_FORCING, floored at
    # LINEAR_RTOL and at half the Newton tolerance
    det_a = float(np.linalg.det(form.A).real)
    unit = prob.c * mean(h)
    tol = unit / det_a * elliptic.SUP_TOL_FACTOR
    eta = plain.residual_history[0] / unit
    for k, (rtol, (b, jx)) in enumerate(zip(rep.linear_rtols, systems)):
        if k > 0:
            b_prev, jx_prev = systems[k - 1]
            s = rep.damping_history[k - 1]
            linear = np.linalg.norm(s * jx_prev - b_prev)
            eta = abs(np.linalg.norm(b) - linear) / np.linalg.norm(b_prev)
            safeguard = rep.linear_rtols[k - 1] ** ((1.0 + math.sqrt(5.0)) / 2.0)
            if safeguard > 0.1:
                eta = max(eta, safeguard)
        expected = max(elliptic.LINEAR_RTOL,
                       min(elliptic.MAX_FORCING, max(eta, 0.5 * tol / np.linalg.norm(b))))
        assert rtol == pytest.approx(expected, rel=1e-9)


def _frame_operators_at(n, weighted=False, N=8):
    from mkrf.elliptic import _FrameOperators, _frame_state, _frame_stencil
    from mkrf.geometry import matrix_sqrt_hermitian

    g = GridSpec(n, N)
    if n == 1:
        A = np.array([[1.7]])
        phi = synthesize(g, [((1, 0), 0.01), ((0, 2), 0.004, 0.3)])
    else:
        A = np.array([[1.3, 0.2 + 0.15j], [0.2 - 0.15j, 0.9]])
        phi = synthesize(g, [((1, 0, 0, 0), 0.01), ((0, 1, 1, 0), 0.006, 0.4)])
    prob = EllipticProblem.compatible(KahlerForm(A, phi), ones_density(g))
    root_inv = matrix_sqrt_hermitian(np.linalg.inv(prob.form.A))
    U = synthesize(g, [((0,) * (2 * n - 1) + (1,), 0.005, 1.1)]).values
    row_buf = np.empty((1,) + tables(GridSpec(n, N)).rshape, dtype=np.complex128)
    stencil = _frame_stencil(g, prob.form.A)
    comps, det = _frame_state(prob, stencil, U, row_buf)
    weight = (np.exp(synthesize(g, [((1,) + (0,) * (2 * n - 1), 0.2, 0.5)]).values)
              if weighted else None)
    ops = _FrameOperators(g, prob.form.A, stencil, row_buf, weight)
    return g, root_inv, comps, det, weight, ops


def _reference_preconditioner(g, A, weight, mean_det, v):
    """The preconditioner as a separate operator: the exact inverse of the
    mean-metric Laplacian of v / w, zero on its kernel, over mean_det."""
    from mkrf.grid import forward, inverse, tables

    ell = np.broadcast_to(tables(g).laplacian_symbol(np.linalg.inv(A)),
                          tables(g).rshape)
    inv_ell = np.divide(1.0, ell, out=np.zeros(ell.shape), where=ell != 0.0)
    v = v.reshape(g.shape) if weight is None else v.reshape(g.shape) / weight
    return inverse(g, inv_ell * forward(v)) / mean_det


@pytest.mark.parametrize("n", [1, 2])
def test_folded_matvec_matches_frame_congruence(n):
    # reference: the preconditioner applied first, then the Jacobian as
    # det * tr(g^{-1} R H[v] R) with the frame congruence applied to the
    # Hessian fields; with and without a density weight
    from mkrf.geometry import congruence_components, trace_pair_components
    from mkrf.grid import forward

    rng = np.random.default_rng(7)
    for weighted in (False, True):
        g, root_inv, comps, det, weight, ops = _frame_operators_at(n, weighted)
        A = np.linalg.inv(root_inv @ root_inv)
        mean_det = float(det.mean())
        for _ in range(3):
            v = rng.standard_normal(g.num_points)
            u = _reference_preconditioner(g, A, weight, mean_det, v)
            hs = congruence_components(root_inv, batched_hessian(g, forward(u)))
            ref = det * trace_pair_components(comps, hs, det)
            ref = (ref - ref.mean()).ravel()
            got = ops.apply(comps, mean_det, v)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            # the lift is the preconditioner itself
            assert np.abs(ops.lift(v, mean_det) - u).max() <= 1e-12 * np.abs(u).max()
        assert ops.matvecs == 3


@pytest.mark.parametrize("n", [1, 2])
def test_operator_outputs_are_fresh_arrays(n):
    # the Krylov solve keeps every returned vector in its basis
    g, _, comps, det, _, ops = _frame_operators_at(n, weighted=True)
    mean_det = float(det.mean())
    rng = np.random.default_rng(3)
    v1, v2 = rng.standard_normal((2, g.num_points))
    for op in (lambda v: ops.apply(comps, mean_det, v), lambda v: ops.lift(v, mean_det)):
        first = op(v1)
        kept = first.copy()
        second = op(v2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)


def _counting(monkeypatch, names):
    """Record, in order, every call elliptic makes to the named functions."""
    import mkrf.elliptic as elliptic

    calls = []

    def counted(name):
        real = getattr(elliptic, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(elliptic, name, counted(name))
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_one_transform_pair_per_application(monkeypatch, n):
    # an application of K is one forward transform and one one-row Hessian
    # inverse per component, made on demand inside its one pairing; lifting
    # the Krylov solution is one forward and one inverse
    g, _, comps, det, _, ops = _frame_operators_at(n, weighted=True)
    calls = _counting(monkeypatch, ("forward", "inverse", "hessian_components",
                                    "trace_pair_components"))
    v = np.random.default_rng(9).standard_normal(g.num_points)
    ops.apply(comps, float(det.mean()), v)
    assert calls == ["forward", "trace_pair_components"] + ["hessian_components"] * n * n
    calls.clear()
    ops.lift(v, float(det.mean()))
    assert calls == ["forward", "inverse"]


def test_application_holds_one_hessian_row_at_a_time():
    # an application of K keeps the weighted spectrum, the result, the cross
    # term and the row in flight (about 4.1 real fields); a four-row Hessian
    # block (about 5.1) would show here.  pocketfft's own temporaries are not
    # traced, so this guards numpy allocations only
    import tracemalloc

    g, _, comps, det, _, ops = _frame_operators_at(2, weighted=True, N=16)
    mean_det = float(det.mean())
    v = np.random.default_rng(21).standard_normal(g.num_points)
    field_bytes = 8 * g.num_points
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ops.apply(comps, mean_det, v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == (g.num_points,) and ops.matvecs == 1
    assert peak < 4.5 * field_bytes, peak / field_bytes

def test_kernel_right_hand_side_gives_a_zero_step():
    # a right-hand side whose preconditioned image vanishes (here a
    # pure-Nyquist mode, which the spectral Hessian annihilates) has no
    # Krylov direction: the Arnoldi process breaks down at once, and the
    # solve stops after one application and one cycle, with y = 0
    g, _, comps, det, _, ops = _frame_operators_at(2)
    mean_det = float(det.mean())
    idx = np.indices(g.shape)
    rhs = ((-1.0) ** idx[0]).ravel()
    assert not ops.lift(rhs, mean_det).any()
    y, Ky = ops.solve(comps, mean_det, rhs, 1e-8)
    assert not y.any() and not ops.lift(y, mean_det).any()
    assert not Ky.any()
    assert ops.matvecs == 1 and ops.cycles == 1


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("inner_m", [30, 3])
def test_krylov_solve_keeps_K_y_current(monkeypatch, n, inner_m):
    # K y is read off the Arnoldi relation, not applied: after one restart
    # cycle (inner_m = 30) and after several (inner_m = 3 forces restarts,
    # whose augmentation pairs carry their K z) it equals an explicit
    # application of K to y within round-off
    import mkrf.elliptic as elliptic

    g, _, comps, det, _, ops = _frame_operators_at(n, weighted=True)
    mean_det = float(det.mean())
    # a right-hand side in the range of K
    rhs = ops.apply(comps, mean_det, np.random.default_rng(11).standard_normal(g.num_points))
    monkeypatch.setattr(elliptic, "INNER_M", inner_m)
    y, Ky = ops.solve(comps, mean_det, rhs, 1e-10)
    assert (ops.cycles == 1) == (inner_m == 30)
    assert np.abs(Ky - ops.apply(comps, mean_det, y)).max() <= 1e-13 * np.abs(rhs).max()
    assert np.linalg.norm(Ky - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_one_cycle_systems_apply_K_once_per_krylov_vector(monkeypatch):
    # no application checks the returned iterate: a Newton system whose
    # Krylov solve ends in its first restart cycle applies K once to each
    # vector of its Krylov basis, an orthonormal set that opens with the
    # normalized right-hand side, and to nothing else
    import mkrf.elliptic as elliptic

    systems = []
    real_solve, real_apply = elliptic._FrameOperators.solve, elliptic._FrameOperators.apply

    def solve(ops, comps, mean_det, rhs, rtol):
        systems.append((rhs / np.linalg.norm(rhs), []))
        return real_solve(ops, comps, mean_det, rhs, rtol)

    def apply(ops, comps, mean_det, y):
        systems[-1][1].append(y.copy())
        return real_apply(ops, comps, mean_det, y)

    monkeypatch.setattr(elliptic._FrameOperators, "solve", solve)
    monkeypatch.setattr(elliptic._FrameOperators, "apply", apply)
    calls = _counting(monkeypatch, ("trace_pair_components",))
    prob = varying_density_problem()
    _, rep = newton_from(prob)
    assert rep.converged and rep.iterations >= 3
    assert rep.krylov_cycles == [1] * rep.iterations
    assert rep.matvecs == [len(applied) for _, applied in systems]
    assert len(calls) == sum(rep.matvecs)
    for first, applied in systems:
        basis = np.stack(applied)
        assert np.abs(basis[0] - first).max() <= 1e-15
        assert np.abs(basis @ basis.T - np.eye(len(applied))).max() <= 1e-9


def under_resolved_problem():
    # the cy-n24 class and density at N = 16, zero phases: the N = 8 level
    # cannot resolve the density and fails
    g = GridSpec(2, 16)
    form = KahlerForm(np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]),
                      synthesize(g, [((1, 0, 0, 1), 0.01)]))
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.25),
                                             ((0, 0, 2, 1), 0.2), ((1, 1, 0, 0), 0.2)]).values))
    return EllipticProblem.compatible(form, VolumeDensity(h))


def test_krylov_image_stays_exact_on_an_under_resolved_density(monkeypatch):
    # the K y of every fine-grid Krylov solve, restarted and stagnating
    # ones included, equals an explicit application of K to y within
    # round-off of the right-hand side: the Arnoldi relation does not
    # drift where the iterate grows
    import mkrf.elliptic as elliptic

    prob = under_resolved_problem()
    gaps = []
    real = elliptic._FrameOperators.solve

    def solve(ops, comps, mean_det, rhs, rtol):
        y, Ky = real(ops, comps, mean_det, rhs, rtol)
        if ops.grid == prob.form.grid:
            explicit = ops.apply(comps, mean_det, y)
            gaps.append(np.linalg.norm(Ky - explicit) / np.linalg.norm(rhs))
        return y, Ky

    monkeypatch.setattr(elliptic._FrameOperators, "solve", solve)
    _, rep = solve_cy(prob)
    assert rep.converged and len(gaps) == rep.iterations and max(rep.krylov_cycles) > 1
    assert max(gaps) <= 1e-12, gaps


def test_krylov_solve_holds_its_basis_and_little_else(monkeypatch):
    # a Krylov solve with j applications peaks at its j + 1 basis vectors
    # and one application's temporaries, about j + 4.1 real fields above
    # its entry: no residual, start or step copies beside the basis
    import tracemalloc

    import mkrf.elliptic as elliptic

    prob = lean_state_problem()
    g = prob.form.grid
    field_bytes = 8 * g.num_points
    seen = []
    real = elliptic._FrameOperators.solve

    def solve(ops, *args):
        if ops.grid != g:
            return real(ops, *args)
        before, matvecs = tracemalloc.get_traced_memory()[0], ops.matvecs
        tracemalloc.reset_peak()
        out = real(ops, *args)
        seen.append((ops.matvecs - matvecs,
                     (tracemalloc.get_traced_memory()[1] - before) / field_bytes))
        return out

    monkeypatch.setattr(elliptic._FrameOperators, "solve", solve)
    tracemalloc.start()
    try:
        _, rep = solve_cy(prob)
    finally:
        tracemalloc.stop()
    assert rep.converged and seen
    assert all(peak <= j + 5 for j, peak in seen), seen


def _frame_rows_by_congruence(prob, U):
    """Reference frame metric: the congruence A^{-1/2} H A^{-1/2} applied to
    the physical Hessian fields, then the identity added."""
    from mkrf.geometry import congruence_components, matrix_sqrt_hermitian
    from mkrf.grid import forward

    g = prob.form.grid
    root_inv = matrix_sqrt_hermitian(np.linalg.inv(prob.form.A))
    hs = batched_hessian(g, forward(prob.form.phi.values + U))
    fr = list(congruence_components(root_inv, hs))
    fr[0] = 1.0 + fr[0]
    if g.n == 2:
        fr[1] = 1.0 + fr[1]
    return fr


def _frame_state_cases():
    from mkrf.elliptic import psi_problem

    g1, g2 = GridSpec(1, 16), GridSpec(2, 8)
    cases = {
        "n1": (EllipticProblem.compatible(
            KahlerForm(np.array([[1.7]]), synthesize(g1, [((1, 0), 0.01), ((0, 2), 0.004, 0.3)])),
            ones_density(g1)), synthesize(g1, [((0, 1), 0.005, 1.1)]).values),
        "n2": (EllipticProblem.compatible(
            KahlerForm(np.array([[1.3, 0.2 + 0.15j], [0.2 - 0.15j, 0.9]]),
                       synthesize(g2, [((1, 0, 0, 0), 0.01), ((0, 1, 1, 0), 0.006, 0.4)])),
            ones_density(g2)), synthesize(g2, [((0, 0, 0, 1), 0.005, 1.1)]).values),
        # lambda_min(A) = 8.8e-8, off the coordinate axes
        "n2-nearly-degenerate": (EllipticProblem.compatible(
            KahlerForm(np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.13 + 1e-7]]),
                       synthesize(g2, [((1, 0, 0, 0), 1e-9), ((0, 1, 1, 0), 6e-10, 0.4)])),
            ones_density(g2)), synthesize(g2, [((0, 0, 1, 1), 5e-10, 1.1)]).values),
    }
    # a late collapsed psi time: A_t = diag(1, e^-20), at its solution
    late = psi_problem(collapsed_flow_problem(N=8), 20.0)
    cases["psi-t20"] = (late, solve_cy(late)[0].values)
    return cases


@pytest.mark.parametrize("case", ["n1", "n2", "n2-nearly-degenerate", "psi-t20"])
def test_frame_rows_from_the_frame_stencil_match_the_congruence(case):
    from mkrf.elliptic import _frame_state, _frame_stencil
    from mkrf.geometry import det_components

    prob, U = _frame_state_cases()[case]
    g = prob.form.grid
    row_buf = np.empty((1,) + tables(g).rshape, dtype=np.complex128)
    kept = U.copy()
    rows, det = _frame_state(prob, _frame_stencil(g, prob.form.A), U, row_buf)
    ref = _frame_rows_by_congruence(prob, U)
    assert np.array_equal(U, kept)
    assert len(rows) == len(ref) == g.n * g.n
    for got, want in zip(rows, ref):
        assert got.shape == g.shape
        assert np.abs(got - want).max() <= 1e-13
    assert np.array_equal(det, det_components(rows))


def _full_grid_symbol_stack(n, N):
    """The Hessian symbols built over the whole rfft grid and stacked: the
    frequencies of every axis broadcast to the full grid first, then the
    symbols' formulas."""
    k = [np.fft.fftfreq(N) * N for _ in range(2 * n - 1)] + [np.arange(N // 2 + 1.0)]
    for ka in k:
        ka[N // 2] = 0.0
    K = np.meshgrid(*k, indexing="ij")
    pi2 = np.pi ** 2
    rows = [-pi2 * (K[2 * j] ** 2 + K[2 * j + 1] ** 2) for j in range(n)]
    if n == 2:
        rows += [-pi2 * (K[0] * K[2] + K[1] * K[3]), -pi2 * (K[0] * K[3] - K[1] * K[2])]
    return np.stack(rows)


@pytest.mark.parametrize("n,N,A", [
    (1, 8, [[1.7]]), (1, 16, [[0.3]]),
    (2, 8, [[1.3, 0.2 + 0.15j], [0.2 - 0.15j, 0.9]]), (2, 8, [[1.3, 0.0], [0.0, 0.9]]),
    (2, 12, [[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.13 + 1e-7]]),
])
def test_symbols_from_axis_factors_equal_the_full_grid_stack_bit_for_bit(n, N, A):
    # the tables keep only per-axis frequencies; the Laplacian symbol and the
    # frame stencil made from them are the ones a full-grid symbol stack
    # gives, bit for bit, and so are the symbols themselves as they broadcast
    from mkrf.elliptic import _frame_stencil
    from mkrf.geometry import congruence_components, matrix_sqrt_hermitian

    A = np.array(A, dtype=np.complex128)
    S = _full_grid_symbol_stack(n, N)
    tab = tables(GridSpec(n, N))
    assert np.stack(np.broadcast_arrays(*tab.symbols())).tobytes() == S.tobytes()
    b = np.linalg.inv(A)
    if n == 1:
        lap = b[0, 0].real * S[0]
    else:
        lap = b[0, 0].real * S[0] + b[1, 1].real * S[1]
        lap += 2.0 * (b[0, 1].real * S[2] + b[0, 1].imag * S[3])
    got = tab.laplacian_symbol(b)
    assert got.shape == tab.rshape and got.tobytes() == lap.tobytes()
    root_inv = matrix_sqrt_hermitian(np.linalg.inv(A))
    frame = np.stack(congruence_components(root_inv, tuple(S)))
    assert _frame_stencil(GridSpec(n, N), A).tobytes() == frame.tobytes()


def lean_state_problem():
    g = GridSpec(2, 16)
    A = np.array([[1.3, 0.2 + 0.15j], [0.2 - 0.15j, 0.9]])
    phi = synthesize(g, [((1, 0, 0, 0), 0.01), ((0, 1, 1, 0), 0.006, 0.4)])
    h = np.exp(synthesize(g, [((1, 0, 0, 0), 0.2, 0.5), ((0, 0, 1, 1), 0.1)]).values)
    return EllipticProblem.compatible(KahlerForm(A, phi), VolumeDensity(ScalarField(g, h)))


def test_newton_solve_keeps_no_symbol_stack_target_or_weighted_copy(monkeypatch):
    # at every fine Krylov solve the solve holds U, the four frame
    # components and rhs (6 fields), the frame stencil (4 half-spectrum rows,
    # 2.25), the one-row product buffer (1.125), the inverse Laplacian symbol
    # and its kernel (0.63) and 1 / w (1): 11 real fields.  A kept frame
    # target or y / w buffer adds a field each.  pocketfft's own temporaries
    # are not traced
    import tracemalloc

    import mkrf.elliptic as elliptic

    prob = lean_state_problem()
    g = prob.form.grid
    held = []
    real = elliptic._FrameOperators.solve

    def solve(ops, *args):
        if ops.grid == g:
            held.append((tracemalloc.get_traced_memory()[0] - base) / (8 * g.num_points))
        return real(ops, *args)

    monkeypatch.setattr(elliptic._FrameOperators, "solve", solve)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, rep = solve_cy(prob)
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.start == "nested" and held
    assert max(held) < 12.0, held
    # the cached tables of the grid hold its per-axis frequencies only
    arrays = [a for v in vars(tables(GridSpec(2, 16))).values()
              for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert arrays and max(a.size for a in arrays) <= g.N


def test_failing_frame_state_names_the_smallest_eigenvalue_and_its_point():
    # the positivity test decides without an eigenvalue field; on failure the
    # error carries lambda_min and its grid point as the eigenvalue scan did
    from mkrf.elliptic import _frame_state, _frame_stencil
    from mkrf.geometry import SingularMetricError, det_components, lambda_min_components

    prob, _ = _frame_state_cases()["n2"]
    g = prob.form.grid
    # every axis varies, so the smallest eigenvalue sits at one grid point
    U = synthesize(g, [((1, 0, 0, 0), 0.08, 0.3), ((0, 1, 1, 0), 0.02, 1.0),
                       ((0, 0, 0, 1), 0.01, 0.7), ((1, 1, 0, 1), 0.005, 2.0)]).values
    row_buf = np.empty((1,) + tables(g).rshape, dtype=np.complex128)
    with pytest.raises(SingularMetricError) as exc:
        _frame_state(prob, _frame_stencil(g, prob.form.A), U, row_buf)
    rows = _frame_rows_by_congruence(prob, U)
    lam = lambda_min_components(rows[:2], det_components(rows))
    lowest = np.sort(lam.ravel())[:2]
    assert lowest[0] < 0.0 and lowest[1] - lowest[0] > 1e-6
    assert exc.value.location == np.unravel_index(int(np.argmin(lam)), lam.shape)
    assert exc.value.lambda_min == pytest.approx(float(lam.min()), rel=1e-12)


def test_under_resolved_density_stops_stagnating_krylov_solves():
    # the cy-n24 class and density at N = 16, zero phases, cold start: the
    # N = 8 level cannot resolve the density and fails, and on the fine
    # grid the last right-hand side is partly out of the Jacobian's reach.
    # The stagnation exit ends that Krylov solve short of its tolerance
    # after two restart cycles
    g = GridSpec(2, 16)
    form = KahlerForm(np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]),
                      synthesize(g, [((1, 0, 0, 1), 0.01)]))
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.25),
                                             ((0, 0, 2, 1), 0.2), ((1, 1, 0, 0), 0.2)]).values))
    prob = EllipticProblem.compatible(form, VolumeDensity(h))
    U, rep = solve_cy(prob)
    assert rep.converged
    assert rep.final_residual <= 1e-10 * prob.c * mean(h)
    assert [c["converged"] for c in rep.coarse_levels] == [False]
    assert rep.iterations <= 5
    assert sum(rep.matvecs) <= 76
    inner_m = 30
    stagnated = [m for m, r, rtol in zip(rep.matvecs, rep.linear_residuals, rep.linear_rtols)
                 if r > rtol]
    assert stagnated and all(inner_m < m <= 2 * (inner_m + 1) for m in stagnated)


def test_stagnating_krylov_solve_stops_after_one_cycle():
    # on a target the grid cannot resolve, part of every late right-hand
    # side is out of the Jacobian's reach; a restart cycle that makes no
    # progress ends the Krylov solve instead of running all twelve
    from mkrf.elliptic import NewtonConvergenceError

    g = GridSpec(2, 8)
    form = KahlerForm(np.eye(2), g.zeros())
    h = ScalarField(g, np.exp(synthesize(g, [((0, 0, 1, 0), 0.2), ((1, 0, 0, 1), 0.15)]).values))
    with pytest.raises(NewtonConvergenceError) as exc:
        solve_cy(EllipticProblem.compatible(form, VolumeDensity(h)))
    rep = exc.value.report
    inner_m = 30
    assert max(rep.matvecs) > inner_m
    assert all(m <= 2 * (inner_m + 1) for m in rep.matvecs)
    # the stopping cycle opened with K applied to the iterate, which gives
    # its linear residual
    assert all(r is not None for r in rep.linear_residuals)


def _weight_spy(monkeypatch, weight_one=False):
    """Record every preconditioner weight solve_cy builds; with weight_one,
    replace it by 1."""
    import mkrf.elliptic as elliptic

    real = elliptic._precond_weight
    built = []

    def spy(target, n):
        w = None if weight_one else real(target, n)
        built.append(w)
        return w

    monkeypatch.setattr(elliptic, "_precond_weight", spy)
    return built


def test_density_weight_saves_matvecs(monkeypatch):
    # a strongly varying density: late Newton systems, where det g is close
    # to the target, dominate the Krylov work
    g = GridSpec(2, 20)
    form = KahlerForm(np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]),
                      synthesize(g, [((1, 0, 0, 1), 0.01)]))
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.25),
                                             ((0, 0, 2, 1), 0.2), ((1, 1, 0, 0), 0.2)]).values))
    prob = EllipticProblem.compatible(form, VolumeDensity(h))
    tol = 1e-10 * prob.c * mean(h)
    built = _weight_spy(monkeypatch)
    U, weighted = newton_from(prob)
    assert len(built) == 1 and built[0] is not None
    _weight_spy(monkeypatch, weight_one=True)
    U1, unit = newton_from(prob)
    assert weighted.final_residual <= tol and unit.final_residual <= tol
    assert weighted.iterations <= unit.iterations
    assert sum(weighted.matvecs) < sum(unit.matvecs)
    assert np.abs(U.values - U1.values).max() < 1e-10


def test_density_weight_on_a_mild_density(monkeypatch):
    # near h = const the unweighted preconditioner is already close to exact,
    # and the first Newton step, taken at det g = 1, is better without the
    # weight: the weighted solve may need one Newton iteration more
    prob = varying_density_problem()
    tol = 1e-10 * prob.c * mean(prob.omega.h)
    _, weighted = solve_cy(prob)
    _weight_spy(monkeypatch, weight_one=True)
    _, unit = solve_cy(prob)
    assert weighted.final_residual <= tol and unit.final_residual <= tol
    assert weighted.iterations <= unit.iterations + 1


def test_psi_family_bit_identical_without_weight(monkeypatch):
    # the collapsed psi problems have constant density: no weight applies
    fp = collapsed_flow_problem(N=16)
    times = [0.0, 2.0, 5.0, 8.0]
    built = _weight_spy(monkeypatch)
    psis, reps = solve_psi_family(fp, times)
    assert built and all(w is None for w in built)
    _weight_spy(monkeypatch, weight_one=True)
    psis1, reps1 = solve_psi_family(fp, times)
    assert [r.iterations for r in reps] == [r.iterations for r in reps1]
    assert [r.matvecs for r in reps] == [r.matvecs for r in reps1]
    for a, b in zip(psis, psis1):
        assert np.array_equal(a.values, b.values)


def test_no_weight_at_n1(monkeypatch):
    # at n=1 the Jacobian is the mean-metric Laplacian itself
    g = GridSpec(1, 32)
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0), 0.12), ((0, 2), 0.05)]).values))
    prob = EllipticProblem.compatible(KahlerForm(np.array([[1.7]]), g.zeros()), VolumeDensity(h))
    built = _weight_spy(monkeypatch)
    _, rep = newton_from(prob)
    assert rep.converged
    assert len(built) == 1 and built[0] is None


# nested iteration: cold solves start from the interpolated half-grid solution

def _band_limited_modes(n, N):
    """Cosine terms below the Nyquist frequency of the N grid, with phases."""
    top = N // 2 - 1
    if n == 1:
        return [((1, 0), 0.3), ((0, top), 0.2, 0.7), ((top, -2), 0.1, 1.3)]
    return [((1, 0, 0, 0), 0.3), ((0, top, 1, 0), 0.2, 0.7),
            ((2, -1, top, -top), 0.1, 1.3), ((0, 0, 0, top), 0.05, 2.1)]


@pytest.mark.parametrize("n,N", [(1, 16), (2, 16), (2, 24)])
def test_prolongation_reproduces_band_limited_fields(n, N):
    from mkrf.grid import prolong

    fine, coarse = GridSpec(n, N), GridSpec(n, N // 2)
    modes = _band_limited_modes(n, N // 2)
    got = prolong(synthesize(coarse, modes), fine)
    want = synthesize(fine, modes)
    assert got.grid == fine
    assert np.abs(got.values - want.values).max() <= 1e-13


@pytest.mark.parametrize("n,N", [(1, 16), (2, 20)])
def test_restriction_is_the_coarse_synthesis(n, N):
    # the even points of the fine grid are the coarse grid's points, so the
    # restricted problem is bit for bit the one built on the coarse grid
    from mkrf.elliptic import _restrict

    fine, coarse = GridSpec(n, N), GridSpec(n, N // 2)
    phi_modes = _band_limited_modes(n, N)[:2]
    h_modes = [(m, 0.1 * a) for m, a, *_ in _band_limited_modes(n, N)[1:]]
    even = (slice(None, None, 2),) * (2 * n)
    assert np.array_equal(synthesize(fine, phi_modes).values[even],
                          synthesize(coarse, phi_modes).values)
    A = np.eye(n) * 1.3

    def problem(g):
        h = ScalarField(g, np.exp(synthesize(g, h_modes).values))
        return EllipticProblem.compatible(KahlerForm(A, synthesize(g, phi_modes)),
                                          VolumeDensity(h))

    got, want = _restrict(problem(fine)), problem(coarse)
    assert got.form.grid == coarse
    assert np.array_equal(got.form.phi.values, want.form.phi.values)
    assert np.array_equal(got.omega.h.values, want.omega.h.values)
    assert got.c == want.c


def nested_problem(N):
    # three density modes: the zero start needs five Newton iterations
    g = GridSpec(2, N)
    form = KahlerForm(np.array([[1.2, 0.1j], [-0.1j, 1.0]]),
                      synthesize(g, [((1, 0, 0, 1), 0.01)]))
    h = ScalarField(g, np.exp(synthesize(g, [((1, 0, 0, 0), 0.2), ((0, 1, 1, 0), 0.15),
                                             ((0, 0, 1, 1), 0.1, 0.5)]).values))
    return EllipticProblem.compatible(form, VolumeDensity(h))


@pytest.mark.parametrize("N", [16, 20])
def test_nested_start_matches_the_zero_start(N):
    prob = nested_problem(N)
    tol = 1e-10 * prob.c * mean(prob.omega.h)
    U, nested = solve_cy(prob)
    Z, zero = newton_from(prob)
    assert nested.start == "nested" and zero.start == "zero"
    assert [(c["N"], c["converged"]) for c in nested.coarse_levels] == [(N // 2, True)]
    assert nested.final_residual <= tol and zero.final_residual <= tol
    assert np.abs(U.values - Z.values).max() < 1e-10
    assert nested.iterations < zero.iterations
    # the report keeps its fine-level meaning
    assert len(nested.matvecs) == len(nested.linear_rtols) == nested.iterations
    assert len(nested.residual_history) == nested.iterations + 1


def test_reduced_newton_solve_matches_the_full_grid():
    # a limit potential and density that vary along z1 only: the scenario's
    # limit problem is on the grid with one point along z2, and its nested
    # solve (half grid (8, 8, 1, 1)) reproduces the forced full-grid solve
    cls = [[[1.2, 0.0], [0.0, 0.1]], [[0.0, -0.1], [1.0, 0.0]]]
    sc = Scenario(name="z1", n=2, N=16, A0=cls, Ainf=cls,
                  phi_inf=[{"mode": [1, 0, 0, 0], "amp": 0.01}],
                  log_h=[{"mode": [1, 0, 0, 0], "amp": 0.2},
                         {"mode": [1, 1, 0, 0], "amp": 0.15, "phase": 0.4},
                         {"mode": [0, 1, 0, 0], "amp": 0.1}])
    reduced = build_limit_problem(sc)
    parsed = validate(sc)
    g = GridSpec(2, 16)
    full = EllipticProblem.compatible(
        KahlerForm(parsed["Ainf"], synthesize(g, parsed["phi_inf"])),
        VolumeDensity(ScalarField(g, np.exp(synthesize(g, parsed["log_h"]).values))))
    (U, rep), (W, want) = solve_cy(reduced), solve_cy(full)
    assert U.grid.shape == (16, 16, 1, 1) and W.grid.shape == (16,) * 4
    assert rep.start == want.start == "nested"
    assert [(c["N"], c["converged"]) for c in rep.coarse_levels] == [(8, True)]
    assert [c["iterations"] for c in rep.coarse_levels] == [
        c["iterations"] for c in want.coarse_levels]
    assert rep.iterations == want.iterations and rep.converged
    assert rep.final_residual <= 1e-10 * reduced.c * mean(reduced.omega.h)
    assert np.abs(U.values - W.values).max() < 1e-12


@pytest.mark.parametrize("N,levels", [(64, [8, 16, 32]), (40, [10, 20]), (20, [10]),
                                      (12, []), (10, [])])
def test_nested_start_halves_down_to_the_smallest_grid(N, levels):
    # a half grid exists while N/2 is even and at least 8; the density is
    # band-limited, so every grid here resolves it
    g = GridSpec(1, N)
    h = ScalarField(g, 1.0 + synthesize(g, [((1, 0), 0.12), ((0, 2), 0.05)]).values)
    prob = EllipticProblem.compatible(KahlerForm(np.array([[1.7]]), g.zeros()),
                                      VolumeDensity(h))
    _, rep = solve_cy(prob)
    assert [c["N"] for c in rep.coarse_levels] == levels
    assert all(c["converged"] for c in rep.coarse_levels)
    assert rep.start == ("nested" if levels else "zero")


def _coarse_newton_fails(monkeypatch, exc):
    """Make every Newton solve below N=16 raise exc()."""
    import mkrf.elliptic as elliptic

    real = elliptic._newton

    def failing(problem, U, tol_factor):
        if problem.form.grid.N < 16:
            raise exc()
        return real(problem, U, tol_factor)

    monkeypatch.setattr(elliptic, "_newton", failing)


@pytest.mark.parametrize("failure", ["convergence", "singular"])
def test_coarse_failure_falls_back_to_the_zero_start(monkeypatch, failure):
    from mkrf.elliptic import NewtonConvergenceError, NewtonReport
    from mkrf.geometry import SingularMetricError

    prob = nested_problem(16)
    Z, zero = newton_from(prob)
    exc = ((lambda: NewtonConvergenceError(NewtonReport(iterations=3, matvecs=[1, 2, 3])))
           if failure == "convergence" else (lambda: SingularMetricError(-1.0, (0, 0, 0, 0), None)))
    _coarse_newton_fails(monkeypatch, exc)
    U, rep = solve_cy(prob)
    assert rep.start == "zero"
    iters, matvecs = (3, [1, 2, 3]) if failure == "convergence" else (0, [])
    assert rep.coarse_levels == [{"N": 8, "iterations": iters, "matvecs": matvecs,
                                  "converged": False}]
    assert np.array_equal(U.values, Z.values)
    assert rep.matvecs == zero.matvecs


def test_inadmissible_interpolant_falls_back_to_the_zero_start(monkeypatch):
    import mkrf.elliptic as elliptic

    prob = nested_problem(16)
    Z, _ = newton_from(prob)
    # a potential whose Hessian overwhelms the class: not a Kahler metric
    monkeypatch.setattr(elliptic, "prolong",
                        lambda coarse, fine: synthesize(fine, [((1, 0, 0, 0), 1.0)]))
    U, rep = solve_cy(prob)
    assert rep.start == "zero"
    assert rep.coarse_levels[0]["converged"]
    assert np.array_equal(U.values, Z.values)


def test_fine_failure_propagates(monkeypatch):
    import mkrf.elliptic as elliptic
    from mkrf.elliptic import NewtonConvergenceError

    prob = nested_problem(16)
    real = elliptic._newton
    grids = []

    def spy(problem, U, tol_factor):
        grids.append(problem.form.grid.N)
        return real(problem, U, tol_factor)

    monkeypatch.setattr(elliptic, "_newton", spy)
    with monkeypatch.context() as m, pytest.raises(NewtonConvergenceError) as exc:
        m.setattr(elliptic, "MAX_NEWTON_ITER", 1)
        solve_cy(prob)
    # the coarse level fails too and the zero start is tried once
    assert grids == [8, 16]
    assert exc.value.report.iterations == 1
    grids.clear()
    # a coarse level that converges, then a fine level that cannot
    monkeypatch.setattr(elliptic, "SUP_TOL_FACTOR", 0.0)
    with pytest.raises(NewtonConvergenceError):
        solve_cy(prob)
    assert grids == [8, 16]

