import json
import math
import tracemalloc

import numpy as np
import pytest

import mkrf.flow
from mkrf.cli import main
from mkrf.flow import (
    SNAP_DT,
    STOP_MARGIN,
    FlowBreakdownError,
    FlowProblem,
    _embedded_error,
    _eval_flow,
    _forcing_integral,
    _grid_index,
    _lag_lookup,
    _lag_window,
    _lawson_rk4,
    normalization_constant,
    run_flow,
)
from mkrf.geometry import KahlerForm, SingularMetricError, VolumeDensity
from mkrf.grid import (GridSpec, ScalarField, forward, hessian_components, inverse, sup_bound,
                       synthesize)
from mkrf.monitors import FINITE_TIME_DELTAS, S_LIST, check_finite_time
from mkrf.scenario import Scenario, build_problem, load_scenario, validate


def flat_problem(n=1, N=32, h_const=1.0):
    g = GridSpec(n, N)
    eye = np.eye(n)
    return FlowProblem(
        KahlerForm(eye, g.zeros()),
        KahlerForm(eye, g.zeros()),
        VolumeDensity(ScalarField(g, np.full(g.shape, h_const))),
    )


def collapsed_problem(N=8, phi_modes=None):
    g = GridSpec(2, N)
    modes = phi_modes or [((1, 0, 0, 0), 0.02), ((0, 1, 1, 0), 0.008)]
    return FlowProblem(
        KahlerForm(np.eye(2), synthesize(g, modes)),
        KahlerForm(np.diag([1.0, 0.0]).astype(complex), g.zeros()),
        VolumeDensity(ScalarField(g, np.ones(g.shape))),
    )


def finite_problem(N=8):
    g = GridSpec(2, N)
    return FlowProblem(
        KahlerForm(np.eye(2), synthesize(g, [((1, 0, 0, 0), 0.02)])),
        KahlerForm(np.diag([2.0, -1.0]).astype(complex), g.zeros()),
        VolumeDensity(ScalarField(g, np.ones(g.shape))),
    )


def embed(prob, field, t):
    """The spectral full potential phi_t + field, the state run_flow integrates."""
    return forward(field.values) + prob.phi_t_hat(t)


def potential(prob, y, t):
    """The physical field of the spectral full potential y at t."""
    return inverse(prob.grid, y) - prob.phi_t_phys(t)


def rhs(prob, field, t, r=0):
    """Physical RHS of the raw (r = 0) or scaled flow at field."""
    return _eval_flow(prob, embed(prob, field, t), t, r, False, full=True).rhs_phys


def step(prob, y, t, dt, r=0, comparison=False):
    """One step of a single flow as run_flow takes it, from its RHS at t
    with the midpoint symbol (less 1 for the comparison flow): the new state."""
    F0 = _eval_flow(prob, y, t, r, comparison).F_hat
    ell = prob.laplace_symbol(t + 0.5 * dt)
    return _lawson_rk4(prob, y, t, dt, r, comparison, F0, ell - 1.0 if comparison else ell)[0]


def density_problem(amp):
    """Flat n=1 N=16 classes against the density h = e^{amp cos(2 pi x)}."""
    g = GridSpec(1, 16)
    return FlowProblem(
        KahlerForm(np.eye(1), g.zeros()),
        KahlerForm(np.eye(1), g.zeros()),
        VolumeDensity(ScalarField(g, np.exp(synthesize(g, [((1, 0), amp)]).values))),
    )


# --- RHS evaluations ---------------------------------------------------------


def test_rhs_flat_stationary():
    prob = flat_problem()
    assert np.abs(rhs(prob, prob.grid.zeros(), 0.7)).max() < 1e-14


def test_rhs_n1_log_formula():
    prob = flat_problem(n=1, N=32)
    g = prob.grid
    eps = 0.01
    u = synthesize(g, [((1, 0), eps)])
    x = g.axis_coordinate(0)
    expected = np.log(1.0 - eps * np.pi**2 * np.cos(2 * np.pi * x)) + np.zeros(g.shape)
    assert np.abs(rhs(prob, u, 0.3) - expected).max() < 1e-13


def test_rhs_freezes_at_large_time():
    # for large t the moving form is exponentially close to its limit
    g = GridSpec(1, 16)
    phi0 = synthesize(g, [((1, 0), 0.01)])
    phi_inf = synthesize(g, [((0, 1), 0.008)])
    h = np.exp(synthesize(g, [((1, 0), 0.05)]).values)
    prob = FlowProblem(
        KahlerForm(np.array([[1.5]]), phi0),
        KahlerForm(np.array([[1.0]]), phi_inf),
        VolumeDensity(ScalarField(g, h)),
    )
    frozen = FlowProblem(
        KahlerForm(np.array([[1.0]]), phi_inf),
        KahlerForm(np.array([[1.0]]), phi_inf),
        VolumeDensity(ScalarField(g, h)),
    )
    u = synthesize(g, [((2, 0), 0.004)])
    d20 = np.abs(rhs(prob, u, 20.0) - rhs(frozen, u, 20.0)).max()
    d40 = np.abs(rhs(prob, u, 40.0) - rhs(frozen, u, 40.0)).max()
    assert d20 < 100.0 * math.exp(-20.0)
    assert d40 < 1e-12


def test_rhs_scaled_identity():
    prob = collapsed_problem()
    g = prob.grid
    v = synthesize(g, [((0, 0, 1, 0), 0.01)])
    t = 1.7
    diff = rhs(prob, v, t, prob.scaled_r) - rhs(prob, v, t)
    assert np.abs(diff - prob.scaled_r * t).max() < 1e-12

    flat = flat_problem(n=2, N=8)
    assert flat.scaled_r == 0
    v2 = synthesize(flat.grid, [((1, 0, 0, 0), 0.01)])
    assert np.array_equal(rhs(flat, v2, 0.5, flat.scaled_r), rhs(flat, v2, 0.5))


def test_rhs_scaled_initial_value_collapsed():
    prob = collapsed_problem()
    g = prob.grid
    from mkrf.geometry import ma_density

    form0 = KahlerForm(prob.path.A0, ScalarField(g, prob.phi0_phys))
    direct = np.log(ma_density(form0, g.zeros()).values)  # h == 1
    assert np.abs(rhs(prob, g.zeros(), 0.0, prob.scaled_r) - direct).max() < 1e-12


def test_rhs_comparison_identities():
    # the comparison flow integrates phi_t + w with dw/dt = scaled RHS - w
    prob = collapsed_problem()
    g = prob.grid
    w = synthesize(g, [((1, 0, 0, 0), 0.01)])
    t = 2.0
    r = prob.scaled_r
    F = _eval_flow(prob, embed(prob, w, t), t, r, True).F_hat
    w_dot = inverse(g, F - math.exp(-t) * prob.drift_hat)
    assert np.abs(w_dot - (rhs(prob, w, t, r) - w.values)).max() < 1e-14

    flat = flat_problem(n=2, N=8)
    z = _eval_flow(flat, embed(flat, flat.grid.zeros(), 0.0), 0.0, 0, True).F_hat
    assert np.abs(inverse(flat.grid, z)).max() < 1e-14


def test_rhs_comparison_stationary_in_t_for_flat_fiber():
    # a base-direction potential sees a t-independent RHS once e^{-t} decays
    prob = collapsed_problem(phi_modes=[((1, 0, 0, 0), 0.02)])
    g = prob.grid
    r = prob.scaled_r
    w = synthesize(g, [((1, 0, 0, 0), 0.01), ((0, 2, 0, 0), 0.005)])
    a = rhs(prob, w, 30.0, r) - w.values
    b = rhs(prob, w, 40.0, r) - w.values
    assert np.abs(a - b).max() < 1e-3


# --- stepping ----------------------------------------------------------------


def test_step_rk4_stationary():
    prob = flat_problem()
    dt = 1e-3
    y1 = step(prob, prob.phi0_hat.copy(), 0.0, dt)
    assert np.abs(potential(prob, y1, dt)).max() < 1e-14
    assert np.abs(_eval_flow(prob, y1, dt, 0, False, full=True).rhs_phys).max() < 1e-14


def test_step_rk4_richardson():
    prob = density_problem(0.1)
    g = prob.grid
    y = embed(prob, synthesize(g, [((1, 0), 0.01), ((0, 1), 0.005)]), 0.0)
    errs = []
    for dt in (2e-3, 1e-3):
        one = step(prob, y, 0.0, dt)
        half = step(prob, y, 0.0, dt / 2)
        half = step(prob, half, dt / 2, dt / 2)
        errs.append(np.abs(inverse(g, one) - inverse(g, half)).max())
    ratio = errs[0] / errs[1]
    assert 20.0 < ratio < 45.0


def test_step_rk4_retry_path():
    # steep prescribed volume drives the metric toward positivity loss within
    # one large step, forcing the halving retry, which sets some steps
    res = run_flow(density_problem(5.0), t_max=0.07, run_comparison=False, dt_cap=0.5)
    assert res.status == "completed"
    assert res.constants["halvings"] > 0
    assert res.step_control["limits"]["positivity"] > 0


def test_run_flow_singularity_stop_past_the_halving_cap(monkeypatch):
    # the first step needs two halvings; the positivity loss after the one
    # allowed ends the run as a singularity stop
    monkeypatch.setattr(mkrf.flow, "MAX_HALVINGS", 1)
    res = run_flow(density_problem(5.0), t_max=0.06, run_comparison=False, dt_cap=0.5)
    assert res.status == "singularity-stop"
    assert res.stop_reason.startswith("singularity stop: metric not positive")
    assert res.constants["steps"] == 0 and res.constants["halvings"] == 1


def test_positivity_loss_at_the_new_point_halves_the_step(monkeypatch):
    # the full evaluation that records a step follows the stages' rule: a
    # positivity loss there halves dt and the run goes on
    real_eval = mkrf.flow._eval_flow
    raised = []

    def failing_once(problem, p_hat, t, r, comparison, full=False):
        if full and t > 0.2 and not raised:
            raised.append(t)
            raise SingularMetricError(-1.0, (0, 0, 0, 0), t)
        return real_eval(problem, p_hat, t, r, comparison, full=full)

    monkeypatch.setattr(mkrf.flow, "_eval_flow", failing_once)
    res = run_flow(finite_problem(), t_max=5.0, run_comparison=False, dt_cap=0.02)
    assert raised
    assert res.status == "singularity-stop"
    assert res.stop_reason.startswith("finite-time approach window")
    assert res.constants["halvings"] == 1
    assert res.step_control["limits"]["positivity"] == 1


def test_normalization_constant_cases():
    assert normalization_constant(flat_problem()) == 0.0
    for c in (0.3, -0.4):
        prob = flat_problem(h_const=math.exp(c))
        assert normalization_constant(prob) == pytest.approx(-c, abs=1e-12)


def test_problem_makes_its_normalization_constant_once_at_set_up(monkeypatch):
    # set-up transforms phi0 once: its normalization constant's metric rows
    # are also its admissibility check, so no form check transforms it again
    import mkrf.grid

    calls = []
    for module in (mkrf.flow, mkrf.grid):
        real = module.forward
        monkeypatch.setattr(module, "forward",
                            lambda v, real=real, m=module.__name__: calls.append(m) or real(v))
    prob = collapsed_problem(N=8)
    # phi0, phi_inf and the initial rate, which the constant's Laplacian reads
    assert calls == ["mkrf.flow"] * 3
    assert prob.C3 == normalization_constant(prob)

    g = GridSpec(1, 16)
    with pytest.raises(SingularMetricError) as exc:
        FlowProblem(KahlerForm(np.eye(1), synthesize(g, [((1, 0), 0.5)])),
                    KahlerForm(np.eye(1), g.zeros()),
                    VolumeDensity(ScalarField(g, np.ones(g.shape))))
    assert exc.value.t == 0.0 and exc.value.lambda_min < 0.0


def test_scaled_raw_lockstep_consistency():
    # v - u - (r/2) t^2 vanishes when both flows run from the same data
    prob = collapsed_problem()
    r = prob.scaled_r
    yu, yv = prob.phi0_hat.copy(), prob.phi0_hat.copy()
    t, dt = 0.0, 2e-3
    for _ in range(40):
        yu, yv = step(prob, yu, t, dt), step(prob, yv, t, dt, r)
        t += dt
    assert t == pytest.approx(40 * dt)
    drift = inverse(prob.grid, yv) - inverse(prob.grid, yu) - 0.5 * r * t**2
    assert np.abs(drift).max() < 1e-10
    # metrics agree pointwise (the rescaling shifts only the potential)
    eu = _eval_flow(prob, yu, t, 0, False, full=True)
    ev = _eval_flow(prob, yv, t, r, False, full=True)
    assert len(eu.comps) == len(ev.comps) == 2
    assert max(np.abs(a - b).max()
               for a, b in zip((*eu.comps, eu.det), (*ev.comps, ev.det))) < 1e-10
    # all four Hessian components, which the evaluations no longer keep
    hu, hv = np.stack(list(prob.hessian_rows(yu))), np.stack(list(prob.hessian_rows(yv)))
    assert np.abs(hu - hv).max() < 1e-10


def test_comparison_state_roundtrip():
    # the rate of a comparison step's state equals the RHS rebuilt from its
    # physical field
    prob = collapsed_problem()
    r = prob.scaled_r
    y = prob.phi0_hat.copy()
    assert np.abs(potential(prob, y, 0.0)).max() < 1e-14
    dt = 1e-3
    y1 = step(prob, y, 0.0, dt, r, comparison=True)
    w = potential(prob, y1, dt)
    w_dot = _eval_flow(prob, y1, dt, r, True, full=True).rhs_phys - w
    expect = rhs(prob, ScalarField(prob.grid, w), dt, r) - w
    assert np.abs(w_dot - expect).max() < 1e-12


# --- runs --------------------------------------------------------------------


def test_run_flow_kahler_completes():
    prob = flat_problem(n=1, N=16, h_const=1.1)
    res = run_flow(prob, t_max=2.0, run_comparison=False, dt_cap=0.02)
    assert res.status == "completed"
    assert res.series["t"][-1] == pytest.approx(2.0)
    assert min(res.series["margin_ut_hat_nonpos"]) > -1e-8
    assert min(res.series["margin_conservation"]) > -1e-8


def test_run_flow_finite_time_stops_near_T():
    prob = finite_problem()
    res = run_flow(prob, t_max=5.0, run_comparison=False, dt_cap=0.02)
    assert res.status == "singularity-stop"
    assert res.stop_reason.startswith("finite-time approach window")
    T = prob.path.T
    # the run ends on the event T - STOP_MARGIN; no window bounds a step
    assert res.constants["t_final"] == res.series["t"][-1] == T - STOP_MARGIN
    assert "finite_window" not in res.step_control["limits"]
    # the blow-down samples at T - 0.2, T - 0.1 and T - 0.05 are rows, at
    # exactly those times
    assert all(T - d in res.series["t"] for d in FINITE_TIME_DELTAS)
    consts = check_finite_time(res.series, T).constants
    assert all(f"m_delta_{d}" in consts for d in (0.2, 0.1, 0.05))
    # volume blow-down: the minimum rate is strongly negative at the stop
    assert res.series["min_ut_hat"][-1] < -5.0


def test_run_flow_collapsed_with_comparison():
    prob = collapsed_problem()
    res = run_flow(prob, t_max=3.0, run_comparison=True, dt_cap=0.05)
    assert res.status == "completed"
    assert "min_w" in res.series
    assert not math.isnan(res.series["min_q_s1"][-1])
    assert math.isnan(res.series["min_q_s1"][0])  # no history before t = S
    assert res.violations == []
    assert "w" in res.final and "v" in res.final


def test_lag_history_holds_only_readable_snapshots():
    # a run shorter than the lags' span stores fewer snapshots than the
    # 51 a full span holds, and every lag still finds both of its brackets
    res = run_flow(collapsed_problem(), t_max=5.5, run_comparison=True, dt_cap=0.05)
    assert res.status == "completed"
    for S in (1, 3, 5):
        rows = [q for t, q in zip(res.series["t"], res.series[f"min_q_s{S}"]) if t >= S]
        assert rows and all(math.isfinite(q) for q in rows), S
    # at t = 3.7 the lags read snapshots 0-6, 7-26 and 27-37
    assert res.step_control["lag_snapshots_max"] == 38
    # every grid point is a row, at exactly its grid time
    ts = res.series["t"]
    near = [t for t in ts if abs(t / SNAP_DT - round(t / SNAP_DT)) < 1e-6]
    assert near == [round(k * SNAP_DT, 10) for k in range(56)]


def test_lag_lookup_never_interpolates_across_a_gap():
    history = {0: (0.0, np.zeros(2)), 1: (0.1, np.ones(2)), 3: (0.3, np.full(2, 3.0))}
    assert np.allclose(_lag_lookup(history, 0.05), 0.5)
    # an exact hit reads its snapshot, whether or not the next one is stored
    assert _lag_lookup(history, 0.3) is history[3][1]
    assert _lag_lookup(history, 0.1) is history[1][1]
    # snapshot 2 is missing: 0.1 and 0.3 are never interpolated between
    assert _lag_lookup(history, 0.2) is None
    assert _lag_lookup(history, 0.15) is None
    assert _lag_lookup(history, 0.35) is None
    assert _lag_lookup(history, -0.05) is None


def brute_force_lookup(history, t_query):
    """The lag lookup by definition: an exact hit, or the two stored
    snapshots one grid step apart whose times bracket t_query, a time
    counting as reached 1e-10 early (round-off)."""
    for t0, a0 in history.values():
        if t0 == t_query:
            return a0
    for k, (t0, a0) in history.items():
        if k + 1 in history and t0 <= t_query + 1e-10 < history[k + 1][0]:
            t1, a1 = history[k + 1]
            lam = (t_query - t0) / (t1 - t0)
            return (1.0 - lam) * a0 + lam * a1
    return None


def test_lag_lookup_matches_brute_force_over_histories_with_gaps():
    rng = np.random.default_rng(23)
    for _ in range(200):
        ks = [int(k) for k in np.flatnonzero(rng.random(40) < 0.7)]
        history = {k: (round(k * SNAP_DT, 10), rng.standard_normal(3)) for k in ks}
        queries = list(rng.uniform(-0.5, 4.5, 20)) + [round(k * SNAP_DT, 10) for k in ks]
        queries += [1.3 - 1.0, 3.7 - 3.0, 0.7 - 0.4]  # grid points up to round-off
        for tq in queries:
            got, want = _lag_lookup(history, tq), brute_force_lookup(history, tq)
            assert (got is None) == (want is None), tq
            if got is not None:
                assert np.array_equal(got, want), tq


def test_lag_window_is_the_set_of_snapshots_the_lags_read():
    # every index a lookup at t' - S reads from a record time t' in
    # [t, t_max], record times on the grid and off it, lies in the window,
    # and every index in the window is read by some record time
    rng = np.random.default_rng(5)
    for t_max in (0.7, 5.5, 12.0, 12.35, 30.0):
        times = sorted(set([round(k * SNAP_DT, 10) for k in range(int(t_max / SNAP_DT) + 1)]
                           + list(rng.uniform(0.0, t_max, 400)) + [t_max]))
        for t in times[::7]:
            read = {S: set() for S in S_LIST}
            for tr in (x for x in times if x >= t):
                for S in S_LIST:
                    k = _grid_index(tr - S)
                    read[S] |= {k, k + 1}
            for S, ks in zip(S_LIST, _lag_window(t, t_max)):
                assert read[S] == set(ks), (t_max, t, S)


def test_run_flow_is_deterministic():
    prob = flat_problem(n=1, N=16, h_const=1.2)
    r1 = run_flow(prob, t_max=1.0, run_comparison=False, dt_cap=0.02)
    r2 = run_flow(prob, t_max=1.0, run_comparison=False, dt_cap=0.02)
    assert r1.series == r2.series


def test_lockstep_runs_on_one_problem_are_identical():
    # the v and w flows and both runs share the problem's workspace;
    # nothing may leak from one evaluation into the next
    prob = collapsed_problem()
    r1 = run_flow(prob, t_max=1.0, run_comparison=True, dt_cap=0.05)
    r2 = run_flow(prob, t_max=1.0, run_comparison=True, dt_cap=0.05)
    assert r1.series == r2.series


def test_run_flow_u_dot_matches_rhs():
    # the recorded rate field is the RHS at the final state, not a finite
    # difference
    prob = collapsed_problem()
    res = run_flow(prob, t_max=1.0, run_comparison=False, dt_cap=0.05)
    t = res.constants["t_final"]
    r = prob.scaled_r
    C3 = res.constants["C3"]
    v_final = ScalarField(prob.grid, res.final["u_hat"].values + 0.5 * r * t * t + C3 * t)
    expect = rhs(prob, v_final, t, r) - (r * t + C3)
    assert np.abs(res.final["ut_hat"].values - expect).max() < 1e-12


def test_flat_run_margins_at_machine_precision():
    # stationary flat data: every core margin should sit at round-off
    prob = flat_problem(n=1, N=16)
    res = run_flow(prob, t_max=0.5, run_comparison=False, dt_cap=0.02)
    for key in ("margin_u_hat_nonpos", "margin_ut_hat_nonpos", "margin_eq7",
                "margin_conservation"):
        assert min(res.series[key]) >= -1e-12
    mono = [v for v in res.series["margin_combo_monotone"] if not math.isnan(v)]
    assert min(mono) >= -1e-12


# --- workspace: in-place hot path ----------------------------------------------


def reference_rhs(prob, p_hat, t, r, comparison):
    """The n=2 flow RHS written with allocating expressions only."""
    g = prob.grid
    A = prob.A_t(t)
    stack = np.stack(np.broadcast_arrays(*prob.tables.symbols()))  # every row, batched
    hs = hessian_components(g, p_hat, np.empty(stack.shape, dtype=np.complex128), stack)
    g11, g22 = A[0, 0].real + hs[0], A[1, 1].real + hs[1]
    p, q = A[0, 1].real + hs[2], A[0, 1].imag + hs[3]
    rhs = np.log(g11 * g22 - (p * p + q * q)) - prob.log_h
    if r:
        rhs = rhs + r * t
    w = math.exp(-t)
    F = forward(rhs)
    if not comparison:
        # the u/v stages leave out the class forcing; the step integrates it
        F[(0,) * F.ndim] -= g.num_points * (math.log(np.linalg.det(A).real) + r * t)
    F = F + w * prob.drift_hat
    if comparison:
        F = F - (p_hat - (w * prob.phi0_hat + (1.0 - w) * prob.phi_inf_hat))
    return F


def midpoint_symbol(prob, t, dt, comparison):
    """The linear symbol _lawson_rk4 takes for a step from t: the Laplacian
    symbol of A_t at t + dt/2, less 1 for the comparison flow."""
    ell = prob.tables.laplacian_symbol(np.linalg.inv(prob.A_t(t + 0.5 * dt)))
    return ell - 1.0 if comparison else ell


def reference_lawson_rk4(prob, y, t, dt, r, comparison):
    y1 = reference_lawson_stages(prob, y, t, dt, r, comparison)
    if not comparison:
        y1[(0,) * y1.ndim] += prob.grid.num_points * _forcing_integral(prob, t, dt, r)
    return y1


def reference_lawson_stages(prob, y, t, dt, r, comparison):
    """The step without the class forcing of the u/v mean mode."""
    ell = prob.laplace_symbol(t + 0.5 * dt)
    if comparison:
        ell = ell - 1.0
    E2 = np.exp((0.5 * dt) * ell)
    E1 = E2 * E2

    def N(z, tau):
        return reference_rhs(prob, z, tau, r, comparison) - ell * z

    k1 = N(y, t)
    k2 = N(E2 * (y + (0.5 * dt) * k1), t + 0.5 * dt)
    k3 = N(E2 * y + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = N(E1 * y + dt * (E2 * k3), t + dt)
    return E1 * y + (dt / 6.0) * (E1 * k1 + 2.0 * (E2 * (k2 + k3)) + k4)


@pytest.mark.parametrize("comparison", [False, True])
def test_lawson_step_matches_allocating_reference(comparison):
    # the in-place stage arithmetic is bit-identical to the plain expressions
    prob = collapsed_problem()
    y = prob.phi0_hat.copy()
    t, dt, r = 0.3, 0.01, prob.scaled_r
    F0 = _eval_flow(prob, y, t, r, comparison).F_hat
    got, _ = _lawson_rk4(prob, y, t, dt, r, comparison, F0,
                         midpoint_symbol(prob, t, dt, comparison))
    want = reference_lawson_rk4(prob, y, t, dt, r, comparison)
    assert np.array_equal(got, want)


def test_full_eval_result_owns_its_arrays():
    prob = collapsed_problem()
    r = prob.scaled_r
    y = prob.phi0_hat.copy()
    evs = [_eval_flow(prob, y, 0.2, r, comp, full=True) for comp in (False, True)]

    def arrays(ev):
        if ev.comps is None:
            return [ev.F_hat, ev.rhs_phys, ev.pot_phys]
        return [ev.F_hat, ev.rhs_phys, ev.det, ev.pot_phys, *ev.comps]

    # the u/v flow keeps the diagonal and det that record reads, the
    # comparison flow no metric
    assert len(evs[0].comps) == 2 and evs[0].det is not None
    assert evs[1].comps is None and evs[1].det is None
    before = [[a.copy() for a in arrays(ev)] for ev in evs]
    y2 = y * 1.01
    _eval_flow(prob, y2, 0.3, r, False)
    _eval_flow(prob, y2, 0.3, r, True, full=True)
    ell = prob.laplace_symbol(0.225)
    _lawson_rk4(prob, y, 0.2, 0.05, r, False, evs[0].F_hat, ell)
    _lawson_rk4(prob, y, 0.2, 0.05, r, True, evs[1].F_hat, ell - 1.0)
    for ev, saved in zip(evs, before):
        for a, b in zip(arrays(ev), saved):
            assert np.array_equal(a, b)


def test_flow_holds_one_hessian_row_of_transform_work(monkeypatch):
    # every Hessian of the flow's normalization constant, which set-up makes
    # once and which is also its admissibility check, and of its steps is
    # made one row at a time; the comparison flow's evaluations keep no
    # metric rows; and
    # one evaluation holds at most the four rows it makes the metric in
    # (stage, comparison) or those plus the rows the u/v result keeps, in
    # grid fields: 4.0 and 6.13 here, 5.13 and 8.13 with the four-row
    # stack.  The one-row product buffer belongs to the workspace, and
    # pocketfft's temporaries are not traced
    stencil_rows = []
    real_hessian = mkrf.flow.hessian_components

    def recording_hessian(grid, coeffs, buf, stencil):
        stencil_rows.append(len(stencil))
        return real_hessian(grid, coeffs, buf, stencil)

    monkeypatch.setattr(mkrf.flow, "hessian_components", recording_hessian)
    prob = collapsed_problem(N=16)
    assert stencil_rows == [1] * 12
    assert prob.workspace.prod.shape == (1,) + prob.tables.rshape

    evaluations = []
    real_eval = mkrf.flow._eval_flow

    def recording_eval(*args, **kwargs):
        res = real_eval(*args, **kwargs)
        evaluations.append((args[4], kwargs.get("full", False), res))
        return res

    monkeypatch.setattr(mkrf.flow, "_eval_flow", recording_eval)
    res = run_flow(prob, t_max=0.2, run_comparison=True, dt_cap=0.05)
    assert res.status == "completed"
    # run_flow reads the problem's normalization constant, then makes four
    # rows per evaluation
    assert res.constants["C3"] == prob.C3
    assert len(stencil_rows) == 12 + 4 * len(evaluations)
    assert set(stencil_rows) == {1}
    comparison_full = [ev for comparison, full, ev in evaluations if comparison and full]
    assert comparison_full and all(ev.comps is None and ev.det is None for ev in comparison_full)

    field = 8 * prob.grid.num_points
    y, r = prob.phi0_hat, prob.scaled_r
    for comparison, full, bound in ((False, False, 5.0), (True, False, 5.0),
                                    (True, True, 5.0), (False, True, 7.2)):
        real_eval(prob, y, 0.3, r, comparison, full=full)  # stage constants at t
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ev = real_eval(prob, y, 0.3, r, comparison, full=full)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del ev
        assert peak / field < bound, (comparison, full, peak / field)


def test_one_laplacian_symbol_per_attempted_step(monkeypatch):
    # every attempt of a step, accepted, halved or rejected, builds the
    # midpoint symbol once for both lockstep flows; the comparison flow's
    # symbol less 1 is its own array, and the shared one keeps the bits of
    # the tables' Laplacian symbol
    prob = collapsed_problem()
    built, stepped = [], []
    real_symbol = FlowProblem.laplace_symbol
    real_step = mkrf.flow._lawson_rk4
    real_eval = mkrf.flow._eval_flow
    raised = []

    def counting_symbol(problem, tau):
        ell = real_symbol(problem, tau)
        built.append(ell)
        return ell

    def recording_step(*args):
        stepped.append((args[5], args[7] is built[-1],
                        args[7].tobytes() == midpoint_symbol(prob, args[2], args[3],
                                                             args[5]).tobytes()))
        return real_step(*args)

    def failing_once(problem, p_hat, t, r, comparison, full=False):
        # one positivity loss at a new point, so one attempt is halved
        if full and t > 0.1 and not raised:
            raised.append(t)
            raise SingularMetricError(-1.0, (0, 0, 0, 0), t)
        return real_eval(problem, p_hat, t, r, comparison, full=full)

    monkeypatch.setattr(FlowProblem, "laplace_symbol", counting_symbol)
    monkeypatch.setattr(mkrf.flow, "_lawson_rk4", recording_step)
    monkeypatch.setattr(mkrf.flow, "_eval_flow", failing_once)
    monkeypatch.setattr(mkrf.flow, "STEP_TOL", 1e-11)
    res = run_flow(prob, t_max=0.3, run_comparison=True, dt_cap=0.05)
    assert res.status == "completed"
    halvings, rejections = res.constants["halvings"], res.step_control["rejections"]
    assert halvings == 1 and rejections > 0
    assert len(built) == res.constants["steps"] + halvings + rejections
    assert stepped[0::2] and all(s == (False, True, True) for s in stepped[0::2])
    assert stepped[1::2] and all(s == (True, False, True) for s in stepped[1::2])


def test_lockstep_step_peak_allocation():
    # one warmed-up v + w collapsed step at N=16 allocates no more than the
    # midpoint symbols, the stage RHS arrays and one Hessian stack at a time;
    # the stencil product and the pointwise temporaries live in the
    # problem's workspace
    prob = collapsed_problem(N=16)
    r = prob.scaled_r
    y = prob.phi0_hat.copy()
    F0s = [_eval_flow(prob, y, 0.0, r, comparison).F_hat for comparison in (False, True)]

    def lockstep():
        ell = prob.laplace_symbol(0.005)
        return [_lawson_rk4(prob, y, 0.0, 0.01, r, comparison, F0,
                            ell - 1.0 if comparison else ell)
                for comparison, F0 in zip((False, True), F0s)]

    lockstep()
    tracemalloc.start()
    try:
        lockstep()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_nonfinite_state_is_breakdown_not_singularity(monkeypatch):
    prob = finite_problem()
    y = prob.phi0_hat.copy()
    F0 = _eval_flow(prob, y, 0.0, 0, False).F_hat
    y[1, 0, 0, 0] = np.nan
    calls = []
    real_eval = mkrf.flow._eval_flow

    def counting_eval(*args, **kwargs):
        calls.append(args[2])
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(mkrf.flow, "_eval_flow", counting_eval)
    with pytest.raises(FlowBreakdownError):
        _lawson_rk4(prob, y, 0.0, 0.01, 0, False, F0, prob.laplace_symbol(0.005))
    assert len(calls) == 1  # the first stage evaluation raises


def test_nan_state_run_ends_as_breakdown_exit_3(tmp_path, monkeypatch):
    real_step = mkrf.flow._lawson_rk4
    steps = []

    def poisoned_step(problem, y, *args, **kwargs):
        steps.append(1)
        if len(steps) == 3:
            y = y.copy()
            y.flat[1] = np.nan
        return real_step(problem, y, *args, **kwargs)

    monkeypatch.setattr(mkrf.flow, "_lawson_rk4", poisoned_step)
    out = tmp_path / "nan"
    assert main(["run", "--preset", "finite-time", "--t-max", "0.1", "--out", str(out)]) == 3
    constants = json.loads((out / "constants.json").read_text())["constants"]
    assert constants["status"] == "breakdown"
    assert constants["halvings"] == 0
    assert constants["steps"] == 2



def test_collapsed_run_stopped_before_half_of_t_max_is_judged_on_its_span(
        tmp_path, capsys, monkeypatch):
    # a singularity stop at t = 8 of t_max = 30: the collapsed report's
    # early/late windows split the run that was made, not [0, t_max]
    real_eval = mkrf.flow._eval_flow

    def singular_past_8(problem, p_hat, t, r, comparison, full=False):
        if t > 8.0:
            raise SingularMetricError(-1.0, (0, 0, 0, 0), t)
        return real_eval(problem, p_hat, t, r, comparison, full=full)

    monkeypatch.setattr(mkrf.flow, "_eval_flow", singular_past_8)
    out = tmp_path / "stopped"
    assert main(["run", "--preset", "collapsed", "--grid", "8", "--out", str(out)]) == 0
    assert "failed" not in capsys.readouterr().err
    record = json.loads((out / "constants.json").read_text())
    assert record["constants"]["status"] == "singularity-stop"
    assert record["constants"]["t_final"] == 8.0
    assert record["reports"]["collapsed"]["status"] == "ok"
    assert (out / "series.csv").exists() and (out / "final.mkrf").exists()

# --- embedded error estimate and step control -----------------------------------


def reference_embedded_error(prob, y, t, dt, r, comparison):
    """y1 minus the embedded solution with weights (1/6, 1/3, 1/3, 1/15, 1/10),
    both mapped back from the Lawson frame; k5 is the stage at y1."""
    ell = prob.laplace_symbol(t + 0.5 * dt)
    if comparison:
        ell = ell - 1.0
    E2 = np.exp((0.5 * dt) * ell)
    E1 = E2 * E2

    def N(z, tau):
        return reference_rhs(prob, z, tau, r, comparison) - ell * z

    k1 = N(y, t)
    k2 = N(E2 * (y + (0.5 * dt) * k1), t + 0.5 * dt)
    k3 = N(E2 * y + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = N(E1 * y + dt * (E2 * k3), t + dt)
    y1 = reference_lawson_rk4(prob, y, t, dt, r, comparison)
    k5 = N(y1, t + dt)
    y_hat = E1 * y + dt * (E1 * k1 / 6.0 + E2 * (k2 + k3) / 3.0 + k4 / 15.0 + k5 / 10.0)
    if not comparison:
        # both solutions carry the exactly integrated class forcing
        y_hat[(0,) * y_hat.ndim] += prob.grid.num_points * _forcing_integral(prob, t, dt, r)
    return y1 - y_hat


@pytest.mark.parametrize("comparison", [False, True])
def test_embedded_estimate_matches_reference(comparison):
    # the step itself is unchanged: test_lawson_step_matches_allocating_reference
    prob = collapsed_problem()
    y = prob.phi0_hat.copy()
    t, dt, r = 0.3, 0.01, prob.scaled_r
    F0 = _eval_flow(prob, y, t, r, comparison).F_hat
    y1, d = _lawson_rk4(prob, y, t, dt, r, comparison, F0,
                        midpoint_symbol(prob, t, dt, comparison))
    F1 = _eval_flow(prob, y1, t + dt, r, comparison).F_hat
    want = reference_embedded_error(prob, y, t, dt, r, comparison)
    got = 0.1 * dt * (d - F1)
    # the reference subtracts two states: round-off on their scale
    assert np.abs(got - want).max() <= 1e-14 * np.abs(y1).max()
    assert _embedded_error(prob, d, F1, dt) == pytest.approx(
        sup_bound(prob.grid, want, np.empty(want.shape)), rel=1e-9)


def test_embedded_estimate_is_third_order():
    # local error of an order-3 embedding: once dt |ell| is small, halving dt
    # divides it by ~2^4 (at larger dt the Lawson estimate shows the usual
    # stiff order reduction)
    prob = collapsed_problem()
    y = prob.phi0_hat.copy()
    r = prob.scaled_r
    errs = []
    for dt in (1.25e-3, 6.25e-4):
        F0 = _eval_flow(prob, y, 0.0, r, False).F_hat
        y1, d = _lawson_rk4(prob, y, 0.0, dt, r, False, F0,
                            midpoint_symbol(prob, 0.0, dt, False))
        errs.append(_embedded_error(prob, d, _eval_flow(prob, y1, dt, r, False).F_hat, dt))
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_sup_bound_bounds_the_field_and_is_sharp_for_one_mode():
    prob = collapsed_problem(N=8)
    g = prob.grid
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    out = np.empty(prob.tables.rshape)
    assert np.abs(f).max() <= sup_bound(g, forward(f), out)
    for mode in ((1, 0, 0, 0), (0, 0, 0, 2), (1, 2, 3, 1)):
        c = forward(synthesize(g, [(mode, 0.3)]).values)
        assert sup_bound(g, c, out) == pytest.approx(0.3, rel=1e-12)


def test_accepted_step_costs_three_stages_and_one_full_eval_per_flow(monkeypatch):
    # the embedded estimate reuses the full evaluation at the new point
    calls = {True: 0, False: 0}
    real_eval = mkrf.flow._eval_flow

    def counting_eval(*args, **kwargs):
        calls[bool(kwargs.get("full", False))] += 1
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(mkrf.flow, "_eval_flow", counting_eval)
    prob = collapsed_problem()
    res = run_flow(prob, t_max=1.0, run_comparison=True, dt_cap=0.05)
    assert res.status == "completed"
    assert res.constants["halvings"] == 0 and res.step_control["rejections"] == 0
    flows = 2
    assert calls[False] == 3 * flows * res.constants["steps"]
    # one per flow at t = 0 (the normalization constant makes its own rows)
    assert calls[True] == flows * (res.constants["steps"] + 1)
    assert res.step_control["accepted"] == res.constants["steps"]
    assert sum(res.step_control["limits"].values()) == res.constants["steps"]
    assert 0.0 < res.step_control["max_error"] <= mkrf.flow.STEP_TOL


def test_tiny_step_tol_rejects_retries_and_completes(monkeypatch):
    steps = []
    real_step = mkrf.flow._lawson_rk4

    def counting_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(mkrf.flow, "_lawson_rk4", counting_step)
    monkeypatch.setattr(mkrf.flow, "STEP_TOL", 1e-11)
    prob = collapsed_problem()
    res = run_flow(prob, t_max=0.3, run_comparison=True, dt_cap=0.05)
    control = res.step_control
    assert res.status == "completed"
    assert res.series["t"][-1] == pytest.approx(0.3)
    assert control["rejections"] > 0
    assert control["limits"]["error"] > 0
    assert control["max_error"] <= 1e-11
    # every attempt steps both flows; a rejected one records no row
    assert len(steps) == 2 * (res.constants["steps"] + control["rejections"])
    assert len(res.series["t"]) == res.constants["steps"] + 1


def test_error_breakdown_names_the_rejections_it_made(monkeypatch):
    # no estimate meets a zero tolerance: the step breaks down at the
    # rejection past MAX_HALVINGS, and the message counts that one too
    monkeypatch.setattr(mkrf.flow, "STEP_TOL", 0.0)
    monkeypatch.setattr(mkrf.flow, "MAX_HALVINGS", 2)
    res = run_flow(finite_problem(), t_max=5.0, run_comparison=False, dt_cap=0.02)
    assert res.status == "breakdown"
    assert res.step_control["rejections"] == 3
    assert res.stop_reason.endswith("after 3 rejections")


def scripted_first_step(monkeypatch, script):
    """A short collapsed run whose first step goes through the attempts in
    script, "halve" (a positivity loss at the new point) or "reject" (an
    estimate above STEP_TOL), before it is accepted."""
    prob = collapsed_problem()
    attempts = []
    real_symbol = prob.laplace_symbol
    action = dict(enumerate(script, 1))

    def counting_symbol(tau):
        attempts.append(tau)
        return real_symbol(tau)

    def scripted_eval(problem, p_hat, t, r, comparison, full=False):
        if full and action.get(len(attempts)) == "halve":
            raise SingularMetricError(-1.0, (0, 0, 0, 0), t)
        return _eval_flow(problem, p_hat, t, r, comparison, full=full)

    def scripted_error(problem, d, F1, dt):
        err = _embedded_error(problem, d, F1, dt)
        return 1.0 if action.get(len(attempts)) == "reject" else err

    monkeypatch.setattr(prob, "laplace_symbol", counting_symbol)
    monkeypatch.setattr(mkrf.flow, "_eval_flow", scripted_eval)
    monkeypatch.setattr(mkrf.flow, "_embedded_error", scripted_error)
    return run_flow(prob, t_max=0.3, run_comparison=False, dt_cap=0.05)


def test_last_retry_of_a_step_names_its_bound(monkeypatch):
    # halving and the clipped error scaling commute on dt, so both orders
    # take the same steps; the retry that came last names the first one
    halved_last = scripted_first_step(monkeypatch, ["reject", "halve"])
    rejected_last = scripted_first_step(monkeypatch, ["halve", "reject"])
    for res in (halved_last, rejected_last):
        assert res.status == "completed"
        assert res.constants["halvings"] == 1 and res.step_control["rejections"] == 1
    assert halved_last.series == rejected_last.series
    a, b = halved_last.step_control["limits"], rejected_last.step_control["limits"]
    assert a["positivity"] == 1 and b["positivity"] == 0
    assert b["error"] == a["error"] + 1 and a["dt_cap"] == b["dt_cap"]


def test_error_estimate_alone_keeps_a_rough_run_stable():
    # a rough n=1 potential makes the non-constant part of the Laplacian
    # stiff; error rejections, not a separate stability bound, hold dt there
    g = GridSpec(1, 32)

    def rough():
        return FlowProblem(
            KahlerForm(np.eye(1), synthesize(g, [((1, 0), 0.09)])),
            KahlerForm(np.eye(1), g.zeros()),
            VolumeDensity(ScalarField(g, np.ones(g.shape))),
        )

    dt_cap = 0.02
    res = run_flow(rough(), t_max=2.0, run_comparison=False, dt_cap=dt_cap)
    assert res.status == "completed"
    assert res.step_control["rejections"] > 0
    assert res.step_control["max_error"] <= mkrf.flow.STEP_TOL
    # at dt_cap / 8 the estimate still sets the first steps; dt_cap / 32
    # is within 5e-8 of dt_cap / 64
    ref = run_flow(rough(), t_max=2.0, run_comparison=False, dt_cap=dt_cap / 32)
    assert ref.status == "completed"
    err = np.abs(res.final["u_hat"].values - ref.final["u_hat"].values).max()
    assert err <= mkrf.flow.STEP_TOL


def test_repeated_short_collapsed_runs_write_identical_series(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", "--preset", "collapsed", "--t-max", "0.5", "--out", str(out)]) == 0
    assert (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()
    control = json.loads((outs[0] / "constants.json").read_text())["step_control"]
    assert control["accepted"] == len((outs[0] / "series.csv").read_text().splitlines()) - 2
    assert "step control:" in (outs[0] / "summary.txt").read_text()


# --- exact class forcing ----------------------------------------------------------


def forcing_case(case):
    """(problem, t, dt, r) of one step."""
    if case.startswith("before-T"):
        prob = finite_problem()
        dt = float(case.split("-")[-1])
        return prob, prob.path.T - STOP_MARGIN - dt, dt, 0
    if case == "t0":
        return finite_problem(), 0.0, 0.1, 0
    if case == "collapsed":
        # with A0 = I the forcing of diag(1, 0) vanishes identically
        g = GridSpec(2, 8)
        A0 = np.array([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.9]])
        prob = FlowProblem(
            KahlerForm(A0, g.zeros()),
            KahlerForm(np.diag([1.0, 0.0]).astype(complex), g.zeros()),
            VolumeDensity(ScalarField(g, np.ones(g.shape))),
        )
        assert prob.scaled_r == 1
        return prob, 2.0, 0.05, prob.scaled_r
    g = GridSpec(1, 16)
    A = np.array([[1.5]], dtype=complex)
    prob = FlowProblem(KahlerForm(A, g.zeros()), KahlerForm(A, g.zeros()),
                       VolumeDensity(ScalarField(g, np.ones(g.shape))))
    return prob, 0.7, 0.02, 0


@pytest.mark.parametrize("case", ["before-T-0.02", "before-T-0.05", "t0", "collapsed",
                                  "equal-n1"])
def test_forcing_integral_matches_adaptive_quadrature(case):
    from scipy.integrate import quad

    prob, t, dt, r = forcing_case(case)

    def c(s):
        return math.log(np.linalg.det(prob.A_t(s)).real) + r * s

    want, _ = quad(c, t, t + dt, epsabs=0.0, epsrel=2e-14, limit=200)
    got = _forcing_integral(prob, t, dt, r)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_finite_time_preset_mean_mode_converges_in_dt_cap():
    # the log-singular class forcing is invisible to the embedded estimate;
    # integrated by the RK stages it leaves ~5e-4 between these two caps
    sc = load_scenario("finite-time", None)
    prob = build_problem(sc)
    means = [
        float(run_flow(prob, t_max=sc.t_max, run_comparison=False, dt_cap=cap)
              .final["u_hat"].values.mean())
        for cap in (0.02, 0.01)
    ]
    assert abs(means[0] - means[1]) <= 1e-7


# --- Positivity halvings in the step controller ------------------------------


def test_controller_remembers_positivity_halvings():
    # on a density steep enough to halve thousands of steps, a step that was
    # halved proposes at most its own dt next, not up to 5x more, so fewer
    # attempts are wasted than the 3826 halvings and 196 rejections the
    # controller made when it forgot them
    res = run_flow(density_problem(5.0), t_max=0.1, run_comparison=False, dt_cap=0.02)
    assert res.status == "completed"
    wasted = res.constants["halvings"] + res.step_control["rejections"]
    assert 0 < wasted < 3826 + 196


# --- One-point axes and product data ------------------------------------------


def scenario_problem_on_full_grid(sc):
    """The flow problem of a scenario on its full grid, built through the
    constructors (build_problem gives one point to every unused direction)."""
    parsed = validate(sc)
    g = GridSpec(sc.n, sc.N)
    return FlowProblem(KahlerForm(parsed["A0"], synthesize(g, parsed["phi0"])),
                       KahlerForm(parsed["Ainf"], synthesize(g, parsed["phi_inf"])),
                       VolumeDensity(ScalarField(g, np.exp(synthesize(g, parsed["log_h"]).values))))


def close(a, b, rtol=1e-10, atol=1e-13):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b)) + atol or (
        math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("preset", ["finite-time", "collapsed"])
def test_reduced_run_matches_the_full_grid(preset):
    # the finite-time preset varies along z1 only; the collapsed one made
    # z2-free: build_problem gives z2 one point, and every series value,
    # constant and step of the run agree with the forced full grid
    sc = load_scenario(preset, None)
    sc.N, sc.t_max, sc.psi_times = 8, min(sc.t_max, 6.0), [0.0, 5.0]
    sc.phi0 = [term for term in sc.phi0 if term["mode"][2:] == [0, 0]]
    reduced, full = build_problem(sc), scenario_problem_on_full_grid(sc)
    assert reduced.grid.shape == (8, 8, 1, 1) and full.grid.shape == (8,) * 4
    runs = [run_flow(p, sc.t_max, sc.run_comparison_flow, sc.dt_cap) for p in (reduced, full)]
    a, b = runs
    assert (a.status, a.stop_reason, a.violations) == (b.status, b.stop_reason, b.violations)
    assert a.step_control["limits"] == b.step_control["limits"]
    # the error estimate's sup bound sees the same spectrum on both grids
    assert close(a.step_control["max_error"], b.step_control["max_error"], rtol=1e-8)
    assert a.constants["steps"] == b.constants["steps"] and list(a.series) == list(b.series)
    for col in a.series:
        assert all(close(x, y) for x, y in zip(a.series[col], b.series[col])), col
    for key in ("C3", "T", "t_final"):
        assert close(a.constants[key], b.constants[key])
    assert a.constants["grid_shape"] == [8, 8, 1, 1] and b.constants["grid_shape"] == [8] * 4
    for name, f in a.final.items():
        assert np.abs(f.values - b.final[name].values).max() < 1e-12


def _product_scenarios(A0, Ainf, flat_z2):
    """An n=2 scenario of z1-only plus z2-only modes on diagonal classes, and
    its two n=1 factors; flat_z2 leaves the z2 factor without modes."""
    z1 = {"phi0": [((1, 0), 0.004), ((1, 1), 0.001)], "phi_inf": [((0, 1), 0.002)],
          "log_h": [((1, 0), 0.02), ((0, 2), 0.01)]}
    z2 = {"phi0": [((0, 1), 0.003)], "phi_inf": [((1, 0), 0.002)],
          "log_h": [((1, 1), 0.015)]}
    if flat_z2:
        z2 = {key: [] for key in z2}

    def terms(modes, embed):
        return [{"mode": embed(m), "amp": a, "phase": 0.3 * i} for i, (m, a) in enumerate(modes)]

    def scenario(n, a0, ainf, modes):
        rows = [[[a0[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        rows_inf = [[[ainf[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        return Scenario(name="product", n=n, N=8, A0=rows, Ainf=rows_inf, **modes)

    both = {key: terms(z1[key], lambda m: [*m, 0, 0]) + terms(z2[key], lambda m: [0, 0, *m])
            for key in z1}
    return (scenario(2, A0, Ainf, both),
            scenario(1, A0[:1], Ainf[:1], {k: terms(v, list) for k, v in z1.items()}),
            scenario(1, A0[1:], Ainf[1:], {k: terms(v, list) for k, v in z2.items()}))


@pytest.mark.parametrize("regime,Ainf,flat_z2", [
    ("KAHLER_LIMIT", (2.0, 0.8), False),
    ("KAHLER_LIMIT", (2.0, 0.8), True),
    ("COLLAPSED", (1.0, 0.0), False),
    ("COLLAPSED", (1.0, 0.0), True),
    ("FINITE_TIME", (-1.0, -1.0), True),
])
def test_product_data_flow_is_the_sum_of_its_factors(regime, Ainf, flat_z2):
    # det(diag(a1, a2) + H[u1(z1) + u2(z2)]) is the product of the factors'
    # determinants, so the n=2 flow of product data is the sum of two n=1
    # flows.  With a flat z2 factor the n=2 run is on the grid with one point
    # along z2 and its z2 factor on the one-point grid
    both, f1, f2 = _product_scenarios((1.0, 1.0), Ainf, flat_z2)
    problems = [build_problem(sc) for sc in (both, f1, f2)]
    assert problems[0].path.regime.value == regime
    assert problems[0].grid.shape == ((8, 8, 1, 1) if flat_z2 else (8,) * 4)
    assert problems[2].grid.shape == ((1, 1) if flat_z2 else (8, 8))
    t_max = 5.0 if regime == "FINITE_TIME" else 2.0
    runs = [run_flow(p, t_max, False, 0.02) for p in problems]
    for res in runs:
        assert res.constants["halvings"] == 0
        assert res.constants["t_final"] == runs[0].constants["t_final"]
    if regime == "FINITE_TIME":
        # a degenerating class with data makes the last steps before T
        # error-limited, so the z1 factor matches the n=2 run step by step
        # only as closely as their error estimates agree; the flat z2
        # factor, whose solution is its exact class-forcing integral, needs
        # none of those steps.  All three stop at the same T - STOP_MARGIN
        assert all(res.status == "singularity-stop" for res in runs)
        assert runs[0].constants["t_final"] == pytest.approx(math.log(2.0) - STOP_MARGIN,
                                                              abs=1e-12)
        dts = [np.array(res.series["dt"]) for res in runs[:2]]
        assert dts[0].shape == dts[1].shape
        assert np.all(np.abs(dts[0] - dts[1]) <= 1e-9 * dts[0])
    else:
        # dt_cap sets every step of every run, so they take the same steps
        for res in runs:
            assert res.step_control["limits"]["dt_cap"] == res.constants["steps"]
            assert res.series["dt"] == runs[0].series["dt"]

    def raw(res, field):
        """The raw potential u = u_hat + C3 t, or its rate ut_hat + C3."""
        C3, t = res.constants["C3"], res.constants["t_final"]
        return res.final[field].values + C3 * (t if field == "u_hat" else 1.0)

    for field in ("u_hat", "ut_hat"):
        u, u1, u2 = (raw(res, field) for res in runs)
        assert np.abs(u - (u1[:, :, None, None] + u2[None, None, :, :])).max() <= 1e-12
