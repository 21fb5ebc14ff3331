import json
import math
import tracemalloc

import numpy as np
import pytest

import mkrf.flow
from mkrf.cli import main
from mkrf.flow import (
    FlowBreakdownError,
    FlowProblem,
    RunOptions,
    SingularityStopError,
    _attempt_step,
    _embedded_error,
    _eval_flow,
    _forcing_integral,
    _lawson_rk4,
    _sup_bound,
    initial_comparison_state,
    initial_flow_state,
    initial_scaled_state,
    normalization_constant,
    rhs_comparison,
    rhs_mskrf,
    rhs_scaled,
    run_flow,
    stable_dt,
    step_rk4,
)
from mkrf.geometry import KahlerForm, VolumeDensity
from mkrf.grid import GridSpec, ScalarField, forward, hessian_components, synthesize
from mkrf.scenario import build_problem, load_scenario


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


# --- RHS evaluations ---------------------------------------------------------


def test_rhs_flat_stationary():
    prob = flat_problem()
    r = rhs_mskrf(prob.grid.zeros(), 0.7, prob)
    assert np.abs(r.values).max() < 1e-14


def test_rhs_n1_log_formula():
    prob = flat_problem(n=1, N=32)
    g = prob.grid
    eps = 0.01
    u = synthesize(g, [((1, 0), eps)])
    r = rhs_mskrf(u, 0.3, prob)
    x = g.axis_coordinate(0)
    expected = np.log(1.0 - eps * np.pi**2 * np.cos(2 * np.pi * x)) + np.zeros(g.shape)
    assert np.abs(r.values - expected).max() < 1e-13


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
    d20 = np.abs(rhs_mskrf(u, 20.0, prob).values - rhs_mskrf(u, 20.0, frozen).values).max()
    d40 = np.abs(rhs_mskrf(u, 40.0, prob).values - rhs_mskrf(u, 40.0, frozen).values).max()
    assert d20 < 100.0 * math.exp(-20.0)
    assert d40 < 1e-12


def test_rhs_scaled_identity():
    prob = collapsed_problem()
    g = prob.grid
    v = synthesize(g, [((0, 0, 1, 0), 0.01)])
    t = 1.7
    diff = rhs_scaled(v, t, prob).values - rhs_mskrf(v, t, prob).values
    assert np.abs(diff - prob.scaled_r * t).max() < 1e-12

    flat = flat_problem(n=2, N=8)
    assert flat.scaled_r == 0
    v2 = synthesize(flat.grid, [((1, 0, 0, 0), 0.01)])
    assert np.array_equal(rhs_scaled(v2, 0.5, flat).values, rhs_mskrf(v2, 0.5, flat).values)


def test_rhs_scaled_initial_value_collapsed():
    prob = collapsed_problem()
    g = prob.grid
    from mkrf.geometry import ma_density

    direct = np.log(ma_density(prob.form0, g.zeros()).values)  # h == 1
    r = rhs_scaled(g.zeros(), 0.0, prob)
    assert np.abs(r.values - direct).max() < 1e-12


def test_rhs_comparison_identities():
    prob = collapsed_problem()
    g = prob.grid
    w = synthesize(g, [((1, 0, 0, 0), 0.01)])
    t = 2.0
    expect = rhs_scaled(w, t, prob).values - w.values
    assert np.abs(rhs_comparison(w, t, prob).values - expect).max() < 1e-14

    flat = flat_problem(n=2, N=8)
    z = rhs_comparison(flat.grid.zeros(), 0.0, flat)
    assert np.abs(z.values).max() < 1e-14


def test_rhs_comparison_stationary_in_t_for_flat_fiber():
    # a base-direction potential sees a t-independent RHS once e^{-t} decays
    prob = collapsed_problem(phi_modes=[((1, 0, 0, 0), 0.02)])
    g = prob.grid
    w = synthesize(g, [((1, 0, 0, 0), 0.01), ((0, 2, 0, 0), 0.005)])
    a = rhs_comparison(w, 30.0, prob).values
    b = rhs_comparison(w, 40.0, prob).values
    assert np.abs(a - b).max() < 1e-3


# --- stepping ----------------------------------------------------------------


@pytest.mark.parametrize("use_if", [False, True])
def test_step_rk4_stationary(use_if):
    prob = flat_problem()
    st = initial_flow_state(prob)
    st2 = step_rk4(st, 1e-3, prob, use_integrating_factor=use_if)
    assert np.abs(st2.u.values).max() < 1e-14
    assert np.abs(st2.u_dot.values).max() < 1e-14


@pytest.mark.parametrize("use_if", [False, True])
def test_step_rk4_richardson(use_if):
    g = GridSpec(1, 16)
    prob = FlowProblem(
        KahlerForm(np.eye(1), g.zeros()),
        KahlerForm(np.eye(1), g.zeros()),
        VolumeDensity(ScalarField(g, np.exp(synthesize(g, [((1, 0), 0.1)]).values))),
    )
    u0 = synthesize(g, [((1, 0), 0.01), ((0, 1), 0.005)])
    st = initial_flow_state(prob)
    st = type(st)(0.0, u0, st.u_dot, st.metric, st.C3, 0.0)
    errs = []
    for dt in (2e-3, 1e-3):
        one = step_rk4(st, dt, prob, use_integrating_factor=use_if)
        half = step_rk4(st, dt / 2, prob, use_integrating_factor=use_if)
        half = step_rk4(half, dt / 2, prob, use_integrating_factor=use_if)
        errs.append(np.abs(one.u.values - half.u.values).max())
    ratio = errs[0] / errs[1]
    assert 20.0 < ratio < 45.0


def test_step_rk4_retry_path():
    # steep prescribed volume drives the metric toward positivity loss within
    # one large explicit step, forcing the halving retry
    g = GridSpec(1, 16)
    prob = FlowProblem(
        KahlerForm(np.eye(1), g.zeros()),
        KahlerForm(np.eye(1), g.zeros()),
        VolumeDensity(ScalarField(g, np.exp(synthesize(g, [((1, 0), 5.0)]).values))),
    )
    st = initial_flow_state(prob)
    dt_req = 0.5
    st2 = step_rk4(st, dt_req, prob, use_integrating_factor=False)
    assert st2.dt_last < dt_req
    assert st2.t == pytest.approx(st2.dt_last)


def test_attempt_step_singularity_stop():
    g = GridSpec(1, 16)
    prob = FlowProblem(
        KahlerForm(np.eye(1), g.zeros()),
        KahlerForm(np.eye(1), g.zeros()),
        VolumeDensity(ScalarField(g, np.exp(synthesize(g, [((1, 0), 5.0)]).values))),
    )
    y = prob.phi0_hat.copy()
    with pytest.raises(SingularityStopError):
        _attempt_step(prob, [(y, 0, False)], 0.0, 0.5, False, max_halvings=1)


def test_stable_dt_examples():
    prob = flat_problem(n=1, N=32)
    st = initial_flow_state(prob)
    expected = 0.8 * 2.0 / (math.pi * 32) ** 2
    assert stable_dt(st) == pytest.approx(expected, rel=1e-12)

    # metric scaled by 4 scales dt by 4; lambda_bar doubled halves dt
    g = GridSpec(1, 32)
    big = FlowProblem(
        KahlerForm(4.0 * np.eye(1), g.zeros()),
        KahlerForm(4.0 * np.eye(1), g.zeros()),
        VolumeDensity(ScalarField(g, np.ones(g.shape))),
    )
    assert stable_dt(initial_flow_state(big)) == pytest.approx(4.0 * expected, rel=1e-12)
    half = FlowProblem(
        KahlerForm(0.5 * np.eye(1), g.zeros()),
        KahlerForm(0.5 * np.eye(1), g.zeros()),
        VolumeDensity(ScalarField(g, np.ones(g.shape))),
    )
    assert stable_dt(initial_flow_state(half)) == pytest.approx(0.5 * expected, rel=1e-12)


def test_stable_dt_empirical_sweep():
    # plain RK4 at the bound damps a near-Nyquist mode; well above it, the
    # mode grows
    g = GridSpec(1, 16)
    prob = flat_problem(n=1, N=16)
    u0 = synthesize(g, [((7, 7), 1e-8)])
    st0 = initial_flow_state(prob)
    dt_ref = stable_dt(st0)

    from mkrf.geometry import SingularMetricError

    def amplitude_after(dt, steps=200):
        st = type(st0)(0.0, u0, st0.u_dot, st0.metric, st0.C3, 0.0)
        for _ in range(steps):
            try:
                st = step_rk4(st, dt, prob, use_integrating_factor=False)
            except (SingularityStopError, SingularMetricError):
                return math.inf
            if not np.isfinite(st.u.values).all():
                return math.inf
        return float(np.abs(st.u.values).max())

    a0 = float(np.abs(u0.values).max())
    assert amplitude_after(dt_ref) < a0  # decays inside the bound
    assert amplitude_after(6.0 * dt_ref) > 10.0 * a0  # grows beyond it


def test_normalization_constant_cases():
    assert normalization_constant(flat_problem()) == 0.0
    for c in (0.3, -0.4):
        prob = flat_problem(h_const=math.exp(c))
        assert normalization_constant(prob) == pytest.approx(-c, abs=1e-12)


def test_scaled_raw_lockstep_consistency():
    # v - u - (r/2) t^2 vanishes when both flows run from the same data
    prob = collapsed_problem()
    su = initial_flow_state(prob)
    sv = initial_scaled_state(prob)
    r = prob.scaled_r
    dt = 2e-3
    for _ in range(40):
        su = step_rk4(su, dt, prob, use_integrating_factor=True)
        sv = step_rk4(sv, dt, prob, use_integrating_factor=True)
    assert su.t == pytest.approx(sv.t)
    drift = sv.v.values - su.u.values - 0.5 * r * sv.t**2
    assert np.abs(drift).max() < 1e-10
    # metrics agree pointwise (the rescaling shifts only the potential)
    assert np.abs(sv.metric.entries - su.metric.entries).max() < 1e-10


def test_comparison_state_roundtrip():
    prob = collapsed_problem()
    sw = initial_comparison_state(prob)
    assert np.abs(sw.w.values).max() < 1e-14
    sw = step_rk4(sw, 1e-3, prob, use_integrating_factor=True)
    expect = rhs_comparison(sw.w, sw.t, prob)
    assert np.abs(sw.w_dot.values - expect.values).max() < 1e-12


# --- runs --------------------------------------------------------------------


def test_run_flow_kahler_completes():
    prob = flat_problem(n=1, N=16, h_const=1.1)
    res = run_flow(prob, RunOptions(t_max=2.0))
    assert res.status == "completed"
    assert res.series["t"][-1] == pytest.approx(2.0)
    assert min(res.series["margin_ut_hat_nonpos"]) > -1e-8
    assert min(res.series["margin_conservation"]) > -1e-8


def test_run_flow_finite_time_stops_near_T():
    prob = finite_problem()
    opts = RunOptions(t_max=5.0)
    res = run_flow(prob, opts)
    assert res.status == "singularity-stop"
    assert res.stop_reason.startswith("finite-time approach window")
    T = prob.path.T
    # the run ends on the event T - stop_margin; no window bounds a step
    assert res.constants["t_final"] == res.series["t"][-1] == T - opts.stop_margin
    assert "finite_window" not in res.step_control["limits"]
    assert set(res.delta_samples) == {0.2, 0.1, 0.05}
    # volume blow-down: the minimum rate is strongly negative at the stop
    assert res.series["min_ut_hat"][-1] < -5.0


def test_run_flow_collapsed_with_comparison():
    prob = collapsed_problem()
    res = run_flow(prob, RunOptions(t_max=3.0, run_comparison=True, dt_cap=0.05))
    assert res.status == "completed"
    assert "min_w" in res.series
    assert not math.isnan(res.series["min_q_s1"][-1])
    assert math.isnan(res.series["min_q_s1"][0])  # no history before t = S
    assert res.violations == []
    assert "w" in res.final and "v" in res.final


def test_run_flow_is_deterministic():
    prob = flat_problem(n=1, N=16, h_const=1.2)
    r1 = run_flow(prob, RunOptions(t_max=1.0))
    r2 = run_flow(prob, RunOptions(t_max=1.0))
    assert r1.series == r2.series


def test_lockstep_runs_on_one_problem_are_identical():
    # the v and w flows and both runs share the problem's workspace;
    # nothing may leak from one evaluation into the next
    prob = collapsed_problem()
    opts = RunOptions(t_max=1.0, run_comparison=True, dt_cap=0.05)
    r1 = run_flow(prob, opts)
    r2 = run_flow(prob, opts)
    assert r1.series == r2.series


def test_run_flow_u_dot_matches_rhs():
    # the recorded rate field is the RHS at the final state, not a finite
    # difference
    prob = collapsed_problem()
    res = run_flow(prob, RunOptions(t_max=1.0, run_comparison=False, dt_cap=0.05))
    t = res.constants["t_final"]
    r = prob.scaled_r
    v_final = ScalarField(prob.grid,
                          res.final["u_hat"].values + 0.5 * r * t * t + res.C3 * t)
    expect = rhs_scaled(v_final, t, prob).values - (r * t + res.C3)
    assert np.abs(res.final["ut_hat"].values - expect).max() < 1e-12


def test_flat_run_margins_at_machine_precision():
    # stationary flat data: every core margin should sit at round-off
    prob = flat_problem(n=1, N=16)
    res = run_flow(prob, RunOptions(t_max=0.5))
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
    hs = hessian_components(g, p_hat)
    g11, g22 = A[0, 0].real + hs[0], A[1, 1].real + hs[1]
    p, q = A[0, 1].real + hs[2], A[0, 1].imag + hs[3]
    rhs = np.log(g11 * g22 - (p * p + q * q)) - prob.log_h
    if r:
        rhs = rhs + r * t
    w = math.exp(-t)
    F = forward(g, rhs)
    if not comparison:
        # the u/v stages leave out the class forcing; the step integrates it
        F[(0,) * F.ndim] -= g.num_points * (math.log(prob.class_det(t)) + r * t)
    F = F + w * prob.drift_hat
    if comparison:
        F = F - (p_hat - (w * prob.phi0_hat + (1.0 - w) * prob.phi_inf_hat))
    return F


def reference_lawson_rk4(prob, y, t, dt, r, comparison, use_if):
    y1 = reference_lawson_stages(prob, y, t, dt, r, comparison, use_if)
    if not comparison:
        y1[(0,) * y1.ndim] += prob.grid.num_points * _forcing_integral(prob, t, dt, r)
    return y1


def reference_lawson_stages(prob, y, t, dt, r, comparison, use_if):
    """The step without the class forcing of the u/v mean mode."""
    if not use_if:
        def N(z, tau):
            return reference_rhs(prob, z, tau, r, comparison)

        k1 = N(y, t)
        k2 = N(y + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = N(y + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = N(y + dt * k3, t + dt)
        return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
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


@pytest.mark.parametrize("use_if", [False, True])
@pytest.mark.parametrize("comparison", [False, True])
@pytest.mark.parametrize("with_f0", [False, True])
def test_lawson_step_matches_allocating_reference(use_if, comparison, with_f0):
    # the in-place stage arithmetic is bit-identical to the plain expressions
    prob = collapsed_problem()
    y = prob.phi0_hat.copy()
    t, dt, r = 0.3, 0.01, prob.scaled_r
    F0 = _eval_flow(prob, y, t, r, comparison).F_hat if with_f0 else None
    got, _ = _lawson_rk4(prob, y, t, dt, r, comparison, use_if, F0=F0)
    want = reference_lawson_rk4(prob, y, t, dt, r, comparison, use_if)
    assert np.array_equal(got, want)


def test_full_eval_result_owns_its_arrays():
    prob = collapsed_problem()
    r = prob.scaled_r
    y = prob.phi0_hat.copy()
    evs = [_eval_flow(prob, y, 0.2, r, comp, full=True) for comp in (False, True)]

    def arrays(ev):
        return [ev.F_hat, ev.rhs_phys, ev.det, ev.pot_phys, *ev.comps]

    before = [[a.copy() for a in arrays(ev)] for ev in evs]
    y2 = y * 1.01
    _eval_flow(prob, y2, 0.3, r, False)
    _eval_flow(prob, y2, 0.3, r, True, full=True)
    states = [(y, r, False, evs[0].F_hat), (y, r, True, evs[1].F_hat)]
    _attempt_step(prob, states, 0.2, 0.05, True)
    for ev, saved in zip(evs, before):
        for a, b in zip(arrays(ev), saved):
            assert np.array_equal(a, b)


def test_lockstep_step_peak_allocation():
    # one warmed-up v + w collapsed step at N=16 allocates no more than the
    # stage RHS arrays and one Hessian stack at a time; the stencil product
    # and the pointwise temporaries live in the problem's workspace
    prob = collapsed_problem(N=16)
    r = prob.scaled_r
    y = prob.phi0_hat.copy()
    states = [(y, r, False, _eval_flow(prob, y, 0.0, r, False).F_hat),
              (y, r, True, _eval_flow(prob, y, 0.0, r, True).F_hat)]
    _attempt_step(prob, states, 0.0, 0.01, True)
    tracemalloc.start()
    try:
        _attempt_step(prob, states, 0.0, 0.01, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_nonfinite_state_is_breakdown_not_singularity(monkeypatch):
    prob = finite_problem()
    y = prob.phi0_hat.copy()
    y[1, 0, 0, 0] = np.nan
    calls = []
    real_eval = mkrf.flow._eval_flow

    def counting_eval(*args, **kwargs):
        calls.append(args[2])
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(mkrf.flow, "_eval_flow", counting_eval)
    with pytest.raises(FlowBreakdownError):
        _attempt_step(prob, [(y, 0, False)], 0.0, 0.01, True)
    assert len(calls) == 1  # no halving retries


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


# --- embedded error estimate and step control -----------------------------------


def reference_embedded_error(prob, y, t, dt, r, comparison, use_if):
    """y1 minus the embedded solution with weights (1/6, 1/3, 1/3, 1/15, 1/10),
    both mapped back from the Lawson frame; k5 is the stage at y1."""
    ell = 0.0
    if use_if:
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
    y1 = reference_lawson_rk4(prob, y, t, dt, r, comparison, use_if)
    k5 = N(y1, t + dt)
    y_hat = E1 * y + dt * (E1 * k1 / 6.0 + E2 * (k2 + k3) / 3.0 + k4 / 15.0 + k5 / 10.0)
    if not comparison:
        # both solutions carry the exactly integrated class forcing
        y_hat[(0,) * y_hat.ndim] += prob.grid.num_points * _forcing_integral(prob, t, dt, r)
    return y1 - y_hat


@pytest.mark.parametrize("use_if", [False, True])
@pytest.mark.parametrize("comparison", [False, True])
def test_embedded_estimate_matches_reference(use_if, comparison):
    # the step itself is unchanged: test_lawson_step_matches_allocating_reference
    prob = collapsed_problem()
    y = prob.phi0_hat.copy()
    t, dt, r = 0.3, 0.01, prob.scaled_r
    F0 = _eval_flow(prob, y, t, r, comparison).F_hat
    y1, d = _lawson_rk4(prob, y, t, dt, r, comparison, use_if, F0=F0)
    F1 = _eval_flow(prob, y1, t + dt, r, comparison).F_hat
    want = reference_embedded_error(prob, y, t, dt, r, comparison, use_if)
    got = 0.1 * dt * (d - F1)
    # the reference subtracts two states: round-off on their scale
    assert np.abs(got - want).max() <= 1e-14 * np.abs(y1).max()
    assert _embedded_error(prob, d, F1, dt) == pytest.approx(
        _sup_bound(prob, want), rel=1e-9)


@pytest.mark.parametrize("use_if", [False, True])
def test_embedded_estimate_is_third_order(use_if):
    # local error of an order-3 embedding: once dt |ell| is small, halving dt
    # divides it by ~2^4 (at larger dt the Lawson estimate shows the usual
    # stiff order reduction)
    prob = collapsed_problem()
    y = prob.phi0_hat.copy()
    r = prob.scaled_r
    errs = []
    for dt in (1.25e-3, 6.25e-4):
        F0 = _eval_flow(prob, y, 0.0, r, False).F_hat
        y1, d = _lawson_rk4(prob, y, 0.0, dt, r, False, use_if, F0=F0)
        errs.append(_embedded_error(prob, d, _eval_flow(prob, y1, dt, r, False).F_hat, dt))
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_sup_bound_bounds_the_field_and_is_sharp_for_one_mode():
    prob = collapsed_problem(N=8)
    g = prob.grid
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    assert np.abs(f).max() <= _sup_bound(prob, forward(g, f))
    for mode in ((1, 0, 0, 0), (0, 0, 0, 2), (1, 2, 3, 1)):
        c = forward(g, synthesize(g, [(mode, 0.3)]).values)
        assert _sup_bound(prob, c) == pytest.approx(0.3, rel=1e-12)


def test_accepted_step_costs_three_stages_and_one_full_eval_per_flow(monkeypatch):
    # the embedded estimate reuses the full evaluation at the new point
    calls = {True: 0, False: 0}
    real_eval = mkrf.flow._eval_flow

    def counting_eval(*args, **kwargs):
        calls[bool(kwargs.get("full", False))] += 1
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(mkrf.flow, "_eval_flow", counting_eval)
    prob = collapsed_problem()
    res = run_flow(prob, RunOptions(t_max=1.0, run_comparison=True, dt_cap=0.05))
    assert res.status == "completed"
    assert res.halvings == 0 and res.step_control["rejections"] == 0
    flows = 2
    assert calls[False] == 3 * flows * res.steps
    # one for the normalization constant, one per flow at t = 0
    assert calls[True] == 1 + flows * (res.steps + 1)
    assert res.step_control["accepted"] == res.steps
    assert sum(res.step_control["limits"].values()) == res.steps
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
    res = run_flow(prob, RunOptions(t_max=0.3, run_comparison=True, dt_cap=0.05))
    control = res.step_control
    assert res.status == "completed"
    assert res.series["t"][-1] == pytest.approx(0.3)
    assert control["rejections"] > 0
    assert control["limits"]["error"] > 0
    assert control["max_error"] <= 1e-11
    # every attempt steps both flows; a rejected one records no row
    assert len(steps) == 2 * (res.steps + control["rejections"])
    assert len(res.series["t"]) == res.steps + 1


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
    stop_margin = RunOptions(t_max=1.0).stop_margin
    if case.startswith("before-T"):
        prob = finite_problem()
        dt = float(case.split("-")[-1])
        return prob, prob.path.T - stop_margin - dt, dt, 0
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
        float(run_flow(prob, RunOptions(t_max=sc.t_max, dt_cap=cap)).final["u_hat"].values.mean())
        for cap in (0.02, 0.01)
    ]
    assert abs(means[0] - means[1]) <= 1e-7
