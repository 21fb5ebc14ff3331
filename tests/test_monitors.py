import math

import numpy as np
import pytest

from mkrf.monitors import (
    MonitorResult,
    StepSnapshot,
    check_collapsed,
    check_convergence,
    check_core,
    convergence_gap,
    stable_within,
)


def snapshot(u_hat, ut_hat, t=0.5, n=1, regime="KAHLER_LIMIT",
             mean_det=1.0, class_det=1.0):
    return StepSnapshot(
        t=t, n=n, regime=regime,
        u_hat=u_hat, ut_hat=ut_hat,
        lambda_min=0.9, lambda_min_loc=(0, 0),
        positivity_floor=1e-10,
        mean_det=mean_det, class_det=class_det, class_det0=1.0,
    )


def test_core_passes_on_clean_snapshot():
    u = -0.1 * np.ones((4, 4))
    ut = -0.2 * np.ones((4, 4))
    rep = check_core(snapshot(u, ut), None)
    assert rep.passed
    assert set(rep.margins()) == {
        "u_hat_nonpos", "ut_hat_nonpos", "eq7", "conservation", "positivity",
    }


def test_core_flags_violation_with_location():
    u = -0.1 * np.ones((4, 4))
    u[2, 3] = 1e-3
    ut = -0.2 * np.ones((4, 4))
    rep = check_core(snapshot(u, ut), None)
    bad = {r.name: r for r in rep.failures()}
    assert "u_hat_nonpos" in bad
    assert bad["u_hat_nonpos"].location == (2, 3)
    assert bad["u_hat_nonpos"].margin == pytest.approx(-1e-3)


def test_core_is_pure():
    rng = np.random.default_rng(3)
    u = -np.abs(rng.standard_normal((4, 4)))
    ut = -np.abs(rng.standard_normal((4, 4)))
    s = snapshot(u, ut, t=0.8)
    r1 = check_core(s, prev_combo_min=-0.5)
    r2 = check_core(s, prev_combo_min=-0.5)
    assert r1.margins() == r2.margins()
    assert r1.combo_min == r2.combo_min


def test_eq7_margin_matches_independent_recomputation():
    rng = np.random.default_rng(11)
    u = -np.abs(rng.standard_normal((8, 8)))
    ut = -np.abs(rng.standard_normal((8, 8)))
    t, n = 0.37, 2
    rep = check_core(snapshot(u, ut, t=t, n=n, regime="FINITE_TIME"), None)
    # recompute from the raw fields with an independently written expression
    field = u + n * t - (math.exp(t) - 1.0) * ut
    assert rep.margins()["eq7"] == pytest.approx(field.min(), abs=1e-12)
    chain = (ut + u) - (math.exp(t) * ut - n * t)
    expected_chain = min(float(chain.min()), float(-u.max()))
    assert rep.margins()["eq8_chain"] == pytest.approx(expected_chain, abs=1e-12)


def test_eq8_only_for_finite_time():
    u = -0.1 * np.ones((4, 4))
    ut = -0.2 * np.ones((4, 4))
    rep = check_core(snapshot(u, ut, regime="KAHLER_LIMIT"), None)
    assert "eq8_chain" not in rep.margins()
    rep2 = check_core(snapshot(u, ut, regime="FINITE_TIME"), None)
    assert "eq8_chain" in rep2.margins()


def test_monotone_margin():
    u = -0.1 * np.ones((2, 2))
    ut = -0.2 * np.ones((2, 2))
    rep = check_core(snapshot(u, ut), prev_combo_min=-0.25)
    # combo_min = -0.3; previous -0.25, so decreasing: margin +0.05
    assert rep.margins()["combo_monotone"] == pytest.approx(0.05)
    rep2 = check_core(snapshot(u, ut), prev_combo_min=-0.35)
    assert rep2.margins()["combo_monotone"] == pytest.approx(-0.05)
    assert not rep2.passed


def test_conservation_and_positivity_margins():
    u = -0.1 * np.ones((2, 2))
    ut = -0.2 * np.ones((2, 2))
    s = snapshot(u, ut, mean_det=1.0 + 5e-9, class_det=1.0)
    rep = check_core(s, None)
    assert rep.margins()["conservation"] == pytest.approx(-5e-9)
    assert rep.passed  # tolerance 1e-8 * class_det0


def test_collapsed_rejects_r_zero():
    with pytest.raises(ValueError):
        check_collapsed({"t": [0.0]}, 0, 30.0, 0.0)


def test_convergence_report():
    ts = list(np.linspace(0.0, 10.0, 21))
    gaps = [1e-2 * math.exp(-t) for t in ts]
    rep = check_convergence(ts, gaps)
    assert rep.status == "ok"
    assert rep.constants["final_gap"] == pytest.approx(gaps[-1])
    rising = gaps[:-3] + [1e-3, 2e-3, 4e-3]
    rep2 = check_convergence(ts, rising)
    assert rep2.status == "violations"


def test_convergence_gap_mod_constants():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6))
    assert convergence_gap(a, a + 3.7) < 1e-12
    b = a.copy()
    b[0, 0] += 1e-3
    assert convergence_gap(a, b) > 1e-4


def test_stable_within():
    assert stable_within(1.0, 1.15)
    assert not stable_within(1.0, 1.5)
    assert stable_within(0.001, 0.015)  # absolute floor for near-zero constants


def test_monitor_result_passed():
    assert MonitorResult("x", -1e-9, 1e-6).passed
    assert not MonitorResult("x", -1e-3, 1e-6).passed


def test_eq7_margin_recomputed_from_preset_fields(finite_run):
    # the margin recorded at the stop is reproduced from the raw stored fields
    res = finite_run["result"]
    problem = finite_run["problem"]
    t = res.constants["t_final"]
    u = res.final["u_hat"].values
    ut = res.final["ut_hat"].values
    recomputed = float((u + problem.grid.n * t - (math.exp(t) - 1.0) * ut).min())
    assert res.series["margin_eq7"][-1] == pytest.approx(recomputed, abs=1e-10)


def test_offline_reevaluation_roundtrip(tmp_path):
    # a run directory's CSV alone reproduces the regime diagnostics bit-exactly
    import numpy as np

    from mkrf.flow import FlowProblem, run_flow
    from mkrf.geometry import KahlerForm, VolumeDensity
    from mkrf.grid import GridSpec, ScalarField, synthesize
    from mkrf.report import read_csv, write_csv

    g = GridSpec(2, 8)
    prob = FlowProblem(
        KahlerForm(np.eye(2), synthesize(g, [((1, 0, 0, 0), 0.02)])),
        KahlerForm(np.diag([1.0, 0.0]).astype(complex), g.zeros()),
        VolumeDensity(ScalarField(g, np.ones(g.shape))),
    )
    res = run_flow(prob, t_max=12.0, run_comparison=True, dt_cap=0.05)
    # past the lags' span the history holds at most one span of snapshots
    assert res.step_control["lag_snapshots_max"] <= 51
    rep_live = check_collapsed(res.series, 1, 12.0, res.constants["C3"])

    path = tmp_path / "series.csv"
    write_csv(list(res.series), res.series, path)
    _, series_back = read_csv(path)
    rep_offline = check_collapsed(series_back, 1, 12.0, res.constants["C3"])

    assert rep_offline.constants == rep_live.constants
    assert [(c.name, c.margin) for c in rep_offline.checks] == [
        (c.name, c.margin) for c in rep_live.checks
    ]


def test_collapsed_checks_catch_doctored_series():
    # corrupting the comparison-flow tail must trip the non-trending check
    import numpy as np

    from mkrf.flow import FlowProblem, run_flow
    from mkrf.geometry import KahlerForm, VolumeDensity
    from mkrf.grid import GridSpec, ScalarField, synthesize

    g = GridSpec(2, 8)
    prob = FlowProblem(
        KahlerForm(np.eye(2), synthesize(g, [((1, 0, 0, 0), 0.02)])),
        KahlerForm(np.diag([1.0, 0.0]).astype(complex), g.zeros()),
        VolumeDensity(ScalarField(g, np.ones(g.shape))),
    )
    res = run_flow(prob, t_max=12.0, run_comparison=True, dt_cap=0.05)
    good = check_collapsed(res.series, 1, 12.0, res.constants["C3"])
    assert good.status == "ok"

    doctored = {k: list(v) for k, v in res.series.items()}
    doctored["max_w"] = [
        w + (0.5 if t > 6.0 else 0.0) for t, w in zip(doctored["t"], doctored["max_w"])
    ]
    bad = check_collapsed(doctored, 1, 12.0, res.constants["C3"])
    assert bad.status == "violations"
    assert any(c.name == "w_non_trending" and not c.passed for c in bad.checks)
