import json
import math

import numpy as np
import pytest

import mkrf.monitors
from mkrf.cli import main
from mkrf.monitors import (
    MonitorResult,
    check_collapsed,
    check_convergence,
    check_core,
    convergence_gap,
    stable_within,
)


def core(u_hat, ut_hat, prev_combo_min=None, t=0.5, n=1, finite_time=False,
         mean_det=1.0, class_det=1.0):
    """check_core on one step's data: margins by name, whether all passed,
    and combo_min."""
    results, combo_min = check_core(t, n, finite_time, u_hat, ut_hat, prev_combo_min,
                                    0.9, 1e-10, mean_det, class_det, 1.0)
    margins = {r.name: r.margin for r in results}
    return margins, all(r.passed for r in results), combo_min, results


def test_core_passes_on_clean_snapshot():
    u = -0.1 * np.ones((4, 4))
    ut = -0.2 * np.ones((4, 4))
    margins, passed, _, _ = core(u, ut)
    assert passed
    assert list(margins) == [
        "u_hat_nonpos", "ut_hat_nonpos", "eq7", "conservation", "positivity",
    ]


def test_core_flags_violation_with_margin():
    u = -0.1 * np.ones((4, 4))
    u[2, 3] = 1e-3
    ut = -0.2 * np.ones((4, 4))
    _, _, _, results = core(u, ut)
    bad = {r.name: r for r in results if not r.passed}
    assert "u_hat_nonpos" in bad
    assert bad["u_hat_nonpos"].margin == pytest.approx(-1e-3)


def test_core_is_pure():
    rng = np.random.default_rng(3)
    u = -np.abs(rng.standard_normal((4, 4)))
    ut = -np.abs(rng.standard_normal((4, 4)))
    u0, ut0 = u.copy(), ut.copy()
    m1, _, c1, _ = core(u, ut, prev_combo_min=-0.5, t=0.8)
    m2, _, c2, _ = core(u, ut, prev_combo_min=-0.5, t=0.8)
    assert m1 == m2
    assert c1 == c2
    assert np.array_equal(u, u0) and np.array_equal(ut, ut0)


def test_eq7_margin_matches_independent_recomputation():
    rng = np.random.default_rng(11)
    u = -np.abs(rng.standard_normal((8, 8)))
    ut = -np.abs(rng.standard_normal((8, 8)))
    t, n = 0.37, 2
    margins, _, _, _ = core(u, ut, t=t, n=n, finite_time=True)
    # recompute from the raw fields with an independently written expression
    field = u + n * t - (math.exp(t) - 1.0) * ut
    assert margins["eq7"] == pytest.approx(field.min(), abs=1e-12)
    chain = (ut + u) - (math.exp(t) * ut - n * t)
    expected_chain = min(float(chain.min()), float(-u.max()))
    assert margins["eq8_chain"] == pytest.approx(expected_chain, abs=1e-12)


def test_eq8_only_for_finite_time():
    u = -0.1 * np.ones((4, 4))
    ut = -0.2 * np.ones((4, 4))
    assert "eq8_chain" not in core(u, ut, finite_time=False)[0]
    assert "eq8_chain" in core(u, ut, finite_time=True)[0]


def test_monotone_margin():
    u = -0.1 * np.ones((2, 2))
    ut = -0.2 * np.ones((2, 2))
    margins, _, combo_min, _ = core(u, ut, prev_combo_min=-0.25)
    # combo_min = -0.3; previous -0.25, so decreasing: margin +0.05
    assert combo_min == pytest.approx(-0.3)
    assert margins["combo_monotone"] == pytest.approx(0.05)
    margins2, passed2, _, _ = core(u, ut, prev_combo_min=-0.35)
    assert margins2["combo_monotone"] == pytest.approx(-0.05)
    assert not passed2


def test_conservation_and_positivity_margins():
    u = -0.1 * np.ones((2, 2))
    ut = -0.2 * np.ones((2, 2))
    margins, passed, _, _ = core(u, ut, mean_det=1.0 + 5e-9, class_det=1.0)
    assert margins["conservation"] == pytest.approx(-5e-9)
    assert margins["positivity"] == pytest.approx(0.9 - 1e-10)
    assert passed  # tolerance 1e-8 * class_det0


def test_failed_step_monitors_reach_exit_stderr_and_run_record(tmp_path, capsys,
                                                               monkeypatch):
    # a negative tolerance fails every monitor held to TOL_INEQ at every step
    monkeypatch.setattr(mkrf.monitors, "TOL_INEQ", -1e9)
    out = tmp_path / "violated"
    assert main(["run", "--preset", "finite-time", "--grid", "8", "--t-max", "0.6",
                 "--out", str(out)]) == 2
    names = ["combo_monotone", "eq7", "eq8_chain"]
    assert "monitor violations: " + ", ".join(names) in capsys.readouterr().err
    assert json.loads((out / "constants.json").read_text())["constants"]["violations"] == names


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
