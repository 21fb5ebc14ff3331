"""Acceptance suite: every criterion is exercised at its stated tolerance and
prints one PASS/FAIL line (run with -s to see them on success)."""

import math

import numpy as np

from mkrf import monitors
from mkrf.elliptic import SUP_TOL_FACTOR, _newton
from mkrf.flow import run_flow
from mkrf.geometry import (
    KahlerForm,
    Regime,
    class_volume,
    compute_T,
    ma_density,
    trace_pair,
)
from mkrf.grid import (
    GridSpec,
    ScalarField,
    complex_hessian,
    read_snapshot,
    synthesize,
    write_snapshot,
)
from mkrf.report import write_csv
from mkrf.scenario import build_limit_problem, build_problem, load_scenario

RUNTIME_BUDGET_S = 120.0


def verdict(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def worst(series, key):
    vals = [v for v in series[key] if not math.isnan(v)]
    return min(vals)


def test_criterion_01_sup_bounds_and_runtime(kahler_run, finite_run, collapsed_run):
    details = []
    ok = True
    for entry in (kahler_run, finite_run, collapsed_run):
        res = entry["result"]
        name = entry["scenario"].name
        mu = worst(res.series, "margin_u_hat_nonpos")
        mut = worst(res.series, "margin_ut_hat_nonpos")
        ok &= mu >= -1e-8 and mut >= -1e-8
        ok &= entry["wall"] <= RUNTIME_BUDGET_S
        details.append(f"{name}: margins=({mu:.2e},{mut:.2e}) wall={entry['wall']:.0f}s")
    verdict(1, "normalized potential and rate stay nonpositive; runtime budget",
            ok, "; ".join(details))


def test_criterion_02_exponential_weight_inequality(kahler_run, finite_run, collapsed_run):
    details = []
    ok = True
    for entry in (kahler_run, finite_run, collapsed_run):
        m = worst(entry["result"].series, "margin_eq7")
        ok &= m >= -1e-6
        details.append(f"{entry['scenario'].name}: {m:.2e}")
    verdict(2, "(e^t-1) du/dt - n t <= u pointwise", ok, "; ".join(details))


def test_criterion_03_finite_time_blowdown(finite_run):
    res = finite_run["result"]
    consts = finite_run["reports"]["finite_time"].constants
    ok = all(f"m_delta_{d}" in consts for d in (0.2, 0.1, 0.05))
    m = {d: consts[f"m_delta_{d}"] for d in (0.2, 0.1, 0.05)} if ok else {}
    if ok:
        ok &= m[0.1] < m[0.2] and m[0.05] < m[0.1]
        ok &= m[0.05] <= m[0.2] - 1.0
    min_u = worst(res.series, "min_u_hat")
    ok &= min_u >= -10.0
    verdict(3, "volume rate blow-down trend with bounded potential", ok,
            f"m(0.2)={m.get(0.2, float('nan')):.3f} m(0.05)={m.get(0.05, float('nan')):.3f} "
            f"min_u={min_u:.3f}")


def test_criterion_04_kahler_limit_convergence(kahler_run):
    U = kahler_run["fields"]["U_reference"]
    final_gap = kahler_run["reports"]["convergence"].constants["final_gap"]
    residual = kahler_run["constants"]["newton_residual"]
    ok = final_gap <= 1e-4
    ok &= residual <= 1e-10
    # the reference is the same solution from another starting guess
    start = synthesize(U.grid, [((2, 0), 0.01), ((0, 1), 0.02)]).values
    U2, _ = _newton(build_limit_problem(kahler_run["scenario"]), start - start.mean(),
                    SUP_TOL_FACTOR)
    double_gap = float(np.abs(U.values - U2).max())
    ok &= double_gap <= 1e-8
    verdict(4, "flow converges to the elliptic reference", ok,
            f"gap={final_gap:.2e} newton={residual:.2e} "
            f"double={double_gap:.2e}")


def _collapsed_constants(entry):
    rep = entry["reports"]["collapsed"]
    consts = dict(rep.constants)
    consts["psi_sup_max"] = max(entry["constants"]["psi_sup"])
    return rep, consts


def test_criterion_05_collapsed_estimates(collapsed_run, collapsed_run_n24):
    rep16, c16 = _collapsed_constants(collapsed_run)
    rep24, c24 = _collapsed_constants(collapsed_run_n24)
    ok = rep16.status == "ok"
    keys = ["A_growth", "C_growth", "C_S_1", "C_S_3", "C_S_5"]
    ok &= all(math.isfinite(c16[k]) for k in keys)
    by_name = {c.name: c for c in rep16.checks}
    ok &= by_name["vt_late_damping"].passed
    ok &= by_name["w_non_trending"].passed and by_name["wt_non_trending"].passed
    ok &= by_name["psi_non_trending"].passed

    stability = {}
    for k in keys + ["psi_sup_max"]:
        stability[k] = monitors.stable_within(c16[k], c24[k])
    ok &= all(stability.values())
    bad = [k for k, v in stability.items() if not v]
    verdict(5, "collapsed-regime constants finite, damped, and grid-stable", ok,
            f"A={c16['A_growth']:.3g} C={c16['C_growth']:.3g} "
            f"C(S)=({c16['C_S_1']:.3g},{c16['C_S_3']:.3g},{c16['C_S_5']:.3g}) "
            f"psi={c16['psi_sup_max']:.3g} unstable={bad}")


def test_criterion_06_conservation(kahler_run, finite_run, collapsed_run):
    details = []
    ok = True
    for entry in (kahler_run, finite_run, collapsed_run):
        res = entry["result"]
        tol = 1e-8 * entry["problem"].class_det0
        m = worst(res.series, "margin_conservation")
        ok &= m >= -tol
        details.append(f"{entry['scenario'].name}: {m:.2e}")
    verdict(6, "Monge-Ampere mass conservation at every step", ok, "; ".join(details))


def test_criterion_07_trace_inequalities():
    ok = True
    detail = []
    for n in (1, 2):
        rng = np.random.default_rng(700 + n)
        grid = GridSpec(n, 8)  # >= 1000 independent random points
        shape = (n, n) + grid.shape
        R = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def make(Rm):
            """Components of the pointwise Rm^H Rm + 0.5 I."""
            entries = np.zeros(shape, dtype=np.complex128)
            for j in range(n):
                for k in range(n):
                    for m in range(n):
                        entries[j, k] += np.conj(Rm[m, j]) * Rm[m, k]
                entries[j, j] += 0.5 * (j == j)
            if n == 1:
                return entries[0, 0].real[None]
            return np.stack([entries[0, 0].real, entries[1, 1].real,
                             entries[0, 1].real, entries[0, 1].imag])

        def det(comps):
            if n == 1:
                return comps[0]
            # g11 g22 - |g12|^2 with numpy's complex modulus of g12
            return comps[0] * comps[1] - np.abs(comps[2] + 1j * comps[3]) ** 2

        alpha, beta = make(R), make(S)
        t_ab = trace_pair(alpha, beta)
        t_ba = trace_pair(beta, alpha)
        cs_margin = float((t_ab * t_ba - n * n).min())
        det_a, det_b = det(alpha), det(beta)
        elem_margin = float((t_ab ** (n - 1) * det_a / det_b - t_ba).min())
        ok &= cs_margin > -1e-12 and elem_margin > -1e-12
        detail.append(f"n={n}: CS={cs_margin:.2e} elem={elem_margin:.2e}")
    verdict(7, "trace inequalities on 1000+ random positive pairs", ok, "; ".join(detail))


def test_criterion_08_linearization():
    grid = GridSpec(2, 8)
    form = KahlerForm(np.eye(2), synthesize(grid, [((1, 0, 0, 0), 0.01)]))
    u = synthesize(grid, [((0, 0, 1, 0), 0.01)])
    delta = synthesize(grid, [((1, 0, 1, 0), 0.008), ((0, 1, 0, 0), 0.005)])
    base = ma_density(form, u)
    metric = KahlerForm(form.A, ScalarField(grid, form.phi.values + u.values)).metric()
    lin = trace_pair(metric, complex_hessian(delta))
    predicted = base.values * lin
    det_err = {}
    log_err = {}
    for eps in (1e-3, 1e-4, 1e-5):
        up = ma_density(form, ScalarField(grid, u.values + eps * delta.values)).values
        dn = ma_density(form, ScalarField(grid, u.values - eps * delta.values)).values
        fd = (up - dn) / (2 * eps)
        det_err[eps] = np.abs(fd - predicted).max() / max(1.0, np.abs(predicted).max())
        fdl = (np.log(up) - np.log(dn)) / (2 * eps)
        log_err[eps] = np.abs(fdl - lin).max() / max(1.0, np.abs(lin).max())
    order = math.log10(log_err[1e-3] / log_err[1e-4])
    ok = det_err[1e-5] <= 1e-6 and log_err[1e-5] <= 1e-6 and 1.5 < order < 2.5
    verdict(8, "directional derivative matches finite differences at second order",
            ok, f"rel={log_err[1e-5]:.2e} order={order:.2f}")


def test_criterion_09_pencil_boundary(kahler_run, finite_run, collapsed_run):
    path = compute_T(np.eye(2), np.diag([2.0, -1.0]).astype(complex))
    ok = abs(path.T - math.log(2.0)) <= 1e-10
    expected = {
        "kahler-limit": Regime.KAHLER_LIMIT,
        "finite-time": Regime.FINITE_TIME,
        "collapsed": Regime.COLLAPSED,
    }
    for entry in (kahler_run, finite_run, collapsed_run):
        ok &= entry["problem"].path.regime == expected[entry["scenario"].name]
    ok &= collapsed_run["problem"].path.r == 1
    ok &= class_volume(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    verdict(9, "pencil boundary time and regime trichotomy", ok,
            f"|T - log2|={abs(path.T - math.log(2.0)):.2e}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    sc = load_scenario("kahler-limit", None)
    csvs = []
    for i in range(2):
        problem = build_problem(sc)
        result = run_flow(problem, t_max=sc.t_max, run_comparison=sc.run_comparison_flow,
                          dt_cap=sc.dt_cap)
        path = tmp_path / f"run{i}.csv"
        write_csv(list(result.series), result.series, path)
        csvs.append(path.read_bytes())
    ok = csvs[0] == csvs[1]

    rng = np.random.default_rng(1010)
    grid = GridSpec(2, 8)
    fields = [("a", ScalarField(grid, rng.standard_normal(grid.shape))),
              ("b", ScalarField(grid, rng.standard_normal(grid.shape)))]
    snap = tmp_path / "snap.mkrf"
    write_snapshot(fields, snap)
    back = read_snapshot(snap)
    ok &= all(
        orig.values.tobytes() == rt.values.tobytes()
        for (_, orig), (_, rt) in zip(fields, back)
    )
    verdict(10, "bit-identical CSV on repeated runs; bit-exact snapshots", ok)
