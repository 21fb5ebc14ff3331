import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkrf.cli import main
from mkrf.grid import read_snapshot
from mkrf.scenario import (
    MAX_GRID_POINTS,
    PRESETS,
    InvalidScenarioError,
    Scenario,
    build_problem,
    load_scenario,
    validate,
)


def tiny_scenario(**over):
    base = dict(
        name="tiny",
        n=1,
        N=16,
        A0=[[[1.0, 0.0]]],
        Ainf=[[[1.0, 0.0]]],
        phi0=[{"mode": [1, 0], "amp": 0.01}],
        log_h=[{"mode": [1, 0], "amp": 0.08}],
        t_max=1.5,
    )
    base.update(over)
    return Scenario(**base)


def test_scenario_roundtrip_exact():
    sc = tiny_scenario(t_max=1.2345678901234567, dt_cap=12345678901234567)
    text = sc.to_json()
    sc2 = Scenario.from_json(text)
    assert sc2 == sc
    assert sc2.to_json() == text


def test_scenario_validation_errors():
    with pytest.raises(InvalidScenarioError, match="Hermitian"):
        validate(tiny_scenario(n=2, N=16, A0=[[[1, 0], [1, 0]], [[0, 0], [1, 0]]],
                               Ainf=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                               phi0=[], log_h=[]))
    with pytest.raises(InvalidScenarioError, match="positive definite"):
        validate(tiny_scenario(A0=[[[-1.0, 0.0]]]))
    with pytest.raises(InvalidScenarioError, match="mode vector"):
        validate(tiny_scenario(phi0=[{"mode": [1, 0, 0, 0], "amp": 0.01}]))
    with pytest.raises(InvalidScenarioError, match="amplitude"):
        validate(tiny_scenario(phi0=[{"mode": [1, 0], "amp": 0.9}]))
    with pytest.raises(InvalidScenarioError, match="unknown config keys"):
        Scenario.from_json(json.dumps({"name": "x", "n": 1, "N": 16,
                                       "A0": [], "Ainf": [], "bogus": 1}))


def test_removed_monitors_key_is_unknown(tmp_path, capsys):
    # monitors and seed were read by nothing and are gone; the plain-RK4
    # switch went with the plain-RK4 step
    for key, value in (("monitors", None), ("seed", 0), ("use_integrating_factor", True)):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps(dict(json.loads(tiny_scenario().to_json()), **{key: value})))
        assert main(["run", "--config", str(cfg)]) == 4
        assert key in capsys.readouterr().err


def test_presets_classify_to_named_regimes(capsys):
    assert main(["classify", "--preset", "kahler-limit"]) == 0
    assert capsys.readouterr().out.strip() == "T=inf regime=KAHLER_LIMIT"
    assert main(["classify", "--preset", "finite-time"]) == 0
    assert capsys.readouterr().out.strip() == "T=0.693147 regime=FINITE_TIME"
    assert main(["classify", "--preset", "collapsed"]) == 0
    assert capsys.readouterr().out.strip() == "T=inf regime=COLLAPSED r=1"


def test_classify_json(capsys):
    assert main(["classify", "--preset", "finite-time", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regime"] == "FINITE_TIME"
    assert abs(data["T"] - math.log(2.0)) < 1e-10
    assert abs(data["s_star"] - 0.5) < 1e-11


def test_classify_invalid_matrix(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    sc = tiny_scenario(n=2, N=16,
                       A0=[[[1, 0], [2, 0]], [[0, 0], [1, 0]]],
                       Ainf=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                       phi0=[], log_h=[])
    cfg.write_text(sc.to_json())
    assert main(["classify", "--config", str(cfg)]) == 4
    assert "Hermitian" in capsys.readouterr().err


def test_run_invalid_config_exit_4(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"name": "bad", "n": 1, "N": 16,
                               "A0": [[[-1.0, 0.0]]], "Ainf": [[[1.0, 0.0]]]}))
    assert main(["run", "--config", str(cfg)]) == 4
    assert "A0" in capsys.readouterr().err


@pytest.mark.parametrize("dt_cap", [0, -1, "abc"])
def test_run_rejects_nonpositive_dt_cap_exit_4(tmp_path, capsys, dt_cap):
    cfg = tmp_path / "bad.json"
    cfg.write_text(tiny_scenario(dt_cap=dt_cap).to_json())
    assert main(["run", "--config", str(cfg)]) == 4
    assert "dt_cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "classify", "cy-solve"])
@pytest.mark.parametrize("field,value", [
    ("N", "16"), ("n", True), ("psi_times", "abc"), ("psi_times", [1.0, "x"]),
    ("t_max", "1.5"), ("dt_cap", True), ("run_psi_family", 1), ("log_h", 3),
    ("phi0", [{"mode": [1.5, 0], "amp": 0.01}]), ("A0", [[["1", 0.0]]]),
    ("phi0", [{"mode": [1, 0], "amp": 0.01, "phse": 1.0}]),
    ("log_h", [{"mode": [1, 0], "amp": 0.08, "extra": 1}]),
])
def test_mistyped_field_exits_4_naming_it(tmp_path, capsys, command, field, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(tiny_scenario(**{field: value}).to_json())
    assert main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and field in err


def test_t_max_override_keeps_mistyped_psi_times_for_validation(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(tiny_scenario(psi_times="abc").to_json())
    assert main(["run", "--config", str(cfg), "--t-max", "1"]) == 4
    assert "psi_times" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "classify", "cy-solve"])
def test_grid_beyond_point_budget_exits_4_at_once(tmp_path, capsys, command):
    # n=2, N=512 would be about 6.9e10 grid points
    cfg = tmp_path / "huge.json"
    cfg.write_text(tiny_scenario(n=2, N=512, A0=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                 Ainf=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                 phi0=[], log_h=[]).to_json())
    start = time.perf_counter()
    assert main([command, "--config", str(cfg)]) == 4
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "N=512" in err and "grid budget" in err


def test_presets_and_largest_benchmark_grid_fit_the_budget():
    for sc in PRESETS.values():
        validate(sc)
    assert 24 ** 4 <= MAX_GRID_POINTS
    validate(tiny_scenario(n=2, N=24, A0=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                           Ainf=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                           phi0=[], log_h=[]))


FIELDS = sorted(Scenario.__dataclass_fields__)
# small JSON values, non-finite floats included (Python's json reads NaN and
# Infinity); nothing here is large enough to build a grid from
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


def _validates_or_is_rejected(data):
    try:
        validate(Scenario.from_json(json.dumps(data)))
    except InvalidScenarioError:
        pass


def _paths(obj, prefix=()):
    """Every key/index path into a nested JSON value."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


REQUIRED = ("name", "n", "N", "A0", "Ainf")


def _objects_near(preset):
    """JSON objects whose every field is the preset's value or arbitrary JSON,
    so that checks behind the first few fields are reached too."""
    base = json.loads(PRESETS[preset].to_json())
    return st.fixed_dictionaries(
        {k: st.just(base[k]) | JSON_VALUES for k in REQUIRED},
        optional={k: st.just(base.get(k)) | JSON_VALUES
                  for k in FIELDS + ["bogus"] if k not in REQUIRED})


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | st.sampled_from(sorted(PRESETS)).flatmap(_objects_near))
def test_arbitrary_json_objects_validate_or_are_rejected(data):
    _validates_or_is_rejected(data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.data())
def test_perturbed_presets_validate_or_are_rejected(preset, draw):
    data = json.loads(PRESETS[preset].to_json())
    path = draw.draw(st.sampled_from(list(_paths(data))[1:]))
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    if draw.draw(st.booleans()):
        parent[path[-1]] = draw.draw(JSON_VALUES)
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    _validates_or_is_rejected(data)


def test_run_tiny_scenario_and_report(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    # long enough for the convergence monitor's final-gap bar
    cfg.write_text(tiny_scenario(t_max=12.0).to_json())
    out = tmp_path / "run1"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("scenario.json", "series.csv", "constants.json", "final.mkrf",
                 "summary.txt"):
        assert (out / name).exists(), name
    svgs = sorted(out.glob("plot_*.svg"))
    assert svgs

    # well-formed XML
    import xml.etree.ElementTree as ET

    for svg in svgs:
        ET.fromstring(svg.read_text())

    # snapshot readable and bit-exact through a round-trip
    fields = read_snapshot(out / "final.mkrf")
    names = [n for n, _ in fields]
    assert "u_hat" in names and "ut_hat" in names and "U_reference" in names

    # the reference Newton solve says how hard it worked
    ref = json.loads((out / "constants.json").read_text())["constants"]["newton_reference"]
    assert ref["iterations"] >= 1 and len(ref["matvecs"]) == ref["iterations"]
    # and the Krylov restart cycles of each Newton system
    assert len(ref["krylov_cycles"]) == ref["iterations"]
    assert all(c >= 1 for c in ref["krylov_cycles"])
    assert (f"  reference: {ref['iterations']} iterations, {sum(ref['matvecs'])} matvecs"
            in (out / "summary.txt").read_text())
    # with the relative linear residual each Newton system reached
    assert len(ref["linear_residuals"]) == ref["iterations"]
    assert ("    linear residuals: " + " ".join(f"{r:.2e}" for r in ref["linear_residuals"])
            in (out / "summary.txt").read_text())
    # N=16 starts from the solution on its N=8 half grid
    assert ref["start"] == "nested" and [c["N"] for c in ref["coarse_levels"]] == [8]
    coarse = ref["coarse_levels"][0]
    assert (f"    coarse N=8: {coarse['iterations']} iterations, {sum(coarse['matvecs'])} matvecs"
            in (out / "summary.txt").read_text())

    # report is idempotent
    before = {p.name: p.read_bytes() for p in svgs}
    assert main(["report", str(out)]) == 0
    after = {p.name: p.read_bytes() for p in sorted(out.glob("plot_*.svg"))}
    assert before == after


def test_report_missing_series_exit_4(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 4


GOOD_SERIES = "t,x\n0.0,1.0\n0.5,2.0\n"
CONTROL = {"accepted": 3, "max_error": 0.1, "tol": 0.2, "limits": {}}


@pytest.mark.parametrize("file,series,constants,timings", [
    ("series.csv", "t,x\n", None, None),
    ("series.csv", "x,y\n0.0,1.0\n", None, None),
    ("constants.json", GOOD_SERIES, [], None),
    ("constants.json", GOOD_SERIES, {"constants": {}, "step_control": CONTROL}, None),
    ("series.csv", b"t,x\n0.0,\xe9\n", None, None),
    ("series.csv", "t,x\n0.0,abc\n", None, None),
    ("timings.json", GOOD_SERIES, None, [1]),
    ("timings.json", GOOD_SERIES, None, {"core_s": "fast"}),
], ids=["header-only", "no-t-column", "json-array", "no-rejections", "series-not-utf8",
        "series-not-a-number", "timings-array", "timings-not-a-number"])
def test_report_of_malformed_run_dir_exits_4_naming_the_file(tmp_path, capsys, file, series,
                                                             constants, timings):
    run = tmp_path / "run"
    run.mkdir()
    if isinstance(series, str):
        series = series.encode()
    (run / "series.csv").write_bytes(series)
    if constants is not None:
        (run / "constants.json").write_text(json.dumps(constants))
    if timings is not None:
        (run / "timings.json").write_text(json.dumps(timings))
    assert main(["report", str(run)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {run / file}: ")


@pytest.mark.parametrize("command", ["run", "classify", "cy-solve"])
def test_config_that_is_not_utf8_exits_4(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(tiny_scenario().to_json().replace('"tiny"', '"caf\xe9"').encode("latin-1"))
    assert main([command, "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith("invalid config: cannot read config: ")


@pytest.mark.parametrize("command,core", [("run", "run_flow"), ("cy-solve", "solve_cy")])
def test_out_naming_a_file_exits_4_before_the_work(tmp_path, capsys, monkeypatch, command,
                                                   core):
    import mkrf.cli

    def refuse(*args):
        raise AssertionError(f"{core} ran with an unusable --out")

    monkeypatch.setattr(mkrf.cli, core, refuse)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(tiny_scenario(N=8).to_json())
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("invalid --out: ")
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("where", ["file", "under-a-file"])
def test_report_out_that_cannot_be_made_exits_4(tmp_path, capsys, where):
    run = tmp_path / "run"
    run.mkdir()
    (run / "series.csv").write_text(GOOD_SERIES)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    out = taken if where == "file" else taken / "sub"
    assert main(["report", str(run), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("invalid --out: ")
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["run", "classify", "cy-solve"])
@pytest.mark.parametrize("field,mode,N,grid", [
    ("phi0", [6, 0], 8, None),     # runs as [2, 0] on 8 points
    ("phi0", [4, 0], 8, None),     # the Nyquist mode: the spectral Hessian zeroes it
    ("log_h", [1, -4], 8, None),
    ("phi_inf", [0, 4], 16, 8),    # below the Nyquist frequency of N=16, not of --grid 8
], ids=["aliased", "nyquist", "negative", "grid-override"])
def test_mode_the_grid_cannot_represent_exits_4(tmp_path, capsys, command, field, mode, N,
                                                grid):
    cfg = tmp_path / "finite.json"
    cfg.write_text(tiny_scenario(N=N, Ainf=[[[-1.0, 0.0]]], t_max=0.3,
                                 **{field: [{"mode": mode, "amp": 0.3}]}).to_json())
    args = [command, "--config", str(cfg)]
    if grid is not None:
        assert main(["classify", "--config", str(cfg)]) == 0
        capsys.readouterr()
        args += ["--grid", str(grid)]
    assert main(args) == 4
    err = capsys.readouterr().err
    size = grid or N
    assert err.startswith("invalid config: ") and field in err
    assert f"N={size}" in err and f"Nyquist frequency {size // 2}" in err


def test_cy_solve_cli(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(tiny_scenario().to_json())
    out = tmp_path / "cy"
    assert main(["cy-solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "cy_solution.mkrf").exists()
    rep = json.loads((out / "newton_report.json").read_text())
    assert rep["converged"]
    assert rep["final_residual"] <= 1e-10
    assert len(rep["matvecs"]) == rep["iterations"]
    assert len(rep["krylov_cycles"]) == rep["iterations"]
    assert all(c >= 1 for c in rep["krylov_cycles"])
    assert len(rep["linear_residuals"]) == rep["iterations"]
    assert all(r <= rtol for r, rtol in zip(rep["linear_residuals"], rep["linear_rtols"]))
    assert rep["start"] == "nested"
    assert [(c["N"], c["converged"]) for c in rep["coarse_levels"]] == [(8, True)]
    assert rep["grid_shape"] == [16, 16]
    # the summary line counts the fine level's Jacobian applications
    assert capsys.readouterr().out.strip().endswith(f", matvecs {sum(rep['matvecs'])}")


def test_cy_solve_rejects_degenerate_target(capsys):
    assert main(["cy-solve", "--preset", "finite-time"]) == 4
    assert "positive definite" in capsys.readouterr().err


def test_cy_solve_rejects_nearly_singular_limit_class(tmp_path, capsys):
    # an eigenvalue of Ainf above zero but below the positivity threshold:
    # classify calls the pencil a Kahler limit, cy-solve names the field
    cfg = tmp_path / "near.json"
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    near = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5e-11, 0.0]]]
    cfg.write_text(Scenario(name="near", n=2, N=8, A0=eye, Ainf=near).to_json())
    assert main(["classify", "--config", str(cfg)]) == 0
    assert "regime=KAHLER_LIMIT" in capsys.readouterr().out
    assert main(["cy-solve", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid config: Ainf:") and "positive definite" in err


def test_cy_solve_builds_no_flow_problem(tmp_path, monkeypatch):
    # the limit equation reads only Ainf, phi_inf and log_h
    import mkrf.flow

    def refuse(*args, **kwargs):
        raise AssertionError("cy-solve built a FlowProblem")

    monkeypatch.setattr(mkrf.flow.FlowProblem, "__init__", refuse)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(tiny_scenario().to_json())
    out = tmp_path / "cy"
    assert main(["cy-solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "cy_solution.mkrf").exists()


def test_cy_solve_with_an_initial_form_that_is_no_metric_exits_4(tmp_path, capsys):
    # A0 + H[phi0] has lambda_min 1 - pi^2 / 2 < 0: the scenario is
    # inadmissible for cy-solve as for run, although the solve never reads phi0
    cfg = tmp_path / "bad.json"
    cfg.write_text(tiny_scenario(phi0=[{"mode": [1, 0], "amp": 0.5}]).to_json())
    assert main(["cy-solve", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "inadmissible scenario" in err and "lambda_min" in err


@pytest.mark.parametrize("command", ["cy-solve", "run"])
def test_limit_form_that_is_no_metric_exits_4_naming_phi_inf(tmp_path, capsys, monkeypatch,
                                                           command):
    # Ainf + H[phi_inf] has lambda_min -3.9 at the origin: the limit
    # equation's Newton solve has no admissible start, and run finds that
    # out at set-up, before it integrates the flow
    import mkrf.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the flow ran")

    monkeypatch.setattr(mkrf.cli, "run_flow", refuse)
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cfg = tmp_path / "bad.json"
    cfg.write_text(tiny_scenario(n=2, N=8, A0=eye, Ainf=eye, phi0=[], log_h=[],
                                 phi_inf=[{"mode": [1, 0, 0, 0], "amp": 0.5}],
                                 t_max=0.5).to_json())
    assert main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "phi_inf" in err and "lambda_min=-3.935e+00" in err


NEAR_SINGULAR = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5e-11, 0.0]]]


@pytest.mark.parametrize("command", ["run", "cy-solve"])
@pytest.mark.parametrize("field,over", [
    # A0 + H[phi0] has lambda_min -3.9 at the origin
    ("phi0", {"phi0": [{"mode": [1, 0, 0, 0], "amp": 0.5}]}),
    # smallest eigenvalue above zero, below the positivity floor 1e-10
    ("A0", {"A0": NEAR_SINGULAR}),
    ("Ainf", {"Ainf": NEAR_SINGULAR}),
])
def test_set_up_failures_name_their_field(tmp_path, capsys, command, field, over):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cfg = tmp_path / "bad.json"
    base = dict(n=2, N=8, A0=eye, Ainf=eye, phi0=[], log_h=[], t_max=0.5)
    cfg.write_text(tiny_scenario(**{**base, **over}).to_json())
    assert main([command, "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith(f"invalid config: {field}:")


def test_collapsed_run_without_the_comparison_flow(tmp_path, capsys):
    # no w columns in the series: the collapsed report leaves out the
    # comparison-flow checks instead of failing on the missing columns
    sc = load_scenario("collapsed", None)
    sc.N, sc.t_max, sc.run_comparison_flow, sc.run_psi_family = 8, 6.0, False, False
    cfg = tmp_path / "collapsed.json"
    cfg.write_text(sc.to_json())
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    names = [c["name"] for c in
             json.loads((out / "constants.json").read_text())["reports"]["collapsed"]["checks"]]
    assert "v_linear_growth_finite" in names
    assert not [n for n in names if n.startswith(("w_", "wt_", "appendix_w"))]


@pytest.mark.parametrize("command", ["run", "classify"])
def test_psi_time_past_the_positivity_floor_exits_4_before_the_flow(tmp_path, capsys,
                                                                     monkeypatch, command):
    # the rank-1 collapsing class has lambda_min e^{-t}, below POSITIVITY_EPS
    # after t = 23.03: the psi solve at t = 24 cannot start, and that is a
    # set-up error, found before any flow step
    import mkrf.cli as cli

    def no_flow(*args):
        raise AssertionError("the flow ran")

    monkeypatch.setattr(cli, "run_flow", no_flow)
    sc = load_scenario("collapsed", None)
    sc.N, sc.t_max, sc.run_comparison_flow, sc.psi_times = 8, 25.0, False, [0.0, 24.0]
    cfg = tmp_path / "late_psi.json"
    cfg.write_text(sc.to_json())
    assert main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "psi_times: the class A_t at t=24: must be positive definite" in err
    # without the psi family the same times are not read
    sc.run_psi_family = False
    cfg.write_text(sc.to_json())
    assert main(["classify", "--config", str(cfg)]) == 0


def test_newton_failure_prints_the_solver_diagnosis(capsys):
    # the N=8 grid cannot resolve the preset's density: the line search
    # fails, and the message says why
    assert main(["cy-solve", "--preset", "kahler-limit", "--grid", "8"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failed: Newton did not converge")
    assert "line search failed" in err and "refine the grid" in err


def test_run_overrides(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(tiny_scenario().to_json())
    sc = load_scenario(None, str(cfg))
    assert sc.t_max == 1.5
    problem = build_problem(sc)
    assert problem.grid.N == 16


def test_preset_copies_are_independent():
    sc = load_scenario("collapsed", None)
    sc.t_max = 3.0
    assert PRESETS["collapsed"].t_max == 30.0


def test_cli_preset_runs_exit_codes(tmp_path):
    # kahler-limit preset: completed with all monitors passing
    out = tmp_path / "kahler"
    assert main(["run", "--preset", "kahler-limit", "--out", str(out)]) == 0
    data = json.loads((out / "constants.json").read_text())
    assert data["constants"]["status"] == "completed"

    # finite-time preset: exit 0 with singularity-stop status
    out2 = tmp_path / "finite"
    assert main(["run", "--preset", "finite-time", "--out", str(out2)]) == 0
    data2 = json.loads((out2 / "constants.json").read_text())
    assert data2["constants"]["status"] == "singularity-stop"


def test_finite_time_run_ended_by_t_max_short_of_the_window_completes(tmp_path, capsys):
    # the approach window starts at T - 0.2 = 0.49; a run that ends at a
    # t_max before T - STOP_MARGIN reached t_max, it made no singularity stop
    out = tmp_path / "short"
    assert main(["run", "--preset", "finite-time", "--t-max", "0.3", "--out", str(out)]) == 0
    data = json.loads((out / "constants.json").read_text())
    assert data["constants"]["status"] == "completed"
    assert data["constants"]["stop_reason"] == "reached t_max"
    assert data["constants"]["t_final"] == 0.3
    assert data["reports"]["finite_time"]["status"] == "not applicable"
    assert "status=completed" in capsys.readouterr().out


def test_repeated_runs_write_identical_records(tmp_path):
    # a second run of one scenario into the same directory rewrites every
    # file byte for byte, apart from timings.json and the phase wall times
    # summary.txt lists from it
    out = tmp_path / "run"
    records = []
    for _ in range(2):
        assert main(["run", "--preset", "finite-time", "--grid", "8", "--out", str(out)]) == 0
        record = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
        record["summary.txt"] = record["summary.txt"].split(b"phase wall times:")[0]
        records.append(record)
    assert {"constants.json", "series.csv", "final.mkrf", "summary.txt"} <= set(records[0])
    assert sorted(records[0]) == sorted(records[1])
    for name in records[0]:
        assert records[0][name] == records[1][name], name


def test_series_identical_across_thread_counts(tmp_path, monkeypatch):
    # a flow run and a Newton solve with several Krylov systems
    cfg = tmp_path / "cy.json"
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cfg.write_text(tiny_scenario(n=2, N=16, A0=eye, Ainf=eye, phi0=[], log_h=[
        {"mode": [1, 0, 0, 0], "amp": 0.3, "phase": 0.4},
        {"mode": [0, 1, 1, 0], "amp": 0.25, "phase": 2.1}]).to_json())
    cases = [(["run", "--preset", "finite-time", "--t-max", "0.1"], ["series.csv"]),
             (["cy-solve", "--config", str(cfg)], ["cy_solution.mkrf", "newton_report.json"])]
    for argv, names in cases:
        codes, files = [], []
        for threads in ("1", "2"):
            monkeypatch.setenv("MKRF_THREADS", threads)
            out = tmp_path / f"{argv[0]}-threads{threads}"
            codes.append(main([*argv, "--out", str(out)]))
            files.append([(out / name).read_bytes() for name in names])
        assert codes[0] == codes[1] == 0
        assert files[0] == files[1], argv[0]


def test_set_up_builds_each_problem_once(tmp_path, monkeypatch):
    # a Kahler-limit run builds its limit problem once, before the flow, and
    # the reference solve reuses it; cy-solve validates the scenario once
    import mkrf.cli
    import mkrf.scenario

    calls = {"build_limit_problem": 0, "validate": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(mkrf.cli, "build_limit_problem")
    counted(mkrf.scenario, "validate")
    cfg = tmp_path / "tiny.json"
    cfg.write_text(tiny_scenario(t_max=0.3).to_json())
    # this short a run misses the final-gap bar (exit 2); only set-up is counted
    assert main(["run", "--config", str(cfg)]) in (0, 2)
    assert calls["build_limit_problem"] == 1
    calls["validate"] = 0
    assert main(["cy-solve", "--config", str(cfg)]) == 0
    assert calls["validate"] == 1


def test_cli_collapsed_run_with_psi_family(tmp_path):
    # shortened horizon still exercises the comparison flow, the psi solves,
    # and the collapsed report through the CLI
    out = tmp_path / "coll"
    code = main(["run", "--preset", "collapsed", "--out", str(out),
                 "--t-max", "12", "--grid", "8"])
    assert code == 0
    data = json.loads((out / "constants.json").read_text())
    assert data["constants"]["status"] == "completed"
    assert "psi_sup" in data["constants"]
    assert len(data["constants"]["psi_sup"]) == 3  # psi times trimmed to t_max
    newton = data["constants"]["psi_newton"]
    assert [e["t"] for e in newton] == [0.0, 5.0, 10.0]
    assert all(len(e["matvecs"]) == len(e["krylov_cycles"]) == e["iterations"] for e in newton)
    assert all(len(e["linear_residuals"]) == e["iterations"] for e in newton)
    # every psi solve starts cold, and N=8 has no half grid
    assert all(e["start"] == "zero" for e in newton)
    assert all(e["coarse_levels"] == [] for e in newton)
    summary = (out / "summary.txt").read_text()
    assert all(f"  psi t={e['t']:g}: {e['iterations']} iterations" in summary for e in newton)
    rep = data["reports"]["collapsed"]
    assert rep["status"] == "ok"
    names = [f[0] for f in __import__("mkrf.grid", fromlist=["read_snapshot"])
             .read_snapshot(out / "final.mkrf")]
    assert "w" in names and any(n.startswith("psi_t") for n in names)


def test_phase_timings_side_file(tmp_path):
    # run: four phases, listed in the summary; the record's other files keep
    # their keys and columns
    out = tmp_path / "run"
    assert main(["run", "--preset", "finite-time", "--grid", "8", "--out", str(out)]) == 0
    timings = json.loads((out / "timings.json").read_text())
    assert sorted(timings) == ["core_s", "setup_s", "verdict_s", "write_s"]
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    summary = (out / "summary.txt").read_text()
    assert "phase wall times:" in summary
    assert all(f"  {k} = {v:.3f}" in summary for k, v in timings.items())
    data = json.loads((out / "constants.json").read_text())
    assert sorted(data) == ["constants", "reports", "step_control"]
    assert sorted(data["constants"]) == [
        "C3", "T", "grid_shape", "halvings", "r", "regime", "status", "steps", "stop_reason",
        "t_final", "violations"]
    # the preset varies along z1 only: the solver's grid has one point along z2
    assert data["constants"]["grid_shape"] == [8, 8, 1, 1]
    assert "  grid_shape = [8, 8, 1, 1]" in summary
    assert (out / "series.csv").read_text().splitlines()[0] == (
        "t,dt,min_u_hat,max_u_hat,min_ut_hat,max_ut_hat,lambda_min_metric,mean_det,"
        "class_det,margin_u_hat_nonpos,margin_ut_hat_nonpos,margin_eq7,"
        "margin_combo_monotone,margin_conservation,margin_positivity,margin_eq8_chain,"
        "min_F,margin_vol_sandwich")
    final = read_snapshot(out / "final.mkrf")
    assert [n for n, _ in final] == ["u_hat", "ut_hat", "V_proxy"]
    assert all(f.values.shape == (8,) * 4 and np.ptp(f.values, axis=(2, 3)).max() == 0.0
               for _, f in final)

    # cy-solve: no verdict phase
    cfg = tmp_path / "tiny8.json"
    cfg.write_text(tiny_scenario(N=8, log_h=[{"mode": [1, 0], "amp": 0.01}]).to_json())
    out = tmp_path / "cy"
    assert main(["cy-solve", "--config", str(cfg), "--out", str(out)]) == 0
    timings = json.loads((out / "timings.json").read_text())
    assert sorted(timings) == ["core_s", "setup_s", "write_s"]
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())


@pytest.mark.parametrize("n", [1, 2])
def test_data_without_modes_solve_on_one_point_and_write_full_grids(n, tmp_path):
    # nothing varies: run (with its reference Newton solve) and cy-solve
    # work on the one-point grid and write fields of N**(2n) points
    def diag(*entries):
        return [[[entries[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]

    cfg = tmp_path / "flat.json"
    cfg.write_text(Scenario(name="flat", n=n, N=8, A0=diag(1.0, 1.0), Ainf=diag(1.5, 0.7),
                            t_max=1.0).to_json())
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "constants.json").read_text())
    assert data["constants"]["grid_shape"] == [1] * (2 * n)
    assert data["constants"]["regime"] == "KAHLER_LIMIT"
    fields = read_snapshot(out / "final.mkrf")
    assert [name for name, _ in fields] == ["u_hat", "ut_hat", "V_proxy", "U_reference"]
    assert all(f.grid.shape == (8,) * (2 * n) and np.ptp(f.values) == 0.0 for _, f in fields)
    out = tmp_path / "cy"
    assert main(["cy-solve", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "newton_report.json").read_text())
    assert rep["grid_shape"] == [1] * (2 * n) and rep["converged"] and rep["iterations"] == 0
    [(name, U)] = read_snapshot(out / "cy_solution.mkrf")
    assert name == "U" and U.values.shape == (8,) * (2 * n) and not U.values.any()
