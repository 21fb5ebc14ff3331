import json
import math
import time

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
])
def test_mistyped_field_exits_4_naming_it(tmp_path, capsys, command, field, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(tiny_scenario(**{field: value}).to_json())
    assert main([command, "--config", str(cfg)]) == 4
    assert field in capsys.readouterr().err


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
    assert len(rep["linear_residuals"]) == rep["iterations"]
    assert all(r <= rtol for r, rtol in zip(rep["linear_residuals"], rep["linear_rtols"]))
    assert rep["start"] == "nested"
    assert [(c["N"], c["converged"]) for c in rep["coarse_levels"]] == [(8, True)]
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


def test_series_identical_across_thread_counts(tmp_path, monkeypatch):
    codes, series = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("MKRF_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        codes.append(main(["run", "--preset", "finite-time", "--t-max", "0.1",
                           "--out", str(out)]))
        series.append((out / "series.csv").read_bytes())
    assert codes[0] == codes[1]
    assert series[0] == series[1]


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
    assert all(len(e["matvecs"]) == e["iterations"] for e in newton)
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
        "C3", "T", "halvings", "r", "regime", "status", "steps", "stop_reason", "t_final",
        "violations", "wall_time_s"]
    assert (out / "series.csv").read_text().splitlines()[0] == (
        "t,dt,min_u_hat,max_u_hat,min_ut_hat,max_ut_hat,lambda_min_metric,mean_det,"
        "class_det,margin_u_hat_nonpos,margin_ut_hat_nonpos,margin_eq7,"
        "margin_combo_monotone,margin_conservation,margin_positivity,margin_eq8_chain,"
        "min_F,margin_vol_sandwich")
    assert [n for n, _ in read_snapshot(out / "final.mkrf")] == ["u_hat", "ut_hat", "V_proxy"]

    # cy-solve: no verdict phase
    cfg = tmp_path / "tiny8.json"
    cfg.write_text(tiny_scenario(N=8, log_h=[{"mode": [1, 0], "amp": 0.01}]).to_json())
    out = tmp_path / "cy"
    assert main(["cy-solve", "--config", str(cfg), "--out", str(out)]) == 0
    timings = json.loads((out / "timings.json").read_text())
    assert sorted(timings) == ["core_s", "setup_s", "write_s"]
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
