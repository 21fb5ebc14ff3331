import json
import math

import pytest

from mkrf.cli import main
from mkrf.grid import read_snapshot
from mkrf.scenario import (
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
    sc = tiny_scenario(t_max=1.2345678901234567, seed=12345678901234567)
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


def test_cy_solve_rejects_degenerate_target(capsys):
    assert main(["cy-solve", "--preset", "finite-time"]) == 4
    assert "positive definite" in capsys.readouterr().err


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
    rep = data["reports"]["collapsed"]
    assert rep["status"] == "ok"
    names = [f[0] for f in __import__("mkrf.grid", fromlist=["read_snapshot"])
             .read_snapshot(out / "final.mkrf")]
    assert "w" in names and any(n.startswith("psi_t") for n in names)
