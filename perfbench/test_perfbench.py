"""Tests of the benchmark's own parts; run with
``PYTHONPATH=src python3 -m pytest -q perfbench``."""

import importlib
import json
from pathlib import Path

import pytest

import layers
import run
import spans
import workloads


# seed-1 scenarios of the recorded baseline; a change here changes the inputs
SEED1_SHA256 = {
    "collapsed-n16": "b966b4f45978d48cbf98f8280910b55b8a5af1ba8c6fef218b5b551e64772b5b",
    "cy-n24": "d25c818601b2557d09175053d5262f99ba316751091f2e817ec3a5398a5b0fdf",
    "finite-n16": "282583c85c8764fe7659c56c9b9adec936ed1aafa73230196b18e9d4e94dce89",
    "kahler-n64": "9cb8a5c0401240cac3f385093f13d8321fda410a0536e9d9630ff9b90e6d76ed",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_the_seed(name):
    assert workloads.digest(workloads.scenario_text(name, 1)) == SEED1_SHA256[name]
    assert workloads.scenario_text(name, 7) == workloads.scenario_text(name, 7)
    assert workloads.scenario_text(name, 7) != workloads.scenario_text(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_draws_only_phases(name):
    base = workloads.WORKLOADS[name].base
    sc = workloads.scenario(name, 3)
    for key in ("phi0", "phi_inf", "log_h"):
        drawn = [{k: v for k, v in t.items() if k != "phase"} for t in sc.get(key, [])]
        assert drawn == base.get(key, [])
    assert {k: v for k, v in sc.items() if k not in ("phi0", "phi_inf", "log_h")} == {
        k: v for k, v in base.items() if k not in ("phi0", "phi_inf", "log_h")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_scenario_is_valid(name):
    scenario = importlib.import_module("mkrf.scenario")
    sc = scenario.Scenario.from_json(workloads.scenario_text(name, 1))
    scenario.validate(sc)


def test_wrappers_restore_every_patched_attribute():
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in spans.targets()]
    assert len(before) > 40
    tracer = spans.Tracer().install()
    try:
        assert all(getattr(owner, attr) is not obj for owner, attr, obj in before)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is obj for owner, attr, obj in before)


def test_wrappers_cover_the_named_boundaries():
    names = {name for _, _, name, _ in spans.targets()}
    for name in ("flow.hessian_components", "elliptic.forward", "elliptic.lgmres",
                 "cli.run_flow", "cli.solve_cy", "monitors.check_core",
                 "flow._eval_flow", "elliptic._frame_state"):
        assert name in names


def test_spans_nest_and_restore_on_error():
    tracer = spans.Tracer().install(only={"cli.run_flow", "cli.build_problem"})
    cli = importlib.import_module("mkrf.cli")
    try:
        with pytest.raises(Exception):
            cli.build_problem(None)
        assert len(tracer.spans) == 1 and tracer.spans[0][2] >= tracer.spans[0][1]
    finally:
        tracer.uninstall()
    assert not tracer._stack


def test_self_time_subtracts_direct_children():
    record = {
        "names": [["cli.run_flow", "flow"], ["flow.hessian_components", "grid"],
                  ["flow.metric_components", "geometry"]],
        "spans": [[0, 0.0, 10.0, -1, None], [1, 1.0, 3.0, 0, 100],
                  [2, 4.0, 5.0, 0, None], [1, 6.0, 7.0, 0, 50]],
        "import_s": 0.5,
    }
    t = layers.SpanTable(record)
    assert t.self_s["cli.run_flow"] == pytest.approx(6.0)
    m = layers.derive(record, {"steps": 2, "halvings": 0}, 123)
    assert m["grid.hessian.calls.flow"] == 2
    assert m["grid.hessian.s.flow"] == pytest.approx(3.0)
    assert m["grid.hessian.bytes.flow"] == 150
    assert m["geometry.flow.s"] == pytest.approx(1.0)
    assert m["flow.ms_per_step"] == pytest.approx(5000.0)
    assert set(m) | {"trace.overhead_s", "fail_ratio"} == {n for n, _ in layers.PER_LAYER}


def test_benchmark_json_names_what_the_benchmark_reports():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
