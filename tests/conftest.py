import time

import pytest

from mkrf.cli import verdict
from mkrf.flow import run_flow
from mkrf.geometry import Regime
from mkrf.scenario import build_limit_problem, build_problem, load_scenario

_cache = {}


def preset_run(name, grid_override=None):
    """Run a preset once per session, timing its flow, and judge it as
    `mkrf run` does; acceptance criteria share the result."""
    key = (name, grid_override)
    if key not in _cache:
        sc = load_scenario(name, None)
        if grid_override is not None:
            sc.N = grid_override
        problem = build_problem(sc)
        limit = (build_limit_problem(sc) if problem.path.regime == Regime.KAHLER_LIMIT
                 else None)
        start = time.perf_counter()
        result = run_flow(problem, t_max=sc.t_max, run_comparison=sc.run_comparison_flow,
                          dt_cap=sc.dt_cap)
        wall = time.perf_counter() - start
        reports, _, constants, fields = verdict(sc, problem, result, limit)
        _cache[key] = {"scenario": sc, "problem": problem, "result": result, "wall": wall,
                       "reports": reports, "constants": constants, "fields": dict(fields)}
    return _cache[key]


@pytest.fixture(scope="session")
def kahler_run():
    return preset_run("kahler-limit")


@pytest.fixture(scope="session")
def finite_run():
    return preset_run("finite-time")


@pytest.fixture(scope="session")
def collapsed_run():
    return preset_run("collapsed")


@pytest.fixture(scope="session")
def collapsed_run_n24():
    return preset_run("collapsed", grid_override=24)
