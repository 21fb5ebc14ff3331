"""Seeded scenario generation for the benchmark workloads.

Each workload is a fixed scenario whose cosine modes and amplitudes never
change; the workload seed draws only the phase of every mode.  The program
under test receives the generated file through ``--config`` and nothing
else.  The base scenarios are written out here rather than read from
``mkrf.scenario.PRESETS`` so that a change to a shipped preset cannot change
what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

_IDENTITY_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_CY_CLASS = [[[1.0, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.8, 0.0]]]


def _modes(*terms):
    return [{"mode": list(m), "amp": a} for m, a in terms]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # mkrf subcommand: "run" or "cy-solve"
    base: dict              # scenario without phases
    expected_status: str    # constants.json status ("" for cy-solve)
    expected_reason: str    # required prefix of stop_reason ("" = any)
    reports: tuple          # regime reports that must be present and "ok"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        # Not one of BENCHMARK.json's workloads: on about four seeds in ten
        # (2, 6, 8 and 10 of 1-10) mkrf exits 2 because the gap to the Newton
        # reference bottoms out below its discretization floor (~1.9e-8) and
        # then rises by more than TOL_EXACT, failing gap_decreasing_final_half.
        # It stays runnable with --workload kahler-n64 to reproduce that.
        Workload(
            "kahler-n64", "run",
            {
                "name": "kahler-n64", "n": 1, "N": 64,
                "A0": [[[1.0, 0.0]]], "Ainf": [[[1.0, 0.0]]],
                "phi0": _modes(((1, 0), 0.01)),
                "log_h": _modes(((1, 0), 0.10), ((0, 1), 0.06)),
                "t_max": 20.0,
            },
            "completed", "", ("convergence",),
            "n=1 N=64, 1078 tiny steps plus the reference Newton solve: "
            "per-step Python cost dominates; bypass case for FFT and Krylov work",
        ),
        Workload(
            "finite-n16", "run",
            {
                "name": "finite-n16", "n": 2, "N": 16,
                "A0": _IDENTITY_2,
                "Ainf": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                "phi0": _modes(((1, 0, 0, 0), 0.02), ((0, 1, 0, 0), 0.012)),
                "t_max": 5.0,
            },
            "singularity-stop", "finite-time approach window", ("finite_time",),
            "one n=2 N=16 flow to the approach window before T=log 2, no Newton: "
            "control for lockstep batching, bypass for elliptic work",
        ),
        Workload(
            "collapsed-n16", "run",
            {
                "name": "collapsed-n16", "n": 2, "N": 16,
                "A0": _IDENTITY_2,
                "Ainf": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "phi0": _modes(((1, 0, 0, 0), 0.02), ((0, 1, 1, 0), 0.008),
                               ((0, 0, 1, 0), 0.01)),
                # t_max must exceed 5 for the collapsed report to apply
                "t_max": 5.5,
                "run_comparison_flow": True,
                "run_psi_family": True,
                "psi_times": [0.0, 5.0],
                "dt_cap": 0.05,
            },
            "completed", "", ("collapsed",),
            "v and w flows in lockstep plus the psi family at n=2 N=16: "
            "the Hessian FFT dominates, so FFT and batching work shows here",
        ),
        Workload(
            "cy-n24", "cy-solve",
            {
                "name": "cy-n24", "n": 2, "N": 24,
                "A0": _CY_CLASS, "Ainf": _CY_CLASS,
                "phi_inf": _modes(((1, 0, 0, 1), 0.01)),
                "log_h": _modes(((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.25),
                                ((0, 0, 2, 1), 0.2), ((1, 1, 0, 0), 0.2)),
            },
            "", "", (),
            "damped Newton with lgmres at n=2 N=24: the only workload where the "
            "elliptic layer dominates; working set far above L2",
        ),
    )
}


def scenario(workload: str, seed: int) -> dict:
    """The workload's scenario with every mode phase drawn from the seed."""
    rng = random.Random(f"mkrf-bench:{workload}:{seed}")
    sc = json.loads(json.dumps(WORKLOADS[workload].base))
    for key in ("phi0", "phi_inf", "log_h"):
        for term in sc.get(key, []):
            term["phase"] = rng.uniform(0.0, 2.0 * math.pi)
    return sc


def scenario_text(workload: str, seed: int) -> str:
    return json.dumps(scenario(workload, seed), indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
