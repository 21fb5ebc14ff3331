"""Scenario configuration: explicit-key JSON configs, validation, presets.

Matrices are written as rows of [re, im] pairs and potentials as cosine mode
lists, so experiment files are diffable and round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .flow import FlowProblem, RunOptions
from .geometry import KahlerForm, VolumeDensity, check_hermitian
from .grid import GridSpec, ScalarField, synthesize


class InvalidScenarioError(Exception):
    """Configuration rejected; message names the offending field."""


@dataclass
class Scenario:
    name: str
    n: int
    N: int
    A0: list
    Ainf: list
    phi0: list = field(default_factory=list)
    phi_inf: list = field(default_factory=list)
    log_h: list = field(default_factory=list)
    t_max: float = 20.0
    run_comparison_flow: bool = False
    run_psi_family: bool = False
    psi_times: list = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0])
    monitors: list | None = None
    seed: int = 0
    dt_cap: float = 0.02
    use_integrating_factor: bool = True

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidScenarioError(f"config is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise InvalidScenarioError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise InvalidScenarioError(f"unknown config keys: {sorted(unknown)}")
        missing = {"name", "n", "N", "A0", "Ainf"} - set(data)
        if missing:
            raise InvalidScenarioError(f"missing config keys: {sorted(missing)}")
        return cls(**data)


def matrix_from_rows(rows, n: int, what: str) -> np.ndarray:
    try:
        M = np.array(
            [[complex(float(e[0]), float(e[1])) for e in row] for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, ValueError, IndexError) as e:
        raise InvalidScenarioError(f"{what}: entries must be [re, im] pairs ({e})") from e
    if M.shape != (n, n):
        raise InvalidScenarioError(f"{what}: expected {n}x{n} matrix, got {M.shape}")
    try:
        check_hermitian(M, what)
    except ValueError as e:
        raise InvalidScenarioError(str(e)) from e
    return M


def matrix_to_rows(M: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in M]


def _parse_modes(modes, n: int, what: str):
    out = []
    for term in modes:
        if isinstance(term, dict):
            mvec, amp, phase = term.get("mode"), term.get("amp"), term.get("phase", 0.0)
        else:
            if len(term) == 2:
                (mvec, amp), phase = term, 0.0
            else:
                mvec, amp, phase = term
        if mvec is None or amp is None:
            raise InvalidScenarioError(f"{what}: each term needs 'mode' and 'amp'")
        mvec = [int(m) for m in mvec]
        if len(mvec) != 2 * n:
            raise InvalidScenarioError(
                f"{what}: mode vector {mvec} must have {2 * n} components"
            )
        if max((abs(m) for m in mvec), default=0) > 8:
            raise InvalidScenarioError(f"{what}: mode {mvec} beyond supported band limit")
        amp = float(amp)
        if abs(amp) > 0.5:
            raise InvalidScenarioError(f"{what}: amplitude {amp} above admissibility cap")
        out.append((tuple(mvec), amp, float(phase)))
    return out


def validate(scenario: Scenario) -> None:
    s = scenario
    if s.n not in (1, 2):
        raise InvalidScenarioError(f"n must be 1 or 2, got {s.n}")
    if s.N < 8 or s.N % 2:
        raise InvalidScenarioError(f"N must be even and >= 8, got {s.N}")
    if not (0.0 < s.t_max <= 200.0):
        raise InvalidScenarioError(f"t_max out of range: {s.t_max}")
    if not (0 <= int(s.seed) < 2**64):
        raise InvalidScenarioError(f"seed out of u64 range: {s.seed}")
    # a non-positive cap would step at the 1e-12 floor forever
    if (isinstance(s.dt_cap, bool) or not isinstance(s.dt_cap, (int, float))
            or not (math.isfinite(s.dt_cap) and s.dt_cap > 0.0)):
        raise InvalidScenarioError(f"dt_cap must be a positive finite number, got {s.dt_cap!r}")
    A0 = matrix_from_rows(s.A0, s.n, "A0")
    if np.linalg.eigvalsh(A0).min() <= 0:
        raise InvalidScenarioError("A0 must be positive definite")
    matrix_from_rows(s.Ainf, s.n, "Ainf")
    _parse_modes(s.phi0, s.n, "phi0")
    _parse_modes(s.phi_inf, s.n, "phi_inf")
    _parse_modes(s.log_h, s.n, "log_h")
    if s.run_psi_family:
        for t in s.psi_times:
            if not (0.0 <= float(t) <= s.t_max):
                raise InvalidScenarioError(f"psi time {t} outside [0, t_max]")


def build_problem(scenario: Scenario) -> FlowProblem:
    """Assemble the flow problem; admissibility of the initial metric is
    checked during construction."""
    validate(scenario)
    s = scenario
    grid = GridSpec(s.n, s.N)
    A0 = matrix_from_rows(s.A0, s.n, "A0")
    Ainf = matrix_from_rows(s.Ainf, s.n, "Ainf")
    phi0 = synthesize(grid, _parse_modes(s.phi0, s.n, "phi0"))
    phi_inf = synthesize(grid, _parse_modes(s.phi_inf, s.n, "phi_inf"))
    log_h = synthesize(grid, _parse_modes(s.log_h, s.n, "log_h"))
    omega = VolumeDensity(ScalarField(grid, np.exp(log_h.values)))
    try:
        return FlowProblem(KahlerForm(A0, phi0), KahlerForm(Ainf, phi_inf), omega)
    except Exception as e:
        raise InvalidScenarioError(f"inadmissible scenario: {e}") from e


def run_options(scenario: Scenario) -> RunOptions:
    return RunOptions(
        t_max=scenario.t_max,
        run_comparison=scenario.run_comparison_flow,
        use_integrating_factor=scenario.use_integrating_factor,
        dt_cap=scenario.dt_cap,
        collect_uhat_snaps=True,
    )


PRESETS = {
    "kahler-limit": Scenario(
        name="kahler-limit",
        n=1,
        N=64,
        A0=[[[1.0, 0.0]]],
        Ainf=[[[1.0, 0.0]]],
        phi0=[{"mode": [1, 0], "amp": 0.01}],
        log_h=[
            {"mode": [1, 0], "amp": 0.10},
            {"mode": [0, 1], "amp": 0.06, "phase": 1.0},
        ],
        t_max=20.0,
    ),
    "finite-time": Scenario(
        name="finite-time",
        n=2,
        N=16,
        A0=matrix_to_rows(np.eye(2)),
        Ainf=matrix_to_rows(np.diag([2.0, -1.0])),
        phi0=[
            {"mode": [1, 0, 0, 0], "amp": 0.02},
            {"mode": [0, 1, 0, 0], "amp": 0.012, "phase": 0.7},
        ],
        t_max=5.0,
    ),
    "collapsed": Scenario(
        name="collapsed",
        n=2,
        N=16,
        A0=matrix_to_rows(np.eye(2)),
        Ainf=matrix_to_rows(np.diag([1.0, 0.0])),
        phi0=[
            {"mode": [1, 0, 0, 0], "amp": 0.02},
            {"mode": [0, 1, 1, 0], "amp": 0.008},
            {"mode": [0, 0, 1, 0], "amp": 0.01},
        ],
        t_max=30.0,
        run_comparison_flow=True,
        run_psi_family=True,
        psi_times=[0.0, 5.0, 10.0, 15.0, 20.0],
        dt_cap=0.05,
    ),
}


def load_scenario(preset: str | None = None, config_path=None) -> Scenario:
    if (preset is None) == (config_path is None):
        raise InvalidScenarioError("exactly one of --preset and --config is required")
    if preset is not None:
        if preset not in PRESETS:
            raise InvalidScenarioError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        sc = PRESETS[preset]
        return Scenario.from_json(sc.to_json())  # defensive copy via round-trip
    try:
        text = open(config_path, "r", encoding="utf-8").read()
    except OSError as e:
        raise InvalidScenarioError(f"cannot read config: {e}") from e
    return Scenario.from_json(text)
