"""Scenario configuration: explicit-key JSON configs, validation, presets.

Matrices are written as rows of [re, im] pairs and potentials as cosine mode
lists, so experiment files are diffable and round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .elliptic import EllipticProblem
from .flow import FlowProblem
from .geometry import (
    POSITIVITY_EPS,
    KahlerForm,
    Regime,
    SingularMetricError,
    VolumeDensity,
    check_hermitian,
    compute_T,
)
from .grid import GridSpec, ScalarField, synthesize


# Largest grid a scenario may ask for, in points N**(2n).  A real field of
# this size takes 8 MiB and a flow workspace or a Newton solve holds a few
# dozen of them; the shipped presets and benchmark scenarios reach at most
# n=2, N=24 (331,776 points).
MAX_GRID_POINTS = 2**20


class InvalidScenarioError(Exception):
    """Configuration rejected; message names the offending field."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_finite_number(x) -> bool:
    """True for an int or float (not a bool) with a finite float value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


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
    dt_cap: float = 0.02

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:
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


def _is_pair(e) -> bool:
    return isinstance(e, (list, tuple)) and len(e) == 2 and all(map(is_finite_number, e))


def matrix_from_rows(rows, n: int, what: str) -> np.ndarray:
    seq = (list, tuple)
    if not (isinstance(rows, seq)
            and all(isinstance(row, seq) and all(map(_is_pair, row)) for row in rows)):
        raise InvalidScenarioError(
            f"{what}: entries must be [re, im] pairs of finite numbers, got {rows!r}")
    try:
        M = np.array(
            [[complex(float(e[0]), float(e[1])) for e in row] for row in rows],
            dtype=np.complex128,
        )
    except ValueError as e:  # ragged rows
        raise InvalidScenarioError(f"{what}: expected {n}x{n} matrix ({e})") from e
    if M.shape != (n, n):
        raise InvalidScenarioError(f"{what}: expected {n}x{n} matrix, got {M.shape}")
    try:
        check_hermitian(M, what)
    except ValueError as e:
        raise InvalidScenarioError(str(e)) from e
    return M


def matrix_to_rows(M: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in M]


def _parse_modes(modes, n: int, N: int, what: str):
    if not isinstance(modes, (list, tuple)):
        raise InvalidScenarioError(f"{what}: expected a list of mode terms, got {modes!r}")
    out = []
    for term in modes:
        if isinstance(term, dict) and set(term) <= {"mode", "amp", "phase"}:
            mvec, amp, phase = term.get("mode"), term.get("amp"), term.get("phase", 0.0)
        elif isinstance(term, (list, tuple)) and len(term) in (2, 3):
            mvec, amp, phase = (*term, 0.0)[:3]
        else:
            raise InvalidScenarioError(
                f"{what}: each term is {{mode, amp[, phase]}} or [mode, amp[, phase]],"
                f" got {term!r}")
        if mvec is None or amp is None:
            raise InvalidScenarioError(f"{what}: each term needs 'mode' and 'amp'")
        if not (isinstance(mvec, (list, tuple)) and all(map(_is_int, mvec))):
            raise InvalidScenarioError(f"{what}: mode vector must list integers, got {mvec!r}")
        if not (is_finite_number(amp) and is_finite_number(phase)):
            raise InvalidScenarioError(
                f"{what}: amp and phase must be finite numbers, got {amp!r}, {phase!r}")
        if len(mvec) != 2 * n:
            raise InvalidScenarioError(
                f"{what}: mode vector {mvec} must have {2 * n} components"
            )
        # N points alias |m| > N/2 to a lower mode, and the spectral Hessian
        # zeroes the Nyquist mode N/2
        if max((abs(m) for m in mvec), default=0) >= min(9, N // 2):
            raise InvalidScenarioError(f"{what}: mode {mvec} beyond the band limit (|m| <= 8"
                                       f" and below the Nyquist frequency {N // 2} of N={N})")
        amp = float(amp)
        if abs(amp) > 0.5:
            raise InvalidScenarioError(f"{what}: amplitude {amp} above admissibility cap")
        out.append((tuple(mvec), amp, float(phase)))
    return out


def validate(scenario: Scenario) -> dict:
    """Check every field's type and range; raise InvalidScenarioError naming
    the first bad field.  Builds no grid; returns what it parsed by field
    name, the matrices A0 and Ainf and the mode lists phi0, phi_inf, log_h."""
    s = scenario
    if not isinstance(s.name, str):
        raise InvalidScenarioError(f"name must be a string, got {s.name!r}")
    if not _is_int(s.n) or s.n not in (1, 2):
        raise InvalidScenarioError(f"n must be 1 or 2, got {s.n!r}")
    if not _is_int(s.N) or s.N < 8 or s.N % 2:
        raise InvalidScenarioError(f"N must be an even integer >= 8, got {s.N!r}")
    if s.N ** (2 * s.n) > MAX_GRID_POINTS:
        raise InvalidScenarioError(
            f"N={s.N} at n={s.n} exceeds the grid budget of {MAX_GRID_POINTS} points"
            " (N**(2n))")
    if not is_finite_number(s.t_max) or not (0.0 < s.t_max <= 200.0):
        raise InvalidScenarioError(f"t_max must be a number in (0, 200], got {s.t_max!r}")
    for key in ("run_comparison_flow", "run_psi_family"):
        if not isinstance(getattr(s, key), bool):
            raise InvalidScenarioError(f"{key} must be true or false, got {getattr(s, key)!r}")
    if (not isinstance(s.psi_times, (list, tuple))
            or not all(map(is_finite_number, s.psi_times))):
        raise InvalidScenarioError(
            f"psi_times must be a list of finite numbers, got {s.psi_times!r}")
    # a non-positive cap would step at the 1e-12 floor forever
    if not is_finite_number(s.dt_cap) or s.dt_cap <= 0.0:
        raise InvalidScenarioError(f"dt_cap must be a positive finite number, got {s.dt_cap!r}")
    # the floor of every later positivity test: A0 + H[phi0] can pass only above it
    parsed = {"A0": matrix_from_rows(s.A0, s.n, "A0")}
    _check_definite(parsed["A0"], "A0")
    parsed["Ainf"] = matrix_from_rows(s.Ainf, s.n, "Ainf")
    for key in ("phi0", "phi_inf", "log_h"):
        parsed[key] = _parse_modes(getattr(s, key), s.n, s.N, key)
    if s.run_psi_family:
        path = compute_T(parsed["A0"], parsed["Ainf"])
        for t in s.psi_times:
            if not (0.0 <= t <= s.t_max):
                raise InvalidScenarioError(f"psi_times: {t} outside [0, t_max]")
            # each psi solve needs its class above the floor solve_cy requires;
            # a collapsing class falls below it at t ~ log(1 / POSITIVITY_EPS)
            if path.regime == Regime.COLLAPSED:
                _check_definite(path.A_t(t), f"psi_times: the class A_t at t={t:g}")
    return parsed


def _check_definite(A: np.ndarray, what: str) -> None:
    """Raise InvalidScenarioError naming what unless A's smallest eigenvalue
    exceeds POSITIVITY_EPS."""
    lam = float(np.linalg.eigvalsh(A).min())
    if not lam > POSITIVITY_EPS:
        raise InvalidScenarioError(f"{what}: must be positive definite (smallest eigenvalue"
                                   f" {lam:.3e} <= {POSITIVITY_EPS:g})")


def _form(parsed: dict, grid: GridSpec, A_key: str, phi_key: str) -> KahlerForm:
    """The parsed class A_key with the potential phi_key."""
    return KahlerForm(parsed[A_key], synthesize(grid, parsed[phi_key]))


def _density(parsed: dict, grid: GridSpec) -> VolumeDensity:
    return VolumeDensity(ScalarField(grid, np.exp(synthesize(grid, parsed["log_h"]).values)))


def _grid(scenario: Scenario, parsed: dict) -> GridSpec:
    """The scenario's grid, with one point on both real axes of every complex
    direction z_j that no mode of phi0, phi_inf or log_h varies along.

    The flow, the Monge-Ampere equation and every monitor commute with
    translations of the torus, so data constant along z_j keep every field
    constant along it for all t, whatever the class matrices; the one-point
    axes give the numbers of the full grid up to round-off, and the output
    files broadcast them back to N points (grid.write_snapshot).
    """
    used = {a // 2 for key in ("phi0", "phi_inf", "log_h")
            for mvec, _, _ in parsed[key] for a, m in enumerate(mvec) if m}
    return GridSpec(scenario.n, scenario.N,
                    frozenset(a for a in range(2 * scenario.n) if a // 2 not in used))


def build_problem(scenario: Scenario) -> FlowProblem:
    """Assemble the flow problem on the scenario's grid (_grid); admissibility
    of the initial metric is checked during construction."""
    parsed = validate(scenario)
    grid = _grid(scenario, parsed)
    try:
        return FlowProblem(_form(parsed, grid, "A0", "phi0"),
                           _form(parsed, grid, "Ainf", "phi_inf"), _density(parsed, grid))
    except SingularMetricError as e:
        raise InvalidScenarioError(f"phi0: inadmissible scenario: {e}") from e


def build_limit_problem(scenario: Scenario) -> EllipticProblem:
    """The limit equation det(Ainf + H[phi_inf] + H[U]) = c h of a scenario,
    with the density h = exp(log_h) of its flow problem and on its grid
    (_grid); builds nothing else.

    Ainf must be positive definite above POSITIVITY_EPS, as solve_cy
    requires, and A0 + H[phi0] a metric, the check build_problem makes (it
    needs no transform when phi0 is empty); the Newton solve rejects a limit
    form that is not a metric.
    """
    parsed = validate(scenario)
    _check_definite(parsed["Ainf"], "Ainf")
    grid = _grid(scenario, parsed)
    try:
        _form(parsed, grid, "A0", "phi0").check_metric(t=0.0)
    except SingularMetricError as e:
        raise InvalidScenarioError(f"phi0: inadmissible scenario: {e}") from e
    return EllipticProblem.compatible(_form(parsed, grid, "Ainf", "phi_inf"),
                                      _density(parsed, grid))


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


def load_scenario(preset: str | None, config_path) -> Scenario:
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
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidScenarioError(f"cannot read config: {e}") from e
    return Scenario.from_json(text)
