"""Numerical laboratory for Kahler-Ricci-type potential flows on flat complex tori.

Simulates the drifting-class potential flow, its collapsed-case rescaling and
the normalized comparison flow, solves the limiting Monge-Ampere equation by
damped Newton iteration, and checks the quantitative a-priori estimates of
all three singularity regimes as runtime monitors.
"""

from .geometry import (
    ClassPath,
    KahlerForm,
    Regime,
    SingularMetricError,
    VolumeDensity,
    class_volume,
    compute_T,
    flow_laplacian,
    ma_density,
    trace_pair,
)
from .grid import (
    GridSpec,
    ScalarField,
    complex_hessian,
    mean,
    read_snapshot,
    synthesize,
    write_snapshot,
)
from .elliptic import EllipticProblem, NewtonReport, solve_cy, solve_psi_family
from .flow import (
    FlowProblem,
    RunResult,
    normalization_constant,
    run_flow,
)
from .monitors import (
    MonitorResult,
    check_collapsed,
    check_convergence,
    check_core,
    check_finite_time,
)
from .scenario import PRESETS, InvalidScenarioError, Scenario, build_problem

__version__ = "0.1.0"
