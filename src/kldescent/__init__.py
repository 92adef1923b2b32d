"""Nonmonotone proximal descent solvers with framework audits.

Two line-search solvers built on a shared nonmonotone acceptance window --
a majorized proximal scheme for objectives with a concave term and an
extrapolated proximal-gradient scheme for convex-penalty composites -- plus
a diagnostics engine that replays finished traces against the descent
framework's conditions and fits tail convergence rates.
"""

from ._version import __version__
from .catalog import ProblemInstance, describe_problems, make_problem, problem_ids
from .diagnostics import (
    DiagnosticsReport,
    build_report,
    c_constant,
    check_acceptance,
    check_h1,
    check_h3,
    check_h4,
    check_prop_bound,
    estimate_bbar,
    fit_decay,
    fit_rate,
    theta_dc,
    xi_gamma,
)
from .errors import (
    BacktrackingFailureError,
    FrameworkViolationError,
    InsufficientTraceError,
    InvalidInputError,
    KlDescentError,
    LogicError,
    OracleInconsistencyError,
)
from .memory import MemoryWindow
from .npg import NpgConfig, npg_solve
from .oracles import (
    CompositeProblem,
    ConvexOracle,
    ProxOracle,
    SmoothOracle,
    l0_oracle,
    l1_oracle,
    l2_norm_oracle,
    make_least_squares,
    make_power4_1d,
    zero_oracle,
)
from .pgenls import PgenlsConfig, inner_schedule, pgenls_solve
from .trace import IterateRecord, Trace, read_trace_csv, write_trace_csv

__all__ = [
    "__version__",
    "BacktrackingFailureError", "CompositeProblem", "ConvexOracle",
    "DiagnosticsReport", "FrameworkViolationError", "InsufficientTraceError",
    "InvalidInputError", "IterateRecord", "KlDescentError", "LogicError",
    "MemoryWindow", "NpgConfig", "OracleInconsistencyError", "PgenlsConfig",
    "ProblemInstance", "ProxOracle", "SmoothOracle", "Trace",
    "build_report", "c_constant", "check_acceptance", "check_h1", "check_h3",
    "check_h4", "check_prop_bound", "describe_problems", "estimate_bbar",
    "fit_decay", "fit_rate", "inner_schedule", "l0_oracle", "l1_oracle",
    "l2_norm_oracle", "make_least_squares", "make_power4_1d", "make_problem",
    "npg_solve", "pgenls_solve", "problem_ids", "read_trace_csv", "theta_dc",
    "write_trace_csv", "xi_gamma", "zero_oracle",
]
