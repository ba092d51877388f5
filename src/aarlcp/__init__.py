"""Affine decision rules for linear complementarity under polyhedral uncertainty.

The package answers one question: given a square system whose data shifts
with an uncertain vector ranging over a compact polyhedron, is there an
affine rule for the decision that satisfies nonnegativity and
complementarity for every point of the set?  The search runs over binary
support vectors with LP relaxations at every node, and starts at the one
support a positive semidefinite matrix forces; verification, exhaustive
enumeration, a free-variable extension, and a big-M text export round out
the toolkit.
"""

from .core import (
    EPS_FEAS,
    EPS_ZERO,
    Instance,
    MixedExtension,
    Policy,
    ValidationReport,
    rref_kernel_basis,
    validate,
)
from .errors import (
    AarlcpError,
    DimensionMismatch,
    EmptyUncertaintySet,
    NodeLimitExceeded,
    NotCompact,
    NotPsd,
    NumericalFailure,
    OracleLimitExceeded,
    RelintViolation,
)
from .linhull import LinHullBasis, compute_lin_hull
from .lp import LpModel, LpResult, LpStatus, lp_feasible, lp_solve
from .export import (
    MilpModel,
    MilpRow,
    ParsedLp,
    build_milp,
    default_big_m,
    export_milp,
    parse_lp_text,
)
from .milp import (
    NodeLpBuilder,
    SolveOptions,
    SolveReport,
    SolveStatus,
    UNFIXED,
    bnb_solve,
)
from .mixed import mixed_solve, verify_mixed
from .psd import (
    check_psd,
    compute_support_p,
    forced_support,
    lemke_nominal,
    psd_solve,
    solution_set_rows,
)
from .verify import VerifyReport, certify_affine, oracle_enumerate, verify_policy

__version__ = "0.1.0"

__all__ = [
    "AarlcpError",
    "DimensionMismatch",
    "EmptyUncertaintySet",
    "EPS_FEAS",
    "EPS_ZERO",
    "Instance",
    "LinHullBasis",
    "LpModel",
    "LpResult",
    "LpStatus",
    "MilpModel",
    "MilpRow",
    "MixedExtension",
    "NodeLimitExceeded",
    "NodeLpBuilder",
    "NotCompact",
    "NotPsd",
    "NumericalFailure",
    "OracleLimitExceeded",
    "ParsedLp",
    "Policy",
    "RelintViolation",
    "SolveOptions",
    "SolveReport",
    "SolveStatus",
    "UNFIXED",
    "ValidationReport",
    "VerifyReport",
    "bnb_solve",
    "build_milp",
    "certify_affine",
    "check_psd",
    "compute_lin_hull",
    "compute_support_p",
    "default_big_m",
    "export_milp",
    "forced_support",
    "lemke_nominal",
    "lp_feasible",
    "lp_solve",
    "mixed_solve",
    "oracle_enumerate",
    "parse_lp_text",
    "psd_solve",
    "rref_kernel_basis",
    "solution_set_rows",
    "validate",
    "verify_mixed",
    "verify_policy",
]
