"""flagopt: accelerated augmented-Lagrangian methods for linearly constrained
convex problems, with niceness certificates and convergence-rate verification.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    DegenerateSubproblemError,
    FlagoptError,
    NotNiceError,
    NumericalError,
    UnreliableReferenceError,
)
from .problems import (
    BlockProblem,
    Box,
    ConstrainedProblem,
    L1,
    Quadratic,
    Separable,
    SmoothTerm,
    Zero,
    eval_objective,
    feasibility_residual,
    flatten_block,
    load_problem,
    save_problem,
)
from .maps import (
    MAP_KINDS,
    MapConfig,
    NiceCertificate,
    StepPlan,
    certificate,
    make_config,
    prim_step,
    sample_niceness,
)
from .driver import RunParams, Trajectory, run, trajectory_from_csv
from .gen import GenSpec, generate
from .rates import (
    ReferenceSolution,
    bound_constant,
    kkt_residual,
    reference_solve,
    verify_rates,
)

__all__ = [
    "BlockProblem",
    "Box",
    "ConfigError",
    "ConstrainedProblem",
    "DataError",
    "DegenerateSubproblemError",
    "FlagoptError",
    "GenSpec",
    "L1",
    "MAP_KINDS",
    "MapConfig",
    "NiceCertificate",
    "NotNiceError",
    "NumericalError",
    "Quadratic",
    "ReferenceSolution",
    "RunParams",
    "Separable",
    "SmoothTerm",
    "StepPlan",
    "Trajectory",
    "UnreliableReferenceError",
    "Zero",
    "bound_constant",
    "certificate",
    "eval_objective",
    "feasibility_residual",
    "flatten_block",
    "generate",
    "kkt_residual",
    "load_problem",
    "make_config",
    "prim_step",
    "reference_solve",
    "run",
    "sample_niceness",
    "save_problem",
    "trajectory_from_csv",
    "verify_rates",
    "__version__",
]
