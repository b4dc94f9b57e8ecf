"""Augmented Lagrangian solver with iteration-complexity certification."""

from .problems import (
    ConstraintSet,
    ObjectiveOracle,
    ProblemSpec,
    ValidationReport,
    corpus,
    corpus_problem,
    load_problem,
    validate,
)
from .core import (
    Penalty,
    ThetaStat,
    lagrangian_grad,
    mu_norm,
    theta,
    update_multipliers,
    update_penalty,
)
from .inner import InnerResult, InnerTask, cubic_newton_solve, gd_solve
from .outer import KKTReport, RunReport, SolverConfig, kkt_check, solve, warm_start
from .complexity import (
    BoundInputs,
    bound_T_bounded,
    bound_T_unbounded,
    certify_run,
    fit_growth,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
