"""Solvers for nonsmooth convex-concave minimax problems with joint linear constraints."""

from .errors import (
    ConfigurationError,
    DivergenceError,
    FrameworkError,
    JointmmError,
    SingularConstraintError,
)
from .numerics import operator_norm
from .problem import (
    BudgetConstants,
    MinimaxProblem,
    ProblemConstants,
    Residuals,
    compute_budget_constants,
    compute_constants,
    feas,
    grad_x,
    grad_y,
    load_problem_manifest,
    residuals,
)
from .prox import (
    ConeSpec,
    ProxOperator,
    SmoothOracle,
    project_l1cone,
    project_polar,
    project_soc,
    prox_eval,
)
from .solver import (
    FrameworkResult,
    IterateState,
    SolveResult,
    SolverConfig,
    inner_ascent,
    outer_step,
    plan_budget,
    project_feasible,
    run_framework,
    run_pgmsad,
)
from .apps import (
    GaveConfig,
    GaveInstance,
    GaveResult,
    GlpeConfig,
    GlpeInstance,
    GlpeResult,
    LinRegInstance,
    builtin_gave,
    builtin_gave_config,
    builtin_glpe,
    make_linreg,
    run_gave,
    run_glpe,
    run_linreg,
)

__version__ = "0.1.0"
