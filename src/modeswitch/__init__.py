"""Two-modes switch/terminate valuation on the full balance sheet.

Solves the coupled system of four reflected backward equations in which the
expected profit and expected cost of each operating mode act as each other's
barriers (switch to the other mode or terminate, on either side of the
balance sheet), in one backward pass with a per-step barrier projection
(``solve_system``); the paper's Picard iteration (``picard_system``) is the
reference. Ships a closed-form non-uniqueness fixture, a residual auditor,
stopping-rule extraction with forward policy replay, and a CLI.
"""

from .grid import FieldSurface, Lattice, TimeGrid, make_backend
from .model import (
    COMPONENTS,
    MINUS,
    PLUS,
    CoefficientFunction,
    Driver,
    ProblemError,
    SwitchingProblem,
    Terminal,
    evaluate_obstacles,
    validate_assumptions,
)
from .rbsde import (
    RbsdeSolution,
    solve_bsde,
    solve_rbsde_lower,
    solve_rbsde_upper,
)
from .scheme import (
    BalanceSheetSolution,
    ConvergenceTrace,
    LocalSweepError,
    PassTrace,
    SchemeError,
    picard_system,
    solve_system,
)
from .strategy import StrategyReport, classify_action, extract_stopping_times, simulate_policy
from .verify import (
    ClosedFormFamily,
    ResidualReport,
    audit_solution,
    check_nonuniqueness,
    closed_form_family,
    counterexample_problem,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceSheetSolution",
    "COMPONENTS",
    "ClosedFormFamily",
    "CoefficientFunction",
    "ConvergenceTrace",
    "Driver",
    "FieldSurface",
    "Lattice",
    "LocalSweepError",
    "MINUS",
    "PLUS",
    "PassTrace",
    "ProblemError",
    "RbsdeSolution",
    "ResidualReport",
    "SchemeError",
    "StrategyReport",
    "SwitchingProblem",
    "Terminal",
    "TimeGrid",
    "audit_solution",
    "check_nonuniqueness",
    "classify_action",
    "closed_form_family",
    "counterexample_problem",
    "evaluate_obstacles",
    "extract_stopping_times",
    "make_backend",
    "picard_system",
    "simulate_policy",
    "solve_bsde",
    "solve_rbsde_lower",
    "solve_rbsde_upper",
    "solve_system",
    "validate_assumptions",
]
