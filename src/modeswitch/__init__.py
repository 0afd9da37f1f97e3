"""Two-modes switch/terminate valuation on the full balance sheet.

Solves the coupled system of four reflected backward equations in which the
expected profit and expected cost of each operating mode act as each other's
barriers (switch to the other mode or terminate, on either side of the
balance sheet), in one backward pass with a per-step barrier projection
(``solve_system``), certified a fixed point of the paper's Picard iteration.
Ships a closed-form non-uniqueness fixture, a residual auditor,
stopping-rule extraction with forward policy replay, and a CLI.

The public names below are resolved lazily (PEP 562): ``import modeswitch``
loads no submodule, and the first use of a name loads the one module that
defines it, so a command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("grid", "Lattice"),
        (
            "model",
            "COMPONENTS MINUS PLUS CoefficientFunction Driver LocalSweepError ProblemError SchemeError "
            "SwitchingProblem Terminal evaluate_obstacles validate_assumptions",
        ),
        ("scheme", "BalanceSheetSolution PassTrace solve_system"),
        ("strategy", "StrategyReport classify_action extract_stopping_times simulate_policy"),
        ("verify", "ClosedFormFamily ResidualReport audit_solution check_nonuniqueness counterexample_problem"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
