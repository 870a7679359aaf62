"""Minimum-cost interval resource allocation.

Solvers for partial coverage (cover k of the jobs) and prize-collecting
coverage (pay penalties for skipped jobs) over a discrete timeline, plus
exact brute-force oracles for checking them. The pipeline's layers
(mountains, reductions) are imported from their own modules.
"""

from .core import (
    INFEASIBLE,
    BudgetExceeded,
    Instance,
    Job,
    PartialSolution,
    PrizeSolveResult,
    Resource,
    SolveResult,
    is_feasible,
    make_instance,
    verify_partial,
    verify_prize,
)
from .fullcover import CoverPlan, FullCoverResult, full_cover
from .lspc import (
    LspcInstance,
    LspcResult,
    LspcSolution,
    LspcSolver,
    ShortResource,
    verify_lspc,
)
from .oracle import oracle_lspc, oracle_partial, oracle_prize
from .pipeline import (
    RANGE_FACTOR,
    PartialSolveResult,
    solve_partial,
    solve_prize,
)

__all__ = [
    "INFEASIBLE",
    "BudgetExceeded",
    "CoverPlan",
    "FullCoverResult",
    "Instance",
    "Job",
    "LspcInstance",
    "LspcResult",
    "LspcSolution",
    "LspcSolver",
    "PartialSolution",
    "PartialSolveResult",
    "PrizeSolveResult",
    "RANGE_FACTOR",
    "Resource",
    "ShortResource",
    "SolveResult",
    "full_cover",
    "is_feasible",
    "make_instance",
    "oracle_lspc",
    "oracle_partial",
    "oracle_prize",
    "solve_partial",
    "solve_prize",
    "verify_lspc",
    "verify_partial",
    "verify_prize",
]
