"""Minimum-cost interval resource allocation.

Solvers for partial coverage (cover k of the jobs) and prize-collecting
coverage (pay penalties for skipped jobs) over a discrete timeline, plus
exact brute-force oracles for checking them.
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
    covers,
    is_feasible,
    job_profile,
    make_instance,
    multiset_cost,
    multiset_profile,
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
from .mountains import (
    Decomposition,
    Mountain,
    MountainRange,
    candidate_exclusions,
    decompose,
    single_mountain_solve,
    verify_mountain_range,
)
from .oracle import oracle_lspc, oracle_partial, oracle_prize
from .pipeline import (
    RANGE_FACTOR,
    PartialSolveResult,
    solve_partial,
    solve_prize,
)
from .reductions import (
    build_lspc,
    lift_lspc,
    lift_smfc,
    lift_split,
    pc_to_smfc,
    smfc_solve_exact,
    split_narrow_wide,
)

__all__ = [
    "INFEASIBLE",
    "BudgetExceeded",
    "CoverPlan",
    "Decomposition",
    "FullCoverResult",
    "Instance",
    "Job",
    "LspcInstance",
    "LspcResult",
    "LspcSolution",
    "LspcSolver",
    "Mountain",
    "MountainRange",
    "PartialSolution",
    "PartialSolveResult",
    "PrizeSolveResult",
    "RANGE_FACTOR",
    "Resource",
    "ShortResource",
    "SolveResult",
    "build_lspc",
    "candidate_exclusions",
    "covers",
    "decompose",
    "full_cover",
    "is_feasible",
    "job_profile",
    "lift_lspc",
    "lift_smfc",
    "lift_split",
    "make_instance",
    "multiset_cost",
    "multiset_profile",
    "oracle_lspc",
    "oracle_partial",
    "oracle_prize",
    "pc_to_smfc",
    "single_mountain_solve",
    "smfc_solve_exact",
    "solve_partial",
    "solve_prize",
    "split_narrow_wide",
    "verify_lspc",
    "verify_mountain_range",
    "verify_partial",
    "verify_prize",
]
