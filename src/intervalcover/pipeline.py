"""Top-level solvers for the partial and prize-collecting problems.

Partial coverage: decompose the jobs into mountain ranges, solve every
(range, kappa) subproblem through the split -> collapse -> long/short
pipeline, then stitch ranges together with a table over "cover kappa
jobs using the first q ranges". Each range solve is certified within a
factor of 384 of that range's optimum (3 for the narrow/wide split
times 8 for pricing shorts via extremal exclusion times 16 for the
SLRA restriction), so the stitched solution is within 384 * L of the
overall optimum for L ranges.

Prize collecting: reduce to a full cover of every job in which each job
may also be picked once, as one unit of capacity priced at its penalty,
beside the resources in unlimited copies; solve that exactly and lift
back, leaving the picked jobs uncovered. The reduction preserves costs
in both directions, so the result is exactly optimal. The exact search
skips the sets of uncovered jobs that cannot be feasible: a job touching
a slot that no resource covers is always left uncovered. A prefix of the
walk over the sets of uncovered jobs is dropped once a lower bound on
every set it starts reaches the best total found so far, and each cover
of the remaining jobs is pruned against that total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EMPTY_SOLUTION,
    INFEASIBLE,
    Cost,
    Instance,
    PartialSolution,
    PrizeSolveResult,
    SolveResult,
    is_feasible,
    multiset_cost,
)
from .lspc import LspcSolver
from .mountains import MountainRange, decompose
from .reductions import (
    build_lspc,
    lift_lspc,
    lift_smfc,
    lift_split,
    pc_to_smfc,
    smfc_solve_exact,
    split_narrow_wide,
)

RANGE_FACTOR = 384  # certified per-range approximation factor (3 * 8 * 16)


class _RangePipeline:
    """Split and collapse once per range; solve per kappa on shared tables."""

    def __init__(self, inst: Instance, rng: MountainRange):
        self.inst = inst
        self.rng = rng
        self.derived, self.split_map = split_narrow_wide(rng, inst.resources)
        self.build = build_lspc(rng, inst.jobs, self.derived, inst.T)
        self.solver = LspcSolver(self.build.instance)

    def solve(self, kappa: int) -> SolveResult:
        """Cover at least kappa jobs of the range, within RANGE_FACTOR of
        that subproblem's optimum."""
        if kappa == 0:
            return SolveResult(0, EMPTY_SOLUTION)
        lres = self.solver.solve_for(kappa)
        if lres.solution is None:
            return SolveResult(INFEASIBLE, None)
        lifted_d = lift_lspc(lres.solution, self.build, self.rng, self.derived)
        lifted_o = lift_split(lifted_d, self.split_map)
        return SolveResult(multiset_cost(lifted_o.counts, self.inst.resources), lifted_o)


@dataclass(frozen=True, slots=True)
class PartialSolveResult:
    cost: Cost
    solution: PartialSolution | None
    num_ranges: int
    # certified approximation factor: RANGE_FACTOR * num_ranges, and 1 for
    # k = 0, where the empty solution is optimal
    bound_factor: int


def solve_partial(inst: Instance) -> PartialSolveResult:
    """Cover at least k jobs of the instance at small cost.

    The emitted solution is the union of per-range solutions chosen by
    a table over (ranges used, jobs covered); its cost is certified to
    be within RANGE_FACTOR * L of the optimum, L being the number of
    ranges in the decomposition.
    """
    if inst.k is None:
        raise ValueError("instance has no partiality parameter k")
    k = inst.k
    if k == 0:
        return PartialSolveResult(0, EMPTY_SOLUTION, 0, 1)

    decomp = decompose(inst.jobs)
    L = decomp.L
    range_solutions: list[list[SolveResult]] = []
    for rng in decomp.ranges:
        pipe = _RangePipeline(inst, rng)
        size = len(rng.job_ids())
        range_solutions.append([pipe.solve(kappa) for kappa in range(min(k, size) + 1)])

    # dp[q][kappa]: cheapest way to cover kappa jobs using ranges 1..q
    dp: list[list[Cost]] = [[0] + [INFEASIBLE] * k]
    choice: list[list[int | None]] = [[None] * (k + 1)]
    for q in range(1, L + 1):
        row_cost: list[Cost] = [INFEASIBLE] * (k + 1)
        row_choice: list[int | None] = [None] * (k + 1)
        avail = len(range_solutions[q - 1]) - 1
        for kappa in range(k + 1):
            best: Cost = INFEASIBLE
            best_kp = None
            for kp in range(min(kappa, avail) + 1):
                total = dp[q - 1][kappa - kp] + range_solutions[q - 1][kp].cost
                if total < best:
                    best = total
                    best_kp = kp
            row_cost[kappa] = best
            row_choice[kappa] = best_kp
        dp.append(row_cost)
        choice.append(row_choice)

    final = dp[L][k]
    if not is_feasible(final):
        return PartialSolveResult(INFEASIBLE, None, L, RANGE_FACTOR * L)

    counts: dict[int, int] = {}
    covered: set[int] = set()
    kappa = k
    for q in range(L, 0, -1):
        kp = choice[q][kappa]
        sol = range_solutions[q - 1][kp].solution
        for rid, cnt in sol.counts.items():
            counts[rid] = counts.get(rid, 0) + cnt
        covered |= sol.covered
        kappa -= kp
    solution = PartialSolution(counts, frozenset(covered))
    return PartialSolveResult(final, solution, L, RANGE_FACTOR * L)


def solve_prize(inst: Instance) -> PrizeSolveResult:
    """Exactly optimal prize-collecting solution: resource cost plus the
    penalties of the uncovered jobs is minimized."""
    smfc = pc_to_smfc(inst)
    res = smfc_solve_exact(smfc)
    if not is_feasible(res.cost):
        return PrizeSolveResult(INFEASIBLE, None)
    return PrizeSolveResult(res.cost, lift_smfc(res, smfc))
