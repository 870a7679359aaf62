"""Exact brute-force reference solvers at desk scale.

These exist to check the approximate solvers' bounds; they never feed
back into the solvers themselves. Each oracle enumerates its whole
search space (job subsets or coverage profiles) and completes every
branch with the exact full-cover search, so its answer is the true
optimum. Budgets are hard limits: exceeding one raises BudgetExceeded
with an explicit message rather than silently truncating the search,
because a wrong oracle would poison every ratio test built on it.

The INTERVALCOVER_BUDGET environment variable overrides the defaults,
e.g. ``INTERVALCOVER_BUDGET="partial=12,prize=14,lspc=200000"``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .core import (
    INFEASIBLE,
    BudgetExceeded,
    Instance,
    PartialSolution,
    PrizeSolveResult,
    SolveResult,
    job_profile,
)
from .fullcover import CoverPlan, full_cover
from .lspc import LspcInstance, LspcResult, LspcSolution

ENV_VAR = "INTERVALCOVER_BUDGET"


@dataclass(frozen=True)
class Budget:
    max_partial_jobs: int = 10
    max_prize_jobs: int = 12
    max_lspc_profiles: int = 100_000

    @staticmethod
    def from_env() -> "Budget":
        raw = os.environ.get(ENV_VAR, "").strip()
        if not raw:
            return Budget()
        values = {}
        for item in raw.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in ("partial", "prize", "lspc") or not val.strip().isdigit():
                raise ValueError(
                    f"{ENV_VAR} must look like 'partial=12,prize=14,lspc=200000', got {raw!r}")
            values[key] = int(val)
        return Budget(
            max_partial_jobs=values.get("partial", Budget.max_partial_jobs),
            max_prize_jobs=values.get("prize", Budget.max_prize_jobs),
            max_lspc_profiles=values.get("lspc", Budget.max_lspc_profiles),
        )


def oracle_partial(inst: Instance, budget: Budget | None = None) -> SolveResult:
    """True optimum for partial coverage: best full cover over all size-k
    job subsets."""
    if inst.k is None:
        raise ValueError("instance has no partiality parameter k")
    budget = budget or Budget.from_env()
    n = len(inst.jobs)
    if n > budget.max_partial_jobs:
        raise BudgetExceeded(
            f"{n} jobs exceed the subset-enumeration budget of {budget.max_partial_jobs}")
    plan = CoverPlan(inst.resources, inst.T)
    best_cost = INFEASIBLE
    best = None
    memo: dict[tuple[int, ...], object] = {}
    for subset in itertools.combinations(inst.jobs, inst.k):
        prof = job_profile(subset, inst.T)
        fc = memo.get(prof)
        if fc is None:
            fc = full_cover(prof, plan)
            memo[prof] = fc
        if fc.cost < best_cost:
            best_cost = fc.cost
            best = PartialSolution(fc.counts, frozenset(j.id for j in subset))
    return SolveResult(best_cost, best)


def _coverage_profiles(d: tuple[int, ...], k: int):
    """All profiles k_t <= d_t with measure exactly k, in lex order.

    Covering more than asked never gets cheaper, so an optimum with
    measure exactly k always exists and enumerating only those suffices.
    """
    T = len(d)
    suffix = [0] * (T + 1)
    for t in range(T - 1, -1, -1):
        suffix[t] = suffix[t + 1] + d[t]
    prof = [0] * T

    def rec(t: int, rem: int):
        if t == T:
            if rem == 0:
                yield tuple(prof)
            return
        lo = max(0, rem - suffix[t + 1])
        hi = min(d[t], rem)
        for v in range(lo, hi + 1):
            prof[t] = v
            yield from rec(t + 1, rem - v)
        prof[t] = 0

    yield from rec(0, k)


def oracle_lspc(inst: LspcInstance, budget: Budget | None = None) -> LspcResult:
    """True optimum for the long/short problem: every coverage profile of
    measure k, every per-slot short choice, residual full-covered by the
    longs."""
    budget = budget or Budget.from_env()
    space = 1
    for dt in inst.d:
        space *= dt + 1
    if space > budget.max_lspc_profiles:
        raise BudgetExceeded(
            f"{space} coverage profiles exceed the budget of {budget.max_lspc_profiles}")
    if inst.k > sum(inst.d):
        return LspcResult(INFEASIBLE, None)

    shorts_at = [[] for _ in range(inst.T + 1)]
    for s in inst.shorts:
        shorts_at[s.t].append(s)
    slot_options = []  # per slot: (short or None) choices
    for t in range(1, inst.T + 1):
        slot_options.append([None] + shorts_at[t])

    plan = CoverPlan(inst.longs, inst.T)
    cover_memo: dict[tuple[int, ...], object] = {}
    best_cost = INFEASIBLE
    best = None
    for coverage in _coverage_profiles(inst.d, inst.k):
        for picks in itertools.product(*(slot_options[t] for t in range(inst.T))):
            scost = sum(p.c for p in picks if p is not None)
            if scost > best_cost:
                continue
            residual = tuple(
                max(0, coverage[t] - (picks[t].w if picks[t] is not None else 0))
                for t in range(inst.T))
            fc = cover_memo.get(residual)
            if fc is None:
                fc = full_cover(residual, plan)
                cover_memo[residual] = fc
            total = scost + fc.cost
            if total < best_cost:
                best_cost = total
                best = LspcSolution(
                    fc.counts,
                    frozenset(p.id for p in picks if p is not None),
                    coverage)
    return LspcResult(best_cost, best)


def oracle_prize(inst: Instance, budget: Budget | None = None) -> PrizeSolveResult:
    """True optimum for prize collecting: every job subset, full cover of
    its profile plus the penalties outside it."""
    if any(j.penalty is None for j in inst.jobs):
        raise ValueError("every job needs a penalty")
    budget = budget or Budget.from_env()
    n = len(inst.jobs)
    if n > budget.max_prize_jobs:
        raise BudgetExceeded(
            f"{n} jobs exceed the subset-enumeration budget of {budget.max_prize_jobs}")
    total_penalty = sum(j.penalty for j in inst.jobs)
    plan = CoverPlan(inst.resources, inst.T)
    best_cost = INFEASIBLE
    best = None
    memo: dict[tuple[int, ...], object] = {}
    for mask in range(1 << n):
        covered = [inst.jobs[i] for i in range(n) if mask >> i & 1]
        penalty = total_penalty - sum(j.penalty for j in covered)
        if penalty > best_cost:
            continue
        prof = job_profile(covered, inst.T)
        fc = memo.get(prof)
        if fc is None:
            fc = full_cover(prof, plan)
            memo[prof] = fc
        total = fc.cost + penalty
        if total < best_cost:
            best_cost = total
            best = PartialSolution(fc.counts, frozenset(j.id for j in covered))
    if best is None:
        raise RuntimeError("the empty subset is always coverable, yet no subset was")
    return PrizeSolveResult(best_cost, best)
