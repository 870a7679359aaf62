"""Exact brute-force reference solvers at desk scale.

These exist to check the approximate solvers' bounds; they never feed
back into the solvers themselves. Each oracle enumerates its whole
search space (job subsets or coverage profiles) and completes every
branch with the exact full-cover search, so its answer is the true
optimum. One cap bounds them all: each oracle counts from its input
what it would walk and hands the count to ``check_candidates``, which
raises BudgetExceeded above MAX_CANDIDATES with an explicit message
rather than silently truncating the search, because a wrong oracle
would poison every ratio test built on it.

oracle_partial counts the C(n, k) subsets of size k of the n jobs
touching no gap of the resources, oracle_prize the 2^n subsets of those
n jobs, and oracle_lspc its (coverage profile, short picks) pairs, the
product over t of (d_t + 1)(1 + shorts at t), which bounds the profiles
it tries as well.
"""

from __future__ import annotations

import itertools
import math

from .core import (
    INFEASIBLE,
    Instance,
    PartialSolution,
    PrizeSolveResult,
    SolveResult,
    check_candidates,
    check_partiality,
    check_penalties,
    job_profile,
)
from .fullcover import CoverPlan, full_cover
from .lspc import LspcInstance, LspcResult, LspcSolution


def _cheapest_subset(plan: CoverPlan, subsets, penalty) -> tuple:
    """The first strictly cheapest of ``subsets`` (job sequences), each
    priced as the exact full cover of its profile over ``plan`` plus
    ``penalty(subset)``; (INFEASIBLE, None) when none is coverable."""
    best_cost = INFEASIBLE
    best = None
    memo: dict[tuple[int, ...] | None, object] = {}  # keyed by segment demand
    for subset in subsets:
        extra = penalty(subset)
        if extra > best_cost:
            continue
        demand = plan.segment_demand(job_profile(subset, plan.T))
        fc = memo.get(demand)
        if fc is None:
            fc = memo[demand] = full_cover(demand, plan)
        total = fc.cost + extra
        if total < best_cost:
            best_cost = total
            best = PartialSolution(fc.counts, frozenset(j.id for j in subset))
    return best_cost, best


def oracle_partial(inst: Instance) -> SolveResult:
    """True optimum for partial coverage: best full cover over all size-k
    subsets of the jobs touching no gap of the resources. A job touching
    a gap has no cover, so every subset holding one is infeasible."""
    check_partiality(inst.k)
    plan = CoverPlan(inst.resources, inst.T)
    jobs = [j for j in inst.jobs if not plan.touches_gap(j.s, j.e)]
    check_candidates(math.comb(len(jobs), inst.k),
                     f"{inst.k}-subsets of {len(jobs)} jobs touching no gap")
    return SolveResult(*_cheapest_subset(plan, itertools.combinations(jobs, inst.k),
                                         lambda subset: 0))


def _coverage_profiles(d: tuple[int, ...], k: int):
    """All profiles k_t <= d_t with measure exactly k, in lex order.

    Covering more than asked never gets cheaper, so an optimum with
    measure exactly k always exists and enumerating only those suffices.
    The product runs over all prod(d_t + 1) profiles, which the caller's
    cap bounds.
    """
    return (p for p in itertools.product(*(range(x + 1) for x in d)) if sum(p) == k)


def oracle_lspc(inst: LspcInstance) -> LspcResult:
    """True optimum for the long/short problem: every coverage profile of
    measure k, every per-slot short choice, residual full-covered by the
    longs."""
    slot_options = [[None] for _ in range(inst.T)]  # per slot: (short or None) choices
    for s in inst.shorts:
        slot_options[s.t - 1].append(s)
    space = 1
    for dt, options in zip(inst.d, slot_options):
        space *= (dt + 1) * len(options)
    check_candidates(space, "(coverage profile, short picks) pairs")

    plan = CoverPlan(inst.longs, inst.T)
    cover_memo: dict[tuple[int, ...] | None, object] = {}  # keyed by segment demand
    best_cost = INFEASIBLE
    best = None
    for coverage in _coverage_profiles(inst.d, inst.k):
        for picks in itertools.product(*slot_options):
            scost = sum(p.c for p in picks if p is not None)
            if scost > best_cost:
                continue
            residual = tuple(
                max(0, coverage[t] - (picks[t].w if picks[t] is not None else 0))
                for t in range(inst.T))
            demand = plan.segment_demand(residual)
            fc = cover_memo.get(demand)
            if fc is None:
                fc = cover_memo[demand] = full_cover(demand, plan)
            total = scost + fc.cost
            if total < best_cost:
                best_cost = total
                best = LspcSolution(
                    fc.counts,
                    frozenset(p.id for p in picks if p is not None),
                    coverage)
    return LspcResult(best_cost, best)


def oracle_prize(inst: Instance) -> PrizeSolveResult:
    """True optimum for prize collecting: every set of the jobs touching
    no gap of the resources, full cover of its profile plus the penalties
    outside it. A job touching a gap has no cover, so it always goes
    uncovered; the sets are walked in the mask order over the other jobs."""
    check_penalties(inst.jobs)
    plan = CoverPlan(inst.resources, inst.T)
    jobs = [j for j in inst.jobs if not plan.touches_gap(j.s, j.e)]
    n = len(jobs)
    check_candidates(1 << n, f"subsets of {n} jobs touching no gap")
    total_penalty = sum(j.penalty for j in inst.jobs)
    best_cost, best = _cheapest_subset(
        plan, ([jobs[i] for i in range(n) if mask >> i & 1] for mask in range(1 << n)),
        lambda covered: total_penalty - sum(j.penalty for j in covered))
    if best is None:
        raise RuntimeError("the empty subset is always coverable, yet no subset was")
    return PrizeSolveResult(best_cost, best)
