"""Mountain-range decomposition and the single-mountain partial solver.

A mountain is a set of jobs that all span one common peak timeslot, so
its demand profile rises to the peak and falls after it. A mountain
range is a sequence of mountains with pairwise disjoint spans.

``decompose`` partitions arbitrary jobs into few mountain ranges: jobs
are bucketed into doubling length categories; inside a category with
base length alpha every job spans some multiple of alpha, jobs sharing
a multiple form a mountain, and taking every fourth multiple into the
same output group keeps that group's spans disjoint. The number of
ranges is at most 4 * max(1, ceil(log2(longest/shortest job length))).

``single_mountain_solve`` covers k jobs of one mountain at small cost:
a near-optimal solution may always discard jobs that are extremal in
start or end time, so it suffices to try every way of excluding a
prefix of the jobs sorted by start time together with a prefix sorted
by falling end time, full-covering what remains. With the exact cover
subroutine the winner costs at most twice the optimum. The caller passes
the ``CoverPlan`` of the mountain's resources, so one plan serves every
k of the same mountain, and may pass a ``cutoff`` to ask only for
winners cheaper than a cost it already knows; ``build_lspc`` walks k
downward and seeds each cutoff from the winner for k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import INFEASIBLE, Cost, Job, PartialSolution, SolveResult, job_profile
from .fullcover import CoverPlan, full_cover


@dataclass(frozen=True, slots=True)
class Mountain:
    peak: int
    job_ids: frozenset[int]
    span: tuple[int, int]


@dataclass(frozen=True, slots=True)
class MountainRange:
    mountains: tuple[Mountain, ...]

    def job_ids(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.mountains:
            out |= m.job_ids
        return frozenset(out)


@dataclass(frozen=True, slots=True)
class Decomposition:
    ranges: tuple[MountainRange, ...]

    @property
    def L(self) -> int:
        return len(self.ranges)


def range_count_bound(jobs: Sequence[Job]) -> int:
    """4 * max(1, ceil(log2(lmax/lmin))): the guaranteed cap on L."""
    lengths = [j.length for j in jobs]
    lmin, lmax = min(lengths), max(lengths)
    r = 0
    while lmin << r < lmax:
        r += 1
    return 4 * max(1, r)


def decompose(jobs: Sequence[Job]) -> Decomposition:
    if not jobs:
        raise ValueError("decompose needs at least one job")
    lmin = min(j.length for j in jobs)
    ncat = range_count_bound(jobs) // 4

    # (category, group of every-fourth multiple) -> multiple q -> job ids.
    buckets: dict[tuple[int, int], dict[int, list[int]]] = {}
    for j in jobs:
        cat = 1
        while j.length >= (lmin << cat):
            cat += 1
        # The top category is closed at 2*alpha so lengths equal to an
        # exact power-of-two multiple of lmin do not open a category of
        # their own; spans stay disjoint because every fourth multiple
        # of alpha is still at least 2*alpha apart.
        cat = min(cat, ncat)
        alpha = lmin << (cat - 1)
        q = -(-j.s // alpha)  # smallest multiple of alpha the job spans
        buckets.setdefault((cat, q % 4), {}).setdefault(q, []).append(j.id)

    by_id = {j.id: j for j in jobs}
    ranges = []
    for key in sorted(buckets):
        cat, _ = key
        alpha = lmin << (cat - 1)
        mountains = []
        for q in sorted(buckets[key]):
            ids = buckets[key][q]
            span = (min(by_id[i].s for i in ids), max(by_id[i].e for i in ids))
            mountains.append(Mountain(q * alpha, frozenset(ids), span))
        ranges.append(MountainRange(tuple(mountains)))
    return Decomposition(tuple(ranges))


def verify_mountain_range(rng: MountainRange, jobs: Sequence[Job]) -> bool:
    """True iff every mountain's jobs all span its peak, spans equal the
    hull of their jobs, and spans are pairwise disjoint in order."""
    by_id = {j.id: j for j in jobs}
    prev_end = 0
    for m in rng.mountains:
        if not m.job_ids:
            return False
        members = [by_id.get(i) for i in m.job_ids]
        if any(j is None for j in members):
            return False
        if any(not j.active_at(m.peak) for j in members):
            return False
        hull = (min(j.s for j in members), max(j.e for j in members))
        if hull != m.span:
            return False
        if m.span[0] <= prev_end:
            return False
        prev_end = m.span[1]
    return True


def candidate_exclusions(jobs: Sequence[Job], k: int) -> list[frozenset[int]]:
    """All ways to keep k jobs of a mountain after dropping a prefix of the
    start-time order and a prefix of the falling end-time order.

    For each start prefix of q1 <= n - k jobs, the end order then drops
    jobs not yet dropped until n - k are gone. Returns the kept sets
    (deduplicated, by growing q1); there are at most n - k + 1 of them.
    """
    n = len(jobs)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} not in [0, {n}]")
    left = [j.id for j in sorted(jobs, key=lambda j: (j.s, j.id))]
    right = [j.id for j in sorted(jobs, key=lambda j: (-j.e, j.id))]
    all_ids = frozenset(j.id for j in jobs)
    out: list[frozenset[int]] = []
    for q1 in range(n - k + 1):
        dropped = set(left[:q1])
        for i in right:
            if len(dropped) == n - k:
                break
            dropped.add(i)
        kept = all_ids - dropped
        if kept not in out:
            out.append(kept)
    return out


def single_mountain_solve(jobs: Sequence[Job], plan: CoverPlan, k: int,
                          cutoff: Cost = INFEASIBLE) -> SolveResult:
    """Cover k jobs of a single mountain at cost at most twice the optimum.

    Full-covers every extremal-exclusion candidate over ``plan`` (the
    cover plan of the mountain's resources) and keeps the cheapest; ties
    go to the earliest candidate. Only winners costing strictly less than
    ``cutoff`` count, mirroring ``full_cover``: each cover is asked to
    beat the best cost so far, starting from ``cutoff``, so a candidate
    that cannot win is abandoned early and comes back infeasible. When
    the uncut winner costs less than ``cutoff`` it is returned unchanged,
    since the earliest candidate at the minimum cost is the same with or
    without the candidates the cutoff drops.

    INFEASIBLE iff no candidate is coverable below ``cutoff``; without a
    cutoff, iff no k jobs are coverable at all.
    """
    by_id = {j.id: j for j in jobs}
    best_cost = cutoff
    best = None
    for kept in candidate_exclusions(jobs, k):
        prof = job_profile((by_id[i] for i in kept), plan.T)
        res = full_cover(prof, plan, best_cost)
        if res.feasible:
            best_cost = res.cost
            best = PartialSolution(res.counts, kept)
    if best is None:
        return SolveResult(INFEASIBLE, None)
    return SolveResult(best_cost, best)
