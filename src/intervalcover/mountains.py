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
winners cheaper than a cost it already knows; ``reductions.price_mountain``
walks k downward and seeds each cutoff from the winner for k + 1.

``candidate_exclusions`` does the per-mountain work once, for every k:
it sorts the jobs by start and by falling end, and reduces each job to
a 0/1 row over the plan's segments, plus whether it touches a gap. The
row reads the job at one slot per segment: the segment's last slot if
the segment lies left of the common slot p = max s, its first slot if
it lies right of p, and p itself if it holds p. The sum of the rows of
any jobs of the mountain is then the largest demand of those jobs on
each segment, the peaks ``full_cover`` takes. Proof: every job spans p,
so at a slot t <= p a job is active iff it starts at or before t, and at
t >= p iff it ends at or after t. The demand of any of the jobs thus
rises up to p and falls after it, and on a segment reaches its largest
value at the slot nearest p, which is the slot read. A set of jobs has
demand in a gap iff one of them touches that gap, so the flags tell the
candidates ``full_cover`` would refuse without building any profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Iterable, Sequence

from .core import INFEASIBLE, Cost, Job, PartialSolution, SolveResult
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


def candidate_exclusions(jobs: Sequence[Job], plan: CoverPlan,
                         ) -> list[list[tuple[frozenset[int], tuple[int, ...] | None]]]:
    """The extremal-exclusion candidates of the mountain ``jobs`` over
    ``plan`` for every k, indexed by k, prepared in one pass.

    For each start prefix of q1 <= n - k jobs, the falling end order then
    drops jobs not yet dropped until n - k are gone; one walk down that
    order per q1 gives the candidates of every k. Each kept set comes
    with its segment peaks (see the module docstring), or None when it
    keeps a job that touches a gap. Deduplicated, by growing q1; there
    are at most n - k + 1 for each k. Raises ValueError when the jobs
    share no slot.
    """
    p = max([j.s for j in jobs]) - 1  # the common slot, 0-based
    if p >= min([j.e for j in jobs]):
        raise ValueError("a mountain's jobs must share a slot: max s > min e")
    reads = [b - 1 if b <= p else a if a > p else p for a, b in plan.segments]
    rows = {j.id: tuple([j.s - 1 <= t < j.e for t in reads]) for j in jobs}
    in_gap = {j.id for j in jobs if plan.touches_gap(j.s, j.e)}
    left = [j.id for j in sorted(jobs, key=lambda j: (j.s, j.id))]
    right = [j.id for j in sorted(jobs, key=lambda j: (-j.e, j.id))]
    suffix = [(0,) * len(reads)]  # peaks of left[q1:], for q1 = n down to 0
    for i in reversed(left):
        suffix.append(tuple(map(add, suffix[-1], rows[i])))
    # The walks skip the last job of the falling end order: dropping it
    # can only leave the empty set, preset as the one k = 0 candidate.
    by_k = [{frozenset(): suffix[0]}] + [{} for _ in jobs]
    for q1 in range(len(jobs)):
        kept, peaks = frozenset(left[q1:]), suffix[len(jobs) - q1]
        by_k[len(kept)].setdefault(kept, peaks)
        for i in right[:-1]:
            if i in kept:
                kept, peaks = kept - {i}, tuple(map(sub, peaks, rows[i]))
                by_k[len(kept)].setdefault(kept, peaks)
    return [[(kept, peaks if in_gap.isdisjoint(kept) else None) for kept, peaks in sets.items()]
            for sets in by_k]


def single_mountain_solve(candidates: Iterable[tuple[frozenset[int], tuple[int, ...] | None]],
                          plan: CoverPlan, cutoff: Cost = INFEASIBLE) -> SolveResult:
    """Cover k jobs of a single mountain at cost at most twice the optimum,
    given its ``candidate_exclusions(jobs, plan)[k]``.

    Full-covers every candidate's peaks over ``plan`` (the cover plan of
    the mountain's resources) and keeps the cheapest; ties go to the
    earliest candidate. Only winners costing strictly less than
    ``cutoff`` count, mirroring ``full_cover``: each cover is asked to
    beat the best cost so far, starting from ``cutoff``, so a candidate
    that cannot win is abandoned early and comes back infeasible. When
    the uncut winner costs less than ``cutoff`` it is returned unchanged,
    since the earliest candidate at the minimum cost is the same with or
    without the candidates the cutoff drops.

    INFEASIBLE iff no candidate is coverable below ``cutoff``; without a
    cutoff, iff no k jobs are coverable at all.
    """
    best_cost = cutoff
    best = None
    for kept, peaks in candidates:
        res = full_cover(peaks, plan, best_cost)
        if res.feasible:
            best_cost = res.cost
            best = PartialSolution(res.counts, kept)
    if best is None:
        return SolveResult(INFEASIBLE, None)
    return SolveResult(best_cost, best)
