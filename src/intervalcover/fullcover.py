"""Exact minimum-cost full cover of a demand profile by interval resources.

The partial-coverage pipeline treats full cover as a pluggable subroutine
with a guarantee factor beta; this module pins beta = 1 by solving the
cover exactly with branch and bound over copy counts.

What the search needs of the resources alone is a ``CoverPlan``, built
once per resource set and timeline and shared by every demand solved
over them. The plan cuts the timeline 1..T before every resource start
and after every resource end, so m resources give at most 2m + 1
pieces, and all slots of one piece see the same active resources. The
pieces some resource is active on are the segments the search runs
over; the others are gaps, slots no resource reaches. Resources are
branched on in order of cost per unit of capacity, compared exactly in
integers (c_a * w_b against c_b * w_a, ties to input position). Walking
that order from the back gives ``suffix_best``: per level and segment,
the cheapest-per-unit resource still to come, or None. It drives the
admissible bound max ceil(residual * c / w), marks segments that nothing
left can cover, and at the root picks the resource of the greedy
incumbent.

A call first refuses, under any cutoff, a demand that is positive
somewhere in a gap: no multiset covers it. It then reduces the demand
to the largest demand of each segment. Capacity is constant on a
segment, so a multiset covers the demand exactly when it covers these
peaks, and every quantity the search takes from the residual (the bound,
the copy range below, the greedy cap) is a maximum of a non-decreasing
function over the segment's slots, which the peak attains. The search
over segments therefore visits the same nodes as one over slots and
returns the same cover.

The root bound is the largest of 0 and the segments' estimates
ceil(peak * c / w) with the cheapest-per-unit resource of each, so a
cutoff of at most 0 is refused at once and the reduction refuses as
soon as one estimate reaches the cutoff, before the greedy incumbent or
the search is set up. A call that gets past it has a root bound below
the cutoff and at most the greedy cap, which is the cost of a feasible
cover, so the root node is entered without taking that bound again;
every other node's bound is checked by its parent just before the call.

The copies tried for a resource follow from the residual demand at its
level. Fewer than ``lo``, the largest ceil(residual / w) over its
segments that no later resource covers, leaves such a segment short.
More than ``hi``, the same maximum over all its segments, only adds
cost: dropping the surplus keeps the cover feasible, costs no more and
gives a smaller copy vector. So the search over [lo, hi] still reaches
the lexicographically smallest optimal copy vector (in input order),
which is the one returned, and hi never exceeds ceil(max demand / w).
At the last level lo == hi.

A caller that only wants covers cheaper than some ``cutoff`` passes it:
every node whose cost plus bound reaches the cutoff is pruned, and the
search reports INFEASIBLE_COVER when no cover beats it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Mapping, Sequence

from .core import INFEASIBLE, Cost, Resource, check_resources


@dataclass(frozen=True)
class FullCoverResult:
    """Optimal multiset (resource id -> copies) with its cost.

    ``beta`` is the guarantee factor of the solver that produced the
    result; the exact search always reports 1.
    """

    counts: Mapping[int, int]
    cost: Cost
    beta: int = 1

    @property
    def feasible(self) -> bool:
        return self.cost != INFEASIBLE


INFEASIBLE_COVER = FullCoverResult({}, INFEASIBLE)


@dataclass(frozen=True)
class CoverPlan:
    """The search plan of one resource set over timeline 1..T.

    Cutting the slots 0..T-1 (0-based) at every ``r.s - 1`` and ``r.e``
    gives half-open ranges (start, stop) whose slots all have the same
    active resources. Those some resource is active on are ``segments``,
    the others ``gaps``. ``spans[p]`` is the half-open range of segments
    that ``resources[p]`` is active on.
    ``order`` lists positions in ``resources`` by cost per unit of
    capacity; ``suffix_best[i][j]`` is the cheapest-per-unit resource
    among ``order[i:]`` active on segment j (earliest in order on ties),
    or None. Everything is a tuple, so one plan serves any number of
    ``full_cover`` calls. Raises ValueError for a resource outside [1, T],
    with capacity below 1 or with a negative cost.
    """

    resources: tuple[Resource, ...]
    T: int
    order: tuple[int, ...] = field(init=False, repr=False)
    segments: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    gaps: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    spans: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    suffix_best: tuple[tuple[Resource | None, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        resources = tuple(self.resources)
        check_resources("resources", resources, self.T)
        cuts = sorted({0, self.T, *(r.s - 1 for r in resources), *(r.e for r in resources)})
        pieces = tuple(zip(cuts, cuts[1:]))
        segments = tuple(p for p in pieces if any(r.s <= p[1] and p[0] < r.e for r in resources))
        first = {a: j for j, (a, _) in enumerate(segments)}
        stop = {b: j + 1 for j, (_, b) in enumerate(segments)}
        spans = tuple((first[r.s - 1], stop[r.e]) for r in resources)
        # Branch on cheap capacity first: the incumbent drops fast and the
        # bound bites early.
        order = tuple(sorted(range(len(resources)), key=cmp_to_key(
            lambda a, b: resources[a].c * resources[b].w - resources[b].c * resources[a].w
            or a - b)))
        rows = [[None] * len(segments)]
        for pos in reversed(order):
            r = resources[pos]
            cur = rows[-1][:]
            for j in range(*spans[pos]):
                prev = cur[j]
                if prev is None or r.c * prev.w <= prev.c * r.w:
                    cur[j] = r
            rows.append(cur)
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "gaps", tuple(p for p in pieces if p not in segments))
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "suffix_best", tuple(tuple(row) for row in reversed(rows)))


def _bound(residual: Sequence[int], row: Sequence[Resource | None]) -> Cost:
    """max_j ceil(residual_j * c / w) with the resource of ``row`` at each
    segment; INFEASIBLE if a segment with positive residual has none."""
    lb = 0
    for rt, br in zip(residual, row):
        if rt > 0:
            if br is None:
                return INFEASIBLE
            est = -(-rt * br.c // br.w)
            if est > lb:
                lb = est
    return lb


def full_cover(demand: Sequence[int], plan: CoverPlan,
               cutoff: Cost = INFEASIBLE) -> FullCoverResult:
    """Minimum-cost multiset of ``plan.resources`` whose capacity profile
    dominates ``demand``. An entry at or below 0 needs no capacity, so a
    demand gives the same result as its copy clamped at 0.

    Only covers costing strictly less than ``cutoff`` count; with none,
    the result is INFEASIBLE_COVER. Equal-cost optima break to the
    lexicographically smallest copy vector in the order the resources
    were given. Without a cutoff, INFEASIBLE iff some slot has positive
    demand and no active resource. Raises ValueError unless ``demand``
    has ``plan.T`` slots.
    """
    if len(demand) != plan.T:
        raise ValueError(f"demand has {len(demand)} slots, the plan has T={plan.T}")
    if cutoff <= 0:
        return INFEASIBLE_COVER  # costs are never negative
    for a, b in plan.gaps:
        if max(demand[a:b]) > 0:
            return INFEASIBLE_COVER
    segments = plan.segments
    root = plan.suffix_best[0]
    peaks = []
    for (a, b), r in zip(segments, root):
        peak = max(demand[a:b])
        if peak > 0 and -(-peak * r.c // r.w) >= cutoff:
            return INFEASIBLE_COVER
        peaks.append(peak)
    if all(d <= 0 for d in peaks):
        return FullCoverResult({}, 0)

    resources, order, spans, suffix_best = plan.resources, plan.order, plan.spans, plan.suffix_best
    m = len(resources)

    # Greedy incumbent: a feasible cost cap, not a candidate vector. Only
    # segments not yet visited need their residual lowered.
    residual = peaks[:]
    greedy_cost = 0
    for j in range(len(segments)):
        if residual[j] > 0:
            r = root[j]
            need = -(-residual[j] // r.w)
            greedy_cost += need * r.c
            add = need * r.w
            u = j
            while u < len(segments) and segments[u][0] < r.e:
                residual[u] -= add
                u += 1

    residual = peaks
    counts = [0] * m  # indexed by position in `resources`
    # Costs are integers, so "below cutoff" is "at most cutoff - 1".
    best_cost = greedy_cost if greedy_cost < cutoff else cutoff - 1
    best_vec = None

    def dfs(i: int, cost: int) -> None:
        nonlocal best_cost, best_vec
        if i == m:
            vec = tuple(counts)
            if cost < best_cost or best_vec is None or vec < best_vec:
                best_cost = cost
                best_vec = vec
            return
        pos = order[i]
        r = resources[pos]
        w = r.w
        a, b = spans[pos]
        later = suffix_best[i + 1]
        lo = hi = 0
        for j in range(a, b):
            need = -(-residual[j] // w)
            if need > hi:
                hi = need
            if need > lo and later[j] is None:
                lo = need
        take = lo * w
        for n in range(lo, hi + 1):
            counts[pos] = n
            if take:
                for j in range(a, b):
                    residual[j] -= take
            child = cost + n * r.c
            if child + _bound(residual, later) <= best_cost:
                dfs(i + 1, child)
            take = w
        counts[pos] = 0
        back = hi * w
        for j in range(a, b):
            residual[j] += back

    dfs(0, 0)
    if best_vec is None:
        return INFEASIBLE_COVER  # every cover costs at least ``cutoff``
    picked = {resources[pos].id: n for pos, n in enumerate(best_vec) if n > 0}
    return FullCoverResult(picked, best_cost)
