"""Exact minimum-cost full cover of a demand profile by interval resources.

The partial-coverage pipeline treats full cover as a pluggable subroutine
with a guarantee factor beta; this module pins beta = 1 by solving the
cover exactly with branch and bound over copy counts.

What the search needs of the resources alone is a ``CoverPlan``, built
once per resource set and timeline and shared by every demand solved
over them. The plan first drops every resource that another one strictly
beats (``core.undominated``): if o.s <= r.s, r.e <= o.e and
ceil(r.w / o.w) * o.c < r.c, swapping one copy of r for that many copies
of o keeps a multiset covering and makes it strictly cheaper, so no
optimum holds r. Every optimum is then a copy vector of the kept
resources, and the lexicographically smallest one is the same with r in
the search or not. A dropped resource's interval lies inside a kept one
(the relation is acyclic and transitive), so the slots some resource
reaches are the same for the kept ones alone.

The plan cuts the timeline 1..T before every kept resource's start and
after its end, so m kept resources give at most 2m + 1 pieces, and all
slots of one piece see the same active kept resources. The pieces some
resource is active on are the segments the search runs over; the others
are gaps, slots no resource reaches. One sweep over the sorted cut
points tells them apart: a running count adds the kept resources that
start at a cut and drops those that end there, so it holds the number
active on the piece that starts at the cut, and that piece is a segment
exactly when the count is positive. Priced resources are branched on in
order of cost per unit of capacity, compared exactly in integers (c_a *
w_b against c_b * w_a, ties to input position); the free ones (c = 0)
come after all of them, in input order. Walking that order from the
back gives, per level and segment, the cheapest-per-unit resource still
to come, or None. It drives the admissible bound max ceil(residual * c /
w), marks segments that nothing left can cover, and at the root picks
the resource of the greedy incumbent. Each level's tuples of segments
come from one pass over that list, so a plan of m kept resources costs
O(m) passes over at most 2m + 1 pieces.

The search takes its demand per segment, not per slot. A demand that
is positive somewhere in a gap has no cover; any other reduces to the
largest demand of each segment. Capacity is constant on a segment, so a
multiset covers the demand exactly when it covers these peaks, and every
quantity the search takes from the residual (the bound, the copy range
below, the greedy cap) is a maximum of a non-decreasing function over
the segment's slots, which the peak attains. The search over segments
therefore visits the same nodes as one over slots and returns the same
cover. A caller holding a per-slot profile reduces it with
``CoverPlan.segment_demand``, which returns None for demand in a gap,
and ``full_cover`` refuses None under any cutoff. Mountain pricing
computes the peaks of its candidates directly (``mountains.py``).

The root bound is the largest of 0 and the segments' estimates
ceil(peak * c / w) with the cheapest-per-unit resource of each, so a
cutoff of at most 0 is refused at once and the call refuses as
soon as one estimate reaches the cutoff, before the greedy incumbent or
the search is set up. A call that gets past it has a root bound below
the cutoff and at most the greedy cap, which is the cost of a feasible
cover, so the root node is entered without taking that bound again;
every other node's bound is checked by its parent just before it is
yielded.

The copies tried for a resource follow from the residual demand at its
level. Fewer than ``lo``, the largest ceil(residual / w) over its
segments that no later resource covers, leaves such a segment short.
More than ``hi``, the same maximum over all its segments, only adds
cost: dropping the surplus keeps the cover feasible, costs no more and
gives a smaller copy vector. So the search over [lo, hi] still reaches
the lexicographically smallest optimal copy vector (in input order),
which is the one returned, and hi never exceeds ceil(max demand / w).
At the last level lo == hi.

A free level is decided, not branched: it takes ``lo`` copies only.
Copies of a free resource cost nothing, so no bound could prune its
other counts. Let x* be the lexicographically smallest optimal copy
vector, in input order. No resource beats a free one (that needs a cost
below 0), so every free resource is kept. The priced levels come first;
x* lies in each one's [lo, hi], and the incumbent never drops below the
optimum, so the search reaches x*'s priced prefix. At a free level f
every priced count is fixed and every later level is free. Fewer than
lo_f copies leave short a segment no later resource covers. If x*_f >
lo_f, lowering it to lo_f and giving the later free resources whatever
copies they then need keeps the cover at the same cost. Every changed
coordinate other than f's belongs to a free resource later in input
order, so the new vector is lexicographically smaller than x*, which
contradicts its choice. So x* takes ``lo`` at every free level and
the search reaches it; the leaves it no longer visits below the same
priced prefix cost the same and are lexicographically larger.

Because of ``lo``, a segment that no resource from level i on covers has
no positive residual at level i. The children of a node differ only on
the segments of the branched resource's span, so the bound of a child is
the larger of the bound outside the span, taken once per node over the
segments that a later resource covers, and the bound inside it, taken
per child. Copies raise a child's cost and the incumbent only falls, so
once a child's cost plus the outside bound passes the incumbent, every
later child is pruned as well and the loop stops.

The search keeps its depth off the interpreter stack. Each level is a
generator that walks its copy counts and yields the cost of every child
that survives the bound, and a loop keeps one suspended generator per
level of the current path: it pushes the next level's generator for a
yielded child, scores a child of the last level as a leaf, and pops a
generator once it is done. That visits the nodes of a recursive search in
the same order, so a plan of any number of levels is searched under any
recursion limit. One deep but easy (1200 one-slot resources under 1200
one-slot jobs) is answered at once; one deep and hard runs as long as a
hard shallow one, since no node budget bounds either.

A caller that only wants covers cheaper than some ``cutoff`` passes it:
every node whose cost plus bound reaches the cutoff is pruned, and the
search reports INFEASIBLE_COVER when no cover beats it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Mapping, Sequence

from .core import INFEASIBLE, Cost, Resource, check_resources, undominated


@dataclass(frozen=True, slots=True)
class FullCoverResult:
    """Optimal multiset (resource id -> copies) with its cost."""

    counts: Mapping[int, int]
    cost: Cost

    @property
    def feasible(self) -> bool:
        return self.cost != INFEASIBLE


INFEASIBLE_COVER = FullCoverResult({}, INFEASIBLE)


@dataclass(frozen=True, slots=True)
class CoverPlan:
    """The search plan of one resource set over timeline 1..T.

    ``order`` lists the positions in ``resources`` of the resources no
    other one strictly beats: the priced ones by cost per unit of
    capacity, then the free ones (c = 0) in input order. No resource
    beats a free one, and once every priced count is fixed, the
    lexicographically smallest optimum gives each free resource the
    fewest copies that cover what no later one does (see the module
    docstring), so ``full_cover`` decides the free levels instead of
    branching on them. Cutting the
    slots 0..T-1 (0-based) at every ``r.s - 1`` and ``r.e`` of those
    gives half-open ranges (start, stop) whose slots all have the same
    active kept resources. Those some resource is active on are
    ``segments``, the others ``gaps``; one sweep over the cuts with a
    running count of the active kept resources tells them apart.
    ``cheapest[j]`` is the cheapest-per-unit resource active on segment
    j (earliest in order on ties). ``levels[i]`` holds what the search
    needs to branch on ``order[i]``, taken in one pass over the cheapest
    resources still to come. Everything is a tuple, so one plan serves
    any number of ``full_cover`` calls. Raises ValueError for a resource
    outside [1, T], with capacity below 1 or with a negative cost.
    """

    resources: tuple[Resource, ...]
    T: int
    order: tuple[int, ...] = field(init=False, repr=False)
    segments: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    gaps: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    cheapest: tuple[Resource, ...] = field(init=False, repr=False)
    levels: tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self):
        resources = tuple(self.resources)
        check_resources("resources", resources, self.T)
        kept = undominated(resources)
        # One sweep over the cut points: `delta[x]` counts the kept
        # resources starting at 0-based slot x less those ending before
        # it, so the running sum at a piece's start is the number active
        # on every slot of that piece.
        delta = {0: 0, self.T: 0}
        for p in kept:
            r = resources[p]
            delta[r.s - 1] = delta.get(r.s - 1, 0) + 1
            delta[r.e] = delta.get(r.e, 0) - 1
        cuts = sorted(delta)
        segments, gaps = [], []
        first, stop = {}, {}
        active = 0
        for a, b in zip(cuts, cuts[1:]):
            active += delta[a]
            if active:
                first[a] = len(segments)
                segments.append((a, b))
                stop[b] = len(segments)
            else:
                gaps.append((a, b))
        # Branch on cheap capacity first: the incumbent drops fast and the
        # bound bites early. Free resources go last, where each is decided
        # at its fewest copies instead of branched on.
        order = tuple(sorted(kept, key=cmp_to_key(
            lambda a, b: (resources[a].c == 0) - (resources[b].c == 0)
            or resources[a].c * resources[b].w - resources[b].c * resources[a].w
            or a - b)))
        # Walk the order from the back: `later` is the cheapest-per-unit
        # resource still to come on each segment, or None. A level holds
        # the resource's position, w and c, the half-open range (a, b) of
        # the segments it is active on, those of them no later resource
        # covers, and (segment, c, w) of the cheapest later resource on
        # every other segment, inside (a, b) and outside it.
        later = [None] * len(segments)
        levels = []
        for pos in reversed(order):
            r = resources[pos]
            a, b = first[r.s - 1], stop[r.e]
            last, inside, outside = [], [], []
            for j, br in enumerate(later):
                if br is None:
                    if a <= j < b:
                        last.append(j)
                elif a <= j < b:
                    inside.append((j, br.c, br.w))
                else:
                    outside.append((j, br.c, br.w))
            levels.append((pos, r.w, r.c, a, b, tuple(last), tuple(inside), tuple(outside)))
            for j in range(a, b):
                prev = later[j]
                if prev is None or r.c * prev.w <= prev.c * r.w:
                    later[j] = r
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "gaps", tuple(gaps))
        object.__setattr__(self, "cheapest", tuple(later))
        object.__setattr__(self, "levels", tuple(reversed(levels)))

    def touches_gap(self, s: int, e: int) -> bool:
        """True iff slots s..e (1-based, inclusive) meet a gap: a job over
        them has demand that no multiset of the plan covers, so it can
        only go uncovered."""
        return any(a < e and s <= b for a, b in self.gaps)

    def segment_demand(self, demand: Sequence[int]) -> tuple[int, ...] | None:
        """The largest entry of a per-slot ``demand`` on each segment, the
        demand ``full_cover`` takes; None when ``demand`` is positive in a
        gap. Raises ValueError unless ``demand`` has T slots."""
        if len(demand) != self.T:
            raise ValueError(f"demand has {len(demand)} slots, the plan has T={self.T}")
        if any(max(demand[a:b]) > 0 for a, b in self.gaps):
            return None
        return tuple(max(demand[a:b]) for a, b in self.segments)


def full_cover(demand: Sequence[int] | None, plan: CoverPlan,
               cutoff: Cost = INFEASIBLE) -> FullCoverResult:
    """Minimum-cost multiset of ``plan.resources`` whose capacity covers
    ``demand``, one entry per segment of ``plan`` (the largest demand
    there); None stands for demand in a gap and is never covered. An
    entry at or below 0 needs no capacity, so a demand gives the same
    result as its copy clamped at 0.

    Only covers costing strictly less than ``cutoff`` count; with none,
    the result is INFEASIBLE_COVER. Equal-cost optima break to the
    lexicographically smallest copy vector in the order the resources
    were given. Without a cutoff, INFEASIBLE iff ``demand`` is None.
    Raises ValueError unless ``demand`` has one entry per segment.
    """
    if demand is None:
        return INFEASIBLE_COVER  # positive in a gap: nothing covers it
    segments = plan.segments
    if len(demand) != len(segments):
        raise ValueError(f"demand has {len(demand)} entries for {len(segments)} segments")
    if cutoff <= 0:
        return INFEASIBLE_COVER  # costs are never negative
    root = plan.cheapest
    for peak, r in zip(demand, root):
        if peak > 0 and -(-peak * r.c // r.w) >= cutoff:
            return INFEASIBLE_COVER
    if all(d <= 0 for d in demand):
        return FullCoverResult({}, 0)

    resources, levels = plan.resources, plan.levels
    depth = len(levels)

    # Greedy incumbent: a feasible cost cap, not a candidate vector. Only
    # segments not yet visited need their residual lowered.
    residual = list(demand)
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

    residual = list(demand)
    counts = [0] * len(resources)  # indexed by position in `resources`
    # Costs are integers, so "below cutoff" is "at most cutoff - 1".
    best_cost = greedy_cost if greedy_cost < cutoff else cutoff - 1
    best_vec = None

    def level(i: int, cost: int):
        """The children of a node at level i that costs ``cost``: yields
        each child's cost with its copies in ``counts`` and ``residual``,
        and restores both once done."""
        pos, w, c, a, b, last, inside, outside = levels[i]
        lo = 0
        for j in last:
            need = -(-residual[j] // w)
            if need > lo:
                lo = need
        hi = max(lo, -(-max(residual[a:b]) // w)) if c else lo
        out = 0
        for j, bc, bw in outside:
            rt = residual[j]
            if rt > 0:
                est = -(-rt * bc // bw)
                if est > out:
                    out = est
        n = lo
        if n:
            take = n * w
            for j in range(a, b):
                residual[j] -= take
        child = cost + n * c
        while child + out <= best_cost:
            counts[pos] = n
            lb = out
            for j, bc, bw in inside:
                rt = residual[j]
                if rt > 0:
                    est = -(-rt * bc // bw)
                    if est > lb:
                        lb = est
            if child + lb <= best_cost:
                yield child
            if n == hi:
                break
            n += 1
            child += c
            for j in range(a, b):
                residual[j] -= w
        counts[pos] = 0
        if n:
            back = n * w
            for j in range(a, b):
                residual[j] += back

    # Depth first: the top generator's next child is a leaf to score or
    # the node whose level is pushed next.
    stack = [level(0, 0)]
    while stack:
        for child in stack[-1]:
            if len(stack) < depth:
                stack.append(level(len(stack), child))
                break
            vec = tuple(counts)
            if child < best_cost or best_vec is None or vec < best_vec:
                best_cost = child
                best_vec = vec
        else:
            stack.pop()
    if best_vec is None:
        return INFEASIBLE_COVER  # every cover costs at least ``cutoff``
    picked = {resources[pos].id: n for pos, n in enumerate(best_vec) if n > 0}
    return FullCoverResult(picked, best_cost)
