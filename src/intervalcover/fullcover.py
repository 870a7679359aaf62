"""Exact minimum-cost full cover of a demand profile by interval resources.

The partial-coverage pipeline treats full cover as a pluggable subroutine
with a guarantee factor beta; this module pins beta = 1 by solving the
cover exactly with branch and bound over copy counts.

What the search needs of the resources alone is a ``CoverPlan``, built
once per resource set and timeline and shared by every demand solved
over them. Resources are branched on in order of cost per unit of
capacity, compared exactly in integers (c_a * w_b against c_b * w_a,
ties to input position). Walking that order from the back gives
``suffix_best``: per level and slot, the cheapest-per-unit resource still
to come, or None. It drives the admissible bound
max_t ceil(residual_t * c / w), marks slots that nothing left can cover,
and at the root picks the resource of the greedy incumbent.

A call first takes the root bound of its demand over ``suffix_best[0]``
and refuses when it reaches the cutoff, before the greedy incumbent or
the search is set up. A dead slot, one with positive demand that no
resource covers, has no entry in ``suffix_best[0]``, so its bound is
INFEASIBLE and the same check refuses it under any cutoff.

The copies tried for a resource follow from the residual demand at its
level. Fewer than ``lo``, the largest ceil(residual_t / w) over its slots
that no later resource covers, leaves such a slot short. More than
``hi``, the same maximum over all its slots, only adds cost: dropping the
surplus keeps the cover feasible, costs no more and gives a smaller copy
vector. So the search over [lo, hi] still reaches the lexicographically
smallest optimal copy vector (in input order), which is the one
returned, and hi never exceeds ceil(max demand / w). At the last level
lo == hi.

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

    ``order`` lists positions in ``resources`` by cost per unit of
    capacity; ``suffix_best[i][t]`` is the cheapest-per-unit resource
    among ``order[i:]`` active at slot t + 1 (earliest in order on ties),
    or None. Everything is a tuple, so one plan serves any number of
    ``full_cover`` calls. Raises ValueError for a resource outside [1, T],
    with capacity below 1 or with a negative cost.
    """

    resources: tuple[Resource, ...]
    T: int
    order: tuple[int, ...] = field(init=False, repr=False)
    suffix_best: tuple[tuple[Resource | None, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        resources = tuple(self.resources)
        check_resources("resources", resources, self.T)
        # Branch on cheap capacity first: the incumbent drops fast and the
        # bound bites early.
        order = tuple(sorted(range(len(resources)), key=cmp_to_key(
            lambda a, b: resources[a].c * resources[b].w - resources[b].c * resources[a].w
            or a - b)))
        rows = [[None] * self.T]
        for pos in reversed(order):
            r = resources[pos]
            cur = rows[-1][:]
            for t in range(r.s - 1, r.e):
                prev = cur[t]
                if prev is None or r.c * prev.w <= prev.c * r.w:
                    cur[t] = r
            rows.append(cur)
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "suffix_best", tuple(tuple(row) for row in reversed(rows)))


def _bound(residual: Sequence[int], row: Sequence[Resource | None]) -> Cost:
    """max_t ceil(residual_t * c / w) with the resource of ``row`` at each
    slot; INFEASIBLE if a slot with positive residual has none."""
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
    dominates ``demand``.

    Only covers costing strictly less than ``cutoff`` count; with none,
    the result is INFEASIBLE_COVER. Equal-cost optima break to the
    lexicographically smallest copy vector in the order the resources
    were given. Without a cutoff, INFEASIBLE iff some slot has positive
    demand and no active resource. Raises ValueError unless ``demand``
    has ``plan.T`` slots.
    """
    T = plan.T
    if len(demand) != T:
        raise ValueError(f"demand has {len(demand)} slots, the plan has T={T}")
    root = plan.suffix_best[0]
    if _bound(demand, root) >= cutoff:
        return INFEASIBLE_COVER
    if all(d <= 0 for d in demand):
        return FullCoverResult({}, 0)

    resources, order, suffix_best = plan.resources, plan.order, plan.suffix_best
    m = len(resources)

    # Greedy incumbent: a feasible cost cap, not a candidate vector.
    residual = list(demand)
    greedy_cost = 0
    for t in range(T):
        if residual[t] > 0:
            r = root[t]
            need = -(-residual[t] // r.w)
            greedy_cost += need * r.c
            add = need * r.w
            for u in range(r.s - 1, r.e):
                residual[u] -= add

    residual = list(demand)
    counts = [0] * m  # indexed by position in `resources`
    # Costs are integers, so "below cutoff" is "at most cutoff - 1".
    best_cost = greedy_cost if greedy_cost < cutoff else cutoff - 1
    best_vec = None

    def dfs(i: int, cost: int) -> None:
        nonlocal best_cost, best_vec
        if cost + _bound(residual, suffix_best[i]) > best_cost:
            return
        if i == m:
            vec = tuple(counts)
            if cost < best_cost or best_vec is None or vec < best_vec:
                best_cost = cost
                best_vec = vec
            return
        pos = order[i]
        r = resources[pos]
        w = r.w
        later = suffix_best[i + 1]
        lo = hi = 0
        for t in range(r.s - 1, r.e):
            need = -(-residual[t] // w)
            if need > hi:
                hi = need
            if need > lo and later[t] is None:
                lo = need
        take = lo * w
        for n in range(lo, hi + 1):
            counts[pos] = n
            if take:
                for t in range(r.s - 1, r.e):
                    residual[t] -= take
            dfs(i + 1, cost + n * r.c)
            take = w
        counts[pos] = 0
        back = hi * w
        for t in range(r.s - 1, r.e):
            residual[t] += back

    dfs(0, 0)
    if best_vec is None:
        return INFEASIBLE_COVER  # every cover costs at least ``cutoff``
    picked = {resources[pos].id: n for pos, n in enumerate(best_vec) if n > 0}
    return FullCoverResult(picked, best_cost)
