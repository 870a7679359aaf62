"""Reductions between the problem variants and their lifting maps.

Mountain-range side: resources are first split so that every part is
either narrow (touching one mountain's span without spanning it) or wide
(the block of mountains a resource spans, clipped to their spans). Parts
are clipped copies of their resource and keep its id, capacity and cost,
so no second id space arises and nothing is renumbered. Each resource
yields at most three parts: narrow ones in the first and last mountain
it touches and a wide one between. They lie on disjoint slots, so a
solution over parts lifts back by giving each resource the most copies
any of its parts uses: every part keeps at least its copies on its own
slots, and the cost is at most the parts' total. The split costs at most
a factor 3. The split range then collapses into a long/short instance:
one timeslot per mountain, demands equal to mountain sizes, wide parts
become longs, and for every (mountain, kappa) the single-mountain solver
over the mountain's narrow parts prices a synthetic short of capacity
kappa. The build keeps each short's priced solution, the narrow multiset
and the kappa jobs that justify its price, so picked shorts expand back
into real coverage; the short itself holds its mountain and kappa.
``price_mountain`` prices every kappa of one mountain over candidates
prepared once for all of them by ``mountains.candidate_exclusions``: one
sort by start, one by falling end, each job's segment row and gap flag.
It takes any plan: here the mountain's narrow parts; for a range of one
mountain, which is not split, the resources clipped to its span, or the
plan of all the instance's resources that ``pipeline.solve_partial``
shares among such ranges (see ``pipeline._shares_plan``).

Prize-collecting side: covering all jobs with an escape hatch per job.
The reduction leaves the instance as it is. The demand is the jobs' own
profile; every job may be picked at most once, as one unit of capacity
over its own interval at the cost of its penalty, and the resources
stay available in unlimited copies. A picked job is a job left
uncovered, so costs transfer exactly in both directions and the exact
search answers the prize-collecting problem directly: the covered set
is every job it did not pick. Picking every job covers the demand, so
every instance has an answer. The exact search always picks the jobs
that touch a slot no resource covers (forced), never picks a job inside
one resource that costs no more than its penalty (settled), and walks
sets of all the others (free); ``smfc_solve_exact`` gives the walk and
its bound.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    INFEASIBLE,
    Cost,
    Instance,
    Job,
    PartialSolution,
    PrizeSolveResult,
    Resource,
    SolveResult,
    check_candidates,
    check_penalties,
    covers,
    job_profile,
    multiset_profile,
)
from .fullcover import CoverPlan, full_cover
from .lspc import LspcInstance, LspcSolution, ShortResource
from .mountains import MountainRange, candidate_exclusions, single_mountain_solve


def clip_resources(resources: Sequence[Resource], s: int, e: int) -> list[Resource]:
    """The resources that touch slots s..e, in input order, each clipped to
    s..e and keeping its id, capacity and cost."""
    return [Resource(r.id, max(r.s, s), min(r.e, e), r.w, r.c)
            for r in resources if r.s <= e and s <= r.e]


def split_narrow_wide(rng: MountainRange, resources: Sequence[Resource],
                      ) -> tuple[tuple[tuple[Resource, ...], ...],
                                 tuple[tuple[Resource, int, int], ...]]:
    """Split every resource into narrow and wide parts over the range.

    Returns ``(narrows, wides)``. ``narrows[i]`` holds the resources that
    touch mountain i's span without spanning it, clipped to the span, in
    input order. ``wides`` holds, in input order, each resource that spans
    a mountain, clipped to the block of mountains it spans, with the first
    and last mountain of that block. Parts keep their resource's id,
    capacity and cost.
    """
    spans = [m.span for m in rng.mountains]
    narrows = tuple(tuple(r for r in clip_resources(resources, s, e) if (r.s, r.e) != (s, e))
                    for s, e in spans)
    wides = []
    for r in resources:
        block = [i for i, (s, e) in enumerate(spans) if r.s <= s and e <= r.e]
        if block:
            p, q = block[0], block[-1]
            wides.append((Resource(r.id, spans[p][0], spans[q][1], r.w, r.c), p, q))
    return narrows, tuple(wides)


def lift_split(picks: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Map picked parts, as (resource id, copies) pairs, back to the
    resources: each resource takes the most copies any of its parts uses."""
    counts: dict[int, int] = {}
    for rid, n in picks:
        if n > counts.get(rid, 0):
            counts[rid] = n
    return counts


@dataclass(frozen=True, slots=True)
class LspcBuild:
    instance: LspcInstance
    # short id -> the narrow multiset and the kappa jobs that price it
    short_solutions: tuple[PartialSolution, ...]
    long_origin: Mapping[int, int]  # long id -> its wide part's resource id


def price_mountain(jobs: Sequence[Job], plan: CoverPlan) -> list[SolveResult | None]:
    """``single_mountain_solve`` of the mountain ``jobs`` over ``plan`` for
    every kappa, indexed by kappa; None where kappa is 0 or infeasible.

    kappa is priced from the mountain's size down to 1, each call cut off
    at the cost of the winner for kappa + 1, plus 1. The cutoff loses
    nothing: the (kappa + 1) winner keeps the jobs left after dropping a
    prefix of the start order and a prefix of the falling end order;
    growing the start prefix up to the first job it keeps gives a kappa
    candidate whose demand profile the winner's profile dominates, so the
    winner's multiset covers it and opt(kappa) <= opt(kappa + 1) < cutoff.
    The cut call therefore returns the uncut winner, and a kappa that
    comes back infeasible under a seeded cutoff raises RuntimeError.
    Raises ValueError when the jobs share no slot.
    """
    priced: list[SolveResult | None] = [None] * (len(jobs) + 1)
    candidates = candidate_exclusions(jobs, plan)
    cutoff = INFEASIBLE
    for kappa in range(len(jobs), 0, -1):
        res = single_mountain_solve(candidates[kappa], plan, cutoff)
        if res.solution is not None:
            priced[kappa] = res
            cutoff = res.cost + 1
        elif cutoff != INFEASIBLE:
            raise RuntimeError(f"kappa={kappa} found no cover below {cutoff}, "
                               f"the cost of kappa={kappa + 1} plus 1")
    return priced


def build_lspc(rng: MountainRange, jobs: Sequence[Job],
               narrows: Sequence[Sequence[Resource]],
               wides: Sequence[tuple[Resource, int, int]], T: int) -> LspcBuild:
    """Collapse a split mountain range into a long/short instance.

    One timeslot per mountain; the demand is the mountain's job count.
    Each wide part becomes a long over its block of mountains. For every
    mountain and every kappa up to its size, the single-mountain solver
    over the mountain's narrow parts prices a short of capacity kappa;
    infeasible pairs emit nothing. The instance's target k is sum(d), the
    largest target a caller may ask: callers ask ``LspcSolver.solve_for``
    for each target they need.

    Each mountain's narrow parts get one ``CoverPlan``, over which
    ``price_mountain`` prices every kappa in one downward walk. Shorts are
    emitted in ascending kappa.

    A mountain without narrow parts gets neither a plan nor a pricing
    call, and emits no short. Every candidate of a kappa >= 1 keeps a job,
    so its demand is positive on a slot of the mountain's span; with no
    narrow part every slot is a gap of the empty plan, and ``full_cover``
    refuses every candidate there. Its jobs are left to the longs.
    """
    by_id = {j.id: j for j in jobs}
    d = tuple(len(m.job_ids) for m in rng.mountains)
    longs = tuple(Resource(lid, p + 1, q + 1, r.w, r.c) for lid, (r, p, q) in enumerate(wides))
    long_origin = {lid: r.id for lid, (r, _, _) in enumerate(wides)}

    shorts: list[ShortResource] = []
    solutions: list[PartialSolution] = []
    for idx, m in enumerate(rng.mountains):
        if not narrows[idx]:
            continue
        priced = price_mountain([by_id[i] for i in sorted(m.job_ids)], CoverPlan(narrows[idx], T))
        for kappa in range(1, d[idx] + 1):
            res = priced[kappa]
            if res is None:
                continue
            sol = res.solution
            if len(sol.covered) != kappa:
                raise RuntimeError(f"short for mountain {idx} covers "
                                   f"{len(sol.covered)} jobs, not kappa={kappa}")
            narrow_prof = multiset_profile(sol.counts, narrows[idx], T)
            if not covers(narrow_prof, job_profile((by_id[i] for i in sol.covered), T)):
                raise RuntimeError(f"narrow multiset of mountain {idx} does not cover "
                                   f"its kappa={kappa} jobs")
            shorts.append(ShortResource(len(shorts), idx + 1, kappa, res.cost))
            solutions.append(sol)

    inst = LspcInstance(len(d), d, tuple(shorts), longs, sum(d))
    return LspcBuild(inst, tuple(solutions), long_origin)


def lift_lspc(sol: LspcSolution, build: LspcBuild, rng: MountainRange,
              ) -> tuple[list[tuple[int, int]], frozenset[int]]:
    """Expand a long/short solution back over the split's parts.

    Returns the picked parts as (resource id, copies) pairs, one per part,
    and the covered jobs. Picked shorts contribute their priced narrow
    multiset and jobs; picked longs map back to their wide parts. Where
    the coverage profile asks for more jobs at a mountain than its short
    supplied, the capacity of the picked longs over the mountain's slot
    absorbs the smallest-id uncovered jobs.
    """
    picks: list[tuple[int, int]] = []
    covered: set[int] = set()
    short_kappa: dict[int, int] = {}
    for sid in sol.short_picks:
        priced = build.short_solutions[sid]
        picks.extend(priced.counts.items())
        covered |= priced.covered
        short = build.instance.shorts[sid]
        short_kappa[short.t - 1] = short.w
    wide_cap = [0] * len(rng.mountains)
    for lid, n in sol.long_counts.items():
        long = build.instance.longs[lid]
        picks.append((build.long_origin[lid], n))
        for t in range(long.s - 1, long.e):
            wide_cap[t] += n * long.w

    for idx, m in enumerate(rng.mountains):
        extra = sol.coverage[idx] - short_kappa.get(idx, 0)
        if extra <= 0:
            continue
        if wide_cap[idx] < extra:
            raise RuntimeError(f"mountain {idx}: picked wide capacity {wide_cap[idx]} "
                               f"cannot absorb {extra} extra jobs")
        remaining = sorted(m.job_ids - covered)
        covered.update(remaining[:extra])
    return picks, frozenset(covered)


def pc_to_smfc(inst: Instance) -> Instance:
    """Prize-collecting instance -> full cover by once-only jobs and
    unlimited resources, which is the instance itself: its jobs are the
    once-only class and its resources the unlimited class.

    ``Instance`` has checked the timeline, the jobs and the resources, so
    only the penalties, which prize collecting alone needs, are checked
    here: raises ValueError for a job without one.
    """
    check_penalties(inst.jobs)
    return inst


def _completion_floor(jobs: Sequence[Job], free: Sequence[int], plan: CoverPlan,
                      base: Sequence[int],
                      ) -> Callable[[Sequence[int], int, int, Cost], Cost]:
    """The cost floor for the prefixes of ``smfc_solve_exact``'s walk.

    Built once per instance over the free positions ``free`` and the
    residual demand ``base`` that the forced jobs leave (the profile of
    the free and settled jobs). ``floor(residual, start, left, stop)`` is
    at most c(E) plus the optimal cover cost of the residual that E
    leaves, for every E of ``left`` positions from ``free[start:]`` (the
    argument is in ``smfc_solve_exact``). It starts from the sum of the
    ``left`` smallest penalties in ``free[start:]`` (the rows ``cheap``,
    built in one backward pass over ``free``) and returns it at once if
    it reaches ``stop``; else it takes the segments' estimates one by
    one, each a floor on its own, and returns as soon as one reaches
    ``stop``. Picks only lower the residual, so only the segments of
    ``plan`` that ``base`` leaves positive count, and one whose cheapest
    resource costs nothing never does.
    """
    k = len(free)
    cheap: list[list[int]] = [[0]] * (k + 1)
    costs: list[int] = []
    for idx in range(k - 1, -1, -1):
        bisect.insort(costs, jobs[free[idx]].penalty)
        cheap[idx] = list(itertools.accumulate(costs, initial=0))
    segments = [(a, b, r.c, r.w) for (a, b), r in zip(plan.segments, plan.cheapest)
                if r.c and max(base[a:b]) > 0]

    def floor(residual: Sequence[int], start: int, left: int, stop: Cost) -> Cost:
        low = est = cheap[start][left]
        if low >= stop:
            return low
        for a, b, c, w in segments:
            p = max(residual[a:b]) - left
            if p > 0 and low - (-p * c // w) > est:
                est = low - (-p * c // w)
                if est >= stop:
                    break
        return est

    return floor


def smfc_solve_exact(inst: Instance) -> PrizeSolveResult:
    """Exact minimum over sets of picked jobs, each completed by an exact
    full cover of the residual demand with the unlimited class. The
    answer covers every job outside the winning set with that cover.

    Sets are visited by size, then lexicographically, and only a strictly
    smaller total replaces the best, so the first set to reach the
    minimum wins, with the lexicographically smallest copy vector of its
    cover.

    The jobs fall into three classes, and only the free ones are walked:

    - forced: the job touches a gap (``CoverPlan.touches_gap``), so no
      cover reaches it and every feasible set picks it;
    - settled: the job touches no gap and lies inside a kept resource r
      (r.s <= j.s, j.e <= r.e) that costs no more than its penalty
      (r.c <= j.penalty), so the winner never picks it;
    - free: every other job.

    The winner never picks a settled job j: take any set that picks it,
    un-pick j and add one copy of r. Since r.w >= 1, r covers the unit
    that j puts back on each of its slots, so the cover stays feasible,
    and the total does not rise. The new set is one smaller, so the walk
    visits it first, and only a strictly smaller total replaces the best.
    Scanning the kept resources (``plan.order``) is enough: a resource
    that ``undominated`` drops lies inside a kept one that costs less.

    The search runs over ``forced + extra``, with ``extra`` a subset of
    the free positions, by growing size; the profile of the free and
    settled jobs is the starting residual, and a settled job's demand
    never leaves it. This keeps the visiting order of the sets that
    remain: for equal-size A and B disjoint from the forced set F,
    sorted(A + F) < sorted(B + F) exactly when sorted(A) < sorted(B),
    since both pairs differ first at the smallest element of their
    symmetric difference. Sets that cannot be feasible (missing a forced
    job) or cannot win (picking a settled job) are never visited, so the
    first set in (size, lexicographic) order to reach the minimum is the
    same with or without them. Its cover is asked for under a cutoff
    above that minimum, which returns the lexicographically smallest
    optimal cover whatever the cutoff, so the counts are the same too.
    Picking every free job leaves the settled jobs' demand, which their
    resources cover, so some set is always feasible.

    Each size is walked depth first, which is the same lexicographic
    order, carrying the cost ``scost`` and the residual demand of the
    chosen prefix, and each cover runs under the cutoff ``best - scost``:
    a cover at or above it could not give a strictly smaller total, so
    any cover that comes back is a new best.

    A prefix is dropped, with every set it starts, when its completions
    provably cannot beat the best total. Say the prefix leaves ``left``
    more picks from ``free[start:]`` (the root of a size is the forced set
    with ``left = size``). Let ``cheap`` be the sum of the ``left``
    smallest penalties there. For every completion E:

    - c(E) >= cheap, since penalties are at least 0;
    - each slot of the final residual is at least ``residual - left``,
      since each job of E takes one unit off a slot at most (the settled
      jobs' demand only raises the residual, and none is ever taken);
    - ``full_cover``'s root bound, the largest ceil(peak * c / w) over
      the segments of the plan with the cheapest-per-unit resource (c, w)
      of each, is admissible: a cover puts at least the peak of capacity
      on the segment's slots, and each unit there costs at least c / w.
      It does not grow when the demand falls, and any one segment's
      estimate is a floor as well.

    So every total is at least ``scost + cheap`` plus that root bound
    taken over ``residual - left``, and the prefix is dropped when this
    floor reaches the best total. A dropped set's total would reach the
    best as well, and only a strictly smaller total replaces the best, so
    every set that is dropped would have been refused or lost; the best
    only falls, so this holds for every later set too. The sets that
    survive keep their order and their cutoff ``best - scost``, so the
    covers asked for, their results and the winner are the same as
    without the drop. At a leaf (``left = 0``) ``cheap`` is 0 and the
    floor is ``full_cover``'s root bound under the same cutoff, so a set
    that call would refuse at its root bound costs no call. (No demand
    is left in a gap: the forced jobs take all of it.)

    Refuses an instance whose 2^f sets of its f free jobs exceed
    ``MAX_CANDIDATES`` rather than approximating silently; forced and
    settled jobs do not count against it.
    """
    jobs = inst.jobs
    plan = CoverPlan(inst.resources, inst.T)
    kept = [plan.resources[p] for p in plan.order]
    forced: list[int] = []
    settled: list[int] = []
    free: list[int] = []
    for i, j in enumerate(jobs):
        if plan.touches_gap(j.s, j.e):
            forced.append(i)
            continue
        for r in kept:
            if r.s <= j.s and j.e <= r.e and r.c <= j.penalty:
                settled.append(i)
                break
        else:
            free.append(i)
    check_candidates(1 << len(free), f"sets of {len(free)} free jobs")
    # the demand left by the forced and chosen jobs
    residual = list(job_profile((jobs[i] for i in free + settled), inst.T))
    forced_cost = sum(jobs[i].penalty for i in forced)
    # the best total, the free jobs it picked and its cover's counts
    best: Cost = INFEASIBLE
    best_picked: frozenset[int] = frozenset()
    best_counts: Mapping[int, int] = {}
    floor = _completion_floor(jobs, free, plan, residual)

    chosen: list[int] = []

    def walk(start: int, left: int, scost: int) -> None:
        """Cover every ``chosen`` + ``left`` more of ``free[start:]``."""
        nonlocal best, best_picked, best_counts
        if not left:
            fc = full_cover(plan.segment_demand(residual), plan, best - scost)
            if fc.feasible:
                best, best_picked, best_counts = scost + fc.cost, frozenset(chosen), fc.counts
            return
        rest = left - 1
        for idx in range(start, len(free) - rest):
            i = free[idx]
            j = jobs[i]
            cost = scost + j.penalty
            room = best - cost
            for t in range(j.s - 1, j.e):
                residual[t] -= 1
            if floor(residual, idx + 1, rest, room) < room:
                chosen.append(i)
                walk(idx + 1, rest, cost)
                chosen.pop()
            for t in range(j.s - 1, j.e):
                residual[t] += 1

    for size in range(len(free) + 1):
        room = best - forced_cost
        if floor(residual, 0, size, room) < room:
            walk(0, size, forced_cost)
    # job ids are their positions; the forced and picked jobs go uncovered
    covered = frozenset(range(len(jobs))).difference(forced, best_picked)
    return PrizeSolveResult(best, PartialSolution(best_counts, covered))
