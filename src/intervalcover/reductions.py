"""Reductions between the problem variants and their lifting maps.

Mountain-range side: resources are first split so that every derived
part is either narrow (contained in one mountain's span) or wide (fully
spanning every mountain it touches); a part whose interval equals a full
mountain span counts as wide. Each original resource yields at most
three parts, so the split costs at most a factor 3, and a solution over
parts lifts back by taking, per original resource, the largest part
count. The split range then collapses into a long/short instance: one
timeslot per mountain, demands equal to mountain sizes, wide resources
become longs, and for every (mountain, kappa) the single-mountain solver
over the mountain's narrow parts prices a synthetic short of capacity
kappa. Each short remembers the narrow multiset and the kappa jobs that
justify its price, so picked shorts expand back into real coverage.

Prize-collecting side: covering all jobs with an escape hatch per job.
The demand is the full job profile; every job contributes a once-only
resource over its own interval with unit capacity and cost equal to its
penalty, and the real resources stay available in unlimited copies.
Costs transfer exactly in both directions, so solving the covering
problem exactly solves the prize-collecting problem exactly. The exact
search over once-only subsets skips every subset that leaves demand at
a slot no real resource covers and walks each subset size depth first.
It drops a prefix, with every subset it starts, once a lower bound on
its completions (the cheapest costs still to pick plus full cover's root
bound on the demand that the largest capacities still to pick could
leave) reaches the best total found so far, prunes each remaining
subset's cover against that total, and stops at the first subset size
whose cheapest subset cannot beat it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import (
    INFEASIBLE,
    BudgetExceeded,
    Cost,
    Instance,
    Job,
    PartialSolution,
    Resource,
    SolveResult,
    check_resources,
    covers,
    job_profile,
    multiset_profile,
)
from .fullcover import CoverPlan, full_cover
from .lspc import LspcInstance, LspcSolution, ShortResource
from .mountains import MountainRange, single_mountain_solve

MAX_STYPES = 16  # cap on once-only resources for smfc_solve_exact's subset enumeration


@dataclass(frozen=True, slots=True)
class DerivedResource:
    resource: Resource
    origin: int
    role: str  # "narrow" | "wide"
    mountain: int | None  # owning mountain index for narrow parts


# origin resource id -> (left-narrow, wide, right-narrow) derived ids, None where absent
SplitParts = Mapping[int, tuple[int | None, int | None, int | None]]


def split_narrow_wide(rng: MountainRange, resources: Sequence[Resource],
                      ) -> tuple[tuple[DerivedResource, ...], SplitParts]:
    """Split every resource into narrow and wide parts over the range.

    Parts keep the original capacity and cost. Resources that touch no
    mountain span are dropped; a strictly partial overlap with the first
    or last touched mountain becomes a narrow part and the fully spanned
    block in between (if any) becomes the wide part.
    """
    spans = [m.span for m in rng.mountains]
    derived: list[DerivedResource] = []
    parts: dict[int, tuple[int | None, int | None, int | None]] = {}

    def add(origin: int, s: int, e: int, w: int, c: int, role: str, mountain: int | None) -> int:
        did = len(derived)
        derived.append(DerivedResource(Resource(did, s, e, w, c), origin, role, mountain))
        return did

    for r in resources:
        touched = [i for i, (s, e) in enumerate(spans) if r.s <= e and s <= r.e]
        if not touched:
            parts[r.id] = (None, None, None)
            continue
        p, q = touched[0], touched[-1]
        full = [r.s <= spans[i][0] and spans[i][1] <= r.e for i in (p, q)]
        left = wide = right = None
        if not full[0]:
            left = add(r.id, max(r.s, spans[p][0]), min(r.e, spans[p][1]), r.w, r.c, "narrow", p)
        if q != p and not full[1]:
            right = add(r.id, max(r.s, spans[q][0]), min(r.e, spans[q][1]), r.w, r.c, "narrow", q)
        p2 = p if full[0] else p + 1
        q2 = q if full[1] or q == p else q - 1
        if p2 <= q2 and (q != p or full[0]):
            wide = add(r.id, spans[p2][0], spans[q2][1], r.w, r.c, "wide", None)
        parts[r.id] = (left, wide, right)
    return tuple(derived), parts


def lift_split(sol: PartialSolution, parts: SplitParts) -> PartialSolution:
    """Map a solution over derived parts back to the original resources:
    each original gets the maximum of its parts' counts. Never costs more
    than the part solution and stays feasible."""
    picked = sol.counts
    counts: dict[int, int] = {}
    for origin, ids in parts.items():
        f = 0
        for d in ids:
            if d is not None and picked.get(d, 0) > f:
                f = picked[d]
        if f > 0:
            counts[origin] = f
    return PartialSolution(counts, sol.covered)


@dataclass(frozen=True, slots=True)
class ShortAssociation:
    """Why a synthetic short is priced the way it is: the narrow multiset
    that covers exactly ``kappa`` jobs of mountain ``mountain``."""

    mountain: int
    kappa: int
    counts: Mapping[int, int]
    covered: frozenset[int]


@dataclass(frozen=True, slots=True)
class LspcBuild:
    instance: LspcInstance
    associations: Mapping[int, ShortAssociation]  # short id -> association
    long_origin: Mapping[int, int]  # long id -> derived wide resource id


def build_lspc(rng: MountainRange, jobs: Sequence[Job],
               derived: Sequence[DerivedResource], T: int) -> LspcBuild:
    """Collapse a split mountain range into a long/short instance.

    One timeslot per mountain; the demand is the mountain's job count.
    Wide parts become longs over the block of mountains they span. For
    every mountain and every kappa up to its size, the single-mountain
    solver over the mountain's narrow parts prices a short of capacity
    kappa; infeasible pairs emit nothing. The instance's target k is
    sum(d), the largest target a caller may ask: callers ask
    ``LspcSolver.solve_for`` for each target they need.

    Each mountain's narrow parts get one ``CoverPlan``, and kappa is
    priced from the mountain's size down to 1, each call cut off at the
    cost of the winner for kappa + 1, plus 1. The cutoff loses nothing:
    the (kappa + 1) winner keeps the jobs left after dropping a prefix of
    the start order and a prefix of the falling end order; growing the
    start prefix up to the first job it keeps gives a kappa candidate
    whose demand profile the winner's profile dominates, so the winner's
    multiset covers it and opt(kappa) <= opt(kappa + 1) < cutoff. The
    cut call therefore returns the uncut winner, and a kappa that comes
    back infeasible under a seeded cutoff raises RuntimeError. Shorts are
    still emitted in ascending kappa.

    A mountain without narrow parts gets neither a plan nor a pricing
    call, and emits no short. Every candidate of a kappa >= 1 keeps a job,
    so its demand is positive on a slot of the mountain's span; with no
    narrow part every slot is a gap of the empty plan, and ``full_cover``
    refuses every candidate there. Its jobs are left to the longs.
    """
    by_id = {j.id: j for j in jobs}
    spans = [m.span for m in rng.mountains]
    r = len(spans)
    d = tuple(len(m.job_ids) for m in rng.mountains)

    longs: list[Resource] = []
    long_origin: dict[int, int] = {}
    narrows_of: list[list[Resource]] = [[] for _ in spans]  # in derived order
    for rec in derived:
        if rec.role != "wide":
            narrows_of[rec.mountain].append(rec.resource)
            continue
        covered_idx = [i for i, (s, e) in enumerate(spans)
                       if rec.resource.s <= s and e <= rec.resource.e]
        if not covered_idx:
            raise RuntimeError(f"wide part {rec.resource.id} spans no mountain")
        p, q = covered_idx[0], covered_idx[-1]
        if covered_idx != list(range(p, q + 1)):
            raise RuntimeError(f"wide part {rec.resource.id} spans non-contiguous mountains")
        lid = len(longs)
        longs.append(Resource(lid, p + 1, q + 1, rec.resource.w, rec.resource.c))
        long_origin[lid] = rec.resource.id

    shorts: list[ShortResource] = []
    associations: dict[int, ShortAssociation] = {}
    for idx, m in enumerate(rng.mountains):
        narrows = narrows_of[idx]
        if not narrows:
            continue
        mjobs = [by_id[i] for i in sorted(m.job_ids)]
        plan = CoverPlan(narrows, T)
        priced: list[SolveResult | None] = [None] * (d[idx] + 1)
        cutoff = INFEASIBLE
        for kappa in range(d[idx], 0, -1):
            res = single_mountain_solve(mjobs, plan, kappa, cutoff)
            if res.solution is not None:
                priced[kappa] = res
                cutoff = res.cost + 1
            elif cutoff != INFEASIBLE:
                raise RuntimeError(f"mountain {idx}: kappa={kappa} found no cover below "
                                   f"{cutoff}, the cost of kappa={kappa + 1} plus 1")
        for kappa in range(1, d[idx] + 1):
            res = priced[kappa]
            if res is None:
                continue
            assoc = ShortAssociation(idx, kappa, res.solution.counts, res.solution.covered)
            if len(assoc.covered) != kappa:
                raise RuntimeError(f"short for mountain {idx} covers "
                                   f"{len(assoc.covered)} jobs, not kappa={kappa}")
            narrow_prof = multiset_profile(assoc.counts, narrows, T)
            if not covers(narrow_prof, job_profile((by_id[i] for i in assoc.covered), T)):
                raise RuntimeError(f"narrow multiset of mountain {idx} does not cover "
                                   f"its kappa={kappa} jobs")
            sid = len(shorts)
            shorts.append(ShortResource(sid, idx + 1, kappa, res.cost))
            associations[sid] = assoc

    inst = LspcInstance(r, d, tuple(shorts), tuple(longs), sum(d))
    return LspcBuild(inst, associations, long_origin)


def lift_lspc(sol: LspcSolution, build: LspcBuild, rng: MountainRange,
              derived: Sequence[DerivedResource]) -> PartialSolution:
    """Expand a long/short solution back over the derived resources.

    Picked shorts contribute their associated narrow multiset and jobs;
    picked longs map back to their wide parts. Where the coverage profile
    asks for more jobs at a mountain than its short supplied, the wide
    capacity active there absorbs the smallest-id uncovered jobs.
    Derived ids are positions in ``derived``, as ``split_narrow_wide``
    assigns them.
    """
    counts: dict[int, int] = {}
    covered: set[int] = set()
    short_kappa: dict[int, int] = {}
    for sid in sol.short_picks:
        assoc = build.associations[sid]
        for did, n in assoc.counts.items():
            counts[did] = counts.get(did, 0) + n
        covered |= assoc.covered
        short_kappa[assoc.mountain] = assoc.kappa
    for lid, n in sol.long_counts.items():
        did = build.long_origin[lid]
        counts[did] = counts.get(did, 0) + n

    for idx, m in enumerate(rng.mountains):
        extra = sol.coverage[idx] - short_kappa.get(idx, 0)
        if extra <= 0:
            continue
        wide_cap = 0
        for did, n in counts.items():
            r = derived[did].resource
            if r.s <= m.span[0] and m.span[1] <= r.e:
                wide_cap += n * r.w
        if wide_cap < extra:
            raise RuntimeError(f"mountain {idx}: picked wide capacity {wide_cap} "
                               f"cannot absorb {extra} extra jobs")
        remaining = sorted(m.job_ids - covered)
        covered.update(remaining[:extra])
    return PartialSolution(counts, frozenset(covered))


@dataclass(frozen=True, slots=True)
class SmfcInstance:
    """Full cover with two resource classes: once-only and unlimited-copy.

    Raises ValueError for a demand of the wrong length or below 0, and for
    a resource outside [1, T], with capacity below 1 or a negative cost.
    """

    T: int
    demand: tuple[int, ...]
    s_types: tuple[Resource, ...]  # at most one copy each
    m_types: tuple[Resource, ...]  # unlimited copies

    def __post_init__(self):
        if len(self.demand) != self.T:
            raise ValueError("demand length must equal T")
        for t, d in enumerate(self.demand):
            if d < 0:
                raise ValueError(f"demand[{t}] is negative: {d}")
        check_resources("s_types", self.s_types, self.T)
        check_resources("m_types", self.m_types, self.T)


@dataclass(frozen=True, slots=True)
class SmfcResult:
    cost: Cost
    s_selected: frozenset[int]  # positions in s_types
    m_counts: Mapping[int, int]


def pc_to_smfc(inst: Instance) -> SmfcInstance:
    """Prize-collecting instance -> once-only/unlimited full cover.

    The demand is the profile of all jobs; every job becomes a once-only
    unit-capacity resource over its interval priced at its penalty, and
    the original resources carry over as the unlimited class. Once-only
    resource i stands for job i: same id, same position in ``s_types``.
    """
    if any(j.penalty is None for j in inst.jobs):
        raise ValueError("every job needs a penalty")
    demand = job_profile(inst.jobs, inst.T)
    s_types = tuple(Resource(j.id, j.s, j.e, 1, j.penalty) for j in inst.jobs)
    return SmfcInstance(inst.T, demand, s_types, inst.resources)


def _completion_floor(s_types: Sequence[Resource], free: Sequence[int], plan: CoverPlan,
                      base: Sequence[int],
                      ) -> tuple[list[list[int]], Callable[[Sequence[int], int, int, Cost], Cost]]:
    """Cost floors for the prefixes of ``smfc_solve_exact``'s walk.

    Built once per instance over the free positions ``free`` and the
    residual demand ``base`` that the forced resources leave. Returns
    ``(cheap, floor)``. ``cheap[i][m]`` is the sum of the m smallest costs
    in ``free[i:]``, and ``drop[i][m]`` the sum of the m largest
    capacities there; one backward pass over ``free`` builds both.
    ``floor(residual, start, left, stop)`` is at most c(E) plus the
    optimal cover cost of the residual that E leaves, for every E of
    ``left`` positions from ``free[start:]`` (the argument is in
    ``smfc_solve_exact``). It takes the segments' estimates one by one,
    each a floor on its own, and returns as soon as one reaches ``stop``.
    Picks only lower the residual, so only the segments of ``plan`` that
    ``base`` leaves positive count, and one whose cheapest resource costs
    nothing never does.
    """
    k = len(free)
    cheap: list[list[int]] = [[0]] * (k + 1)
    drop: list[list[int]] = [[0]] * (k + 1)
    costs: list[int] = []
    caps: list[int] = []
    for idx in range(k - 1, -1, -1):
        r = s_types[free[idx]]
        bisect.insort(costs, r.c)
        bisect.insort(caps, r.w)
        cheap[idx] = list(itertools.accumulate(costs, initial=0))
        drop[idx] = list(itertools.accumulate(reversed(caps), initial=0))
    segments = [(a, b, r.c, r.w) for (a, b), r in zip(plan.segments, plan.cheapest)
                if r.c and max(base[a:b]) > 0]

    def floor(residual: Sequence[int], start: int, left: int, stop: Cost) -> Cost:
        d = drop[start][left]
        low = cheap[start][left]
        est = low
        for a, b, c, w in segments:
            p = max(residual[a:b]) - d
            if p > 0 and low - (-p * c // w) > est:
                est = low - (-p * c // w)
                if est >= stop:
                    break
        return est

    return cheap, floor


def smfc_solve_exact(smfc: SmfcInstance) -> SmfcResult:
    """Exact minimum over once-only subsets, each completed by an exact
    full cover of the residual demand with the unlimited class.

    Subsets are visited by size, then lexicographically, and only a
    strictly smaller total replaces the best, so the first subset to
    reach the minimum wins, with the lexicographically smallest copy
    vector of its cover.

    Subsets that cannot be feasible are never visited. At a dead slot,
    one with positive demand that no unlimited resource covers, only
    once-only capacity counts. A once-only resource without which the
    others fall short at some dead slot is forced: every feasible subset
    contains it. So the search runs over ``forced + extra``, with
    ``extra`` a subset of the free positions, by growing size. This keeps
    the visiting order of the feasible subsets: for equal-size A and B
    disjoint from the forced set F, sorted(A + F) < sorted(B + F) exactly
    when sorted(A) < sorted(B), since both pairs differ first at the
    smallest element of their symmetric difference. For a prize-collecting
    reduction the forced set is every job touching a slot no real
    resource covers.

    Each size is walked depth first, which is the same lexicographic
    order, carrying the cost ``scost`` and the residual demand of the
    chosen prefix, and each cover runs under the cutoff ``best - scost``:
    a cover at or above it could not give a strictly smaller total, so
    any cover that comes back is a new best.

    A prefix is dropped, with every subset it starts, when its completions
    provably cannot beat the best total. Say the prefix leaves ``left``
    more picks from ``free[start:]`` (the root of a size is the forced set
    with ``left = size``). Let ``cheap`` be the sum of the ``left``
    smallest costs there and ``drop`` the sum of the ``left`` largest
    capacities. For every completion E:

    - c(E) >= cheap, since once-only costs are at least 0;
    - each slot of the final residual is at least ``residual - drop``,
      since E adds at most ``drop`` capacity to any slot;
    - ``full_cover``'s root bound, the largest ceil(peak * c / w) over
      the segments of the plan with the cheapest-per-unit resource (c, w)
      of each, is admissible: a cover puts at least the peak of capacity
      on the segment's slots, and each unit there costs at least c / w.
      It does not grow when the demand falls, and any one segment's
      estimate is a floor as well.

    So every total is at least ``scost + cheap`` plus that root bound
    taken over ``residual - drop``, and the prefix is dropped when this
    floor reaches the best total. A dropped subset's total would reach
    the best as well, and only a strictly smaller total replaces the
    best, so every subset that is dropped would have been refused or
    lost; the best only falls, so this holds for every later subset too.
    The subsets that survive keep their order and their cutoff
    ``best - scost``, so the covers asked for, their results and the
    winner are the same as without the drop. At a leaf (``left = 0``)
    ``cheap`` and ``drop`` are 0 and the floor is ``full_cover``'s root
    bound under the same cutoff, so a subset that call would refuse at
    its root bound costs no call. (A prize-collecting reduction leaves no
    demand in a gap: the forced jobs take all of it.) Lowering the peaks
    by ``left`` alone, one unit per pick, would not be a floor once a
    once-only capacity exceeds 1.

    The costs give a floor for a whole size: ``forced cost + cheap``
    over all of ``free`` grows with the size, so once it reaches the best
    total the enumeration stops.

    Refuses instances with more than ``MAX_STYPES`` once-only resources
    rather than approximating silently.
    """
    s_types, demand = smfc.s_types, smfc.demand
    n = len(s_types)
    if n > MAX_STYPES:
        raise BudgetExceeded(
            f"{n} once-only resources exceed the subset-enumeration cap MAX_STYPES={MAX_STYPES}")
    best = SmfcResult(INFEASIBLE, frozenset(), {})
    plan = CoverPlan(smfc.m_types, smfc.T)
    diff = [0] * (smfc.T + 1)
    for r in s_types:
        diff[r.s - 1] += r.w
        diff[r.e] -= r.w
    cap = list(itertools.accumulate(diff[:-1]))  # total once-only capacity per slot
    dead = [t for a, b in plan.gaps for t in range(a, b) if demand[t] > 0]
    if any(cap[t] < demand[t] for t in dead):
        return best
    forced = [i for i, r in enumerate(s_types)
              if any(r.s - 1 <= t < r.e and cap[t] - r.w < demand[t] for t in dead)]
    free = [i for i in range(n) if i not in forced]
    residual = list(demand)  # the demand left by the forced and chosen resources
    for i in forced:
        r = s_types[i]
        for t in range(r.s - 1, r.e):
            residual[t] -= r.w
    forced_cost = sum(s_types[i].c for i in forced)
    cheap, floor = _completion_floor(s_types, free, plan, residual)

    chosen: list[int] = []

    def walk(start: int, left: int, scost: int) -> None:
        """Cover every ``chosen`` + ``left`` more of ``free[start:]``."""
        nonlocal best
        if not left:
            fc = full_cover(residual, plan, best.cost - scost)
            if fc.feasible:
                best = SmfcResult(scost + fc.cost, frozenset(forced).union(chosen), fc.counts)
            return
        rest = left - 1
        for idx in range(start, len(free) - rest):
            i = free[idx]
            r = s_types[i]
            cost = scost + r.c
            room = best.cost - cost
            if cheap[idx + 1][rest] >= room:
                continue  # no subset this prefix starts can win on cost alone
            for t in range(r.s - 1, r.e):
                residual[t] -= r.w
            if floor(residual, idx + 1, rest, room) < room:
                chosen.append(i)
                walk(idx + 1, rest, cost)
                chosen.pop()
            for t in range(r.s - 1, r.e):
                residual[t] += r.w

    for size in range(len(free) + 1):
        room = best.cost - forced_cost
        if cheap[0][size] >= room:
            break
        if floor(residual, 0, size, room) < room:
            walk(0, size, forced_cost)
    return best


def lift_smfc(result: SmfcResult, smfc: SmfcInstance) -> PartialSolution:
    """Back to prize-collecting: a selected once-only resource means its
    job goes uncovered and pays its penalty; everything else is covered by
    the unlimited-class picks. The totals match exactly."""
    uncovered = {smfc.s_types[i].id for i in result.s_selected}
    covered = frozenset(r.id for r in smfc.s_types) - uncovered
    return PartialSolution(dict(result.m_counts), covered)
