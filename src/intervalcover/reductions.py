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
a slot no real resource covers, and prunes each subset's cover against
the best total found so far.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    INFEASIBLE,
    BudgetExceeded,
    Cost,
    Instance,
    Job,
    PartialSolution,
    Resource,
    covers,
    job_profile,
    multiset_profile,
)
from .fullcover import FullCoverResult, full_cover
from .lspc import LspcInstance, LspcSolution, ShortResource
from .mountains import MountainRange, single_mountain_solve

MAX_STYPES = 16  # cap on once-only resources for smfc_solve_exact's subset enumeration


@dataclass(frozen=True)
class DerivedResource:
    resource: Resource
    origin: int
    role: str  # "narrow" | "wide"
    mountain: int | None  # owning mountain index for narrow parts


@dataclass(frozen=True)
class SplitMap:
    """origin resource id -> (left-narrow, wide, right-narrow) derived ids."""

    parts: Mapping[int, tuple[int | None, int | None, int | None]]


def split_narrow_wide(rng: MountainRange, resources: Sequence[Resource],
                      ) -> tuple[tuple[DerivedResource, ...], SplitMap]:
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
    return tuple(derived), SplitMap(parts)


def lift_split(sol: PartialSolution, smap: SplitMap) -> PartialSolution:
    """Map a solution over derived parts back to the original resources:
    each original gets the maximum of its parts' counts. Never costs more
    than the part solution and stays feasible."""
    counts: dict[int, int] = {}
    for origin, ids in smap.parts.items():
        f = max((sol.counts.get(d, 0) for d in ids if d is not None), default=0)
        if f > 0:
            counts[origin] = f
    return PartialSolution(counts, sol.covered)


@dataclass(frozen=True)
class ShortAssociation:
    """Why a synthetic short is priced the way it is: the narrow multiset
    that covers exactly ``kappa`` jobs of mountain ``mountain``."""

    mountain: int
    kappa: int
    counts: Mapping[int, int]
    covered: frozenset[int]


@dataclass(frozen=True)
class LspcBuild:
    instance: LspcInstance
    associations: Mapping[int, ShortAssociation]  # short id -> association
    long_origin: Mapping[int, int]  # long id -> derived wide resource id


def build_lspc(rng: MountainRange, jobs: Sequence[Job],
               derived: Sequence[DerivedResource], k: int, T: int) -> LspcBuild:
    """Collapse a split mountain range into a long/short instance.

    One timeslot per mountain; the demand is the mountain's job count.
    Wide parts become longs over the block of mountains they span. For
    every mountain and every kappa up to its size, the single-mountain
    solver over the mountain's narrow parts prices a short of capacity
    kappa; infeasible pairs emit nothing.
    """
    by_id = {j.id: j for j in jobs}
    spans = [m.span for m in rng.mountains]
    r = len(spans)
    d = tuple(len(m.job_ids) for m in rng.mountains)

    longs: list[Resource] = []
    long_origin: dict[int, int] = {}
    for rec in derived:
        if rec.role != "wide":
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
        mjobs = [by_id[i] for i in sorted(m.job_ids)]
        narrows = [rec.resource for rec in derived if rec.role == "narrow" and rec.mountain == idx]
        for kappa in range(1, d[idx] + 1):
            res = single_mountain_solve(mjobs, narrows, kappa, T)
            if res.solution is None:
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

    inst = LspcInstance(r, d, tuple(shorts), tuple(longs), k)
    return LspcBuild(inst, associations, long_origin)


def lift_lspc(sol: LspcSolution, build: LspcBuild, rng: MountainRange,
              derived: Sequence[DerivedResource]) -> PartialSolution:
    """Expand a long/short solution back over the derived resources.

    Picked shorts contribute their associated narrow multiset and jobs;
    picked longs map back to their wide parts. Where the coverage profile
    asks for more jobs at a mountain than its short supplied, the wide
    capacity active there absorbs the smallest-id uncovered jobs.
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

    by_id = {rec.resource.id: rec.resource for rec in derived}
    for idx, m in enumerate(rng.mountains):
        extra = sol.coverage[idx] - short_kappa.get(idx, 0)
        if extra <= 0:
            continue
        wide_cap = sum(n * by_id[did].w for did, n in counts.items()
                       if by_id[did].s <= m.span[0] and m.span[1] <= by_id[did].e)
        if wide_cap < extra:
            raise RuntimeError(f"mountain {idx}: picked wide capacity {wide_cap} "
                               f"cannot absorb {extra} extra jobs")
        remaining = sorted(m.job_ids - covered)
        covered.update(remaining[:extra])
    return PartialSolution(counts, frozenset(covered))


@dataclass(frozen=True)
class SmfcInstance:
    """Full cover with two resource classes: once-only and unlimited-copy."""

    T: int
    demand: tuple[int, ...]
    s_types: tuple[Resource, ...]  # at most one copy each
    m_types: tuple[Resource, ...]  # unlimited copies

    def __post_init__(self):
        if len(self.demand) != self.T:
            raise ValueError("demand length must equal T")


@dataclass(frozen=True)
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

    Each cover runs under the cutoff ``best - subset cost``: a cover at or
    above it could not give a strictly smaller total. Covers are memoised
    per residual together with their cutoff. A feasible entry is the
    optimum with its lexicographically smallest copy vector and is always
    reused; an infeasible one only says the optimum is at or above its
    cutoff, so it is reused under a cutoff no larger and solved again
    under a larger one.

    Refuses instances with more than ``MAX_STYPES`` once-only resources
    rather than approximating silently.
    """
    s_types, demand = smfc.s_types, smfc.demand
    n = len(s_types)
    if n > MAX_STYPES:
        raise BudgetExceeded(
            f"{n} once-only resources exceed the subset-enumeration cap of {MAX_STYPES}")
    best = SmfcResult(INFEASIBLE, frozenset(), {})
    live = [False] * smfc.T
    for r in smfc.m_types:
        live[r.s - 1:r.e] = [True] * (r.e - r.s + 1)
    cap = [0] * smfc.T  # total once-only capacity per slot
    for r in s_types:
        for t in range(r.s - 1, r.e):
            cap[t] += r.w
    dead = [t for t in range(smfc.T) if demand[t] > 0 and not live[t]]
    if any(cap[t] < demand[t] for t in dead):
        return best
    forced = [i for i, r in enumerate(s_types)
              if any(r.s - 1 <= t < r.e and cap[t] - r.w < demand[t] for t in dead)]
    free = [i for i in range(n) if i not in forced]
    base = list(demand)
    for i in forced:
        r = s_types[i]
        for t in range(r.s - 1, r.e):
            base[t] -= r.w
    forced_cost = sum(s_types[i].c for i in forced)

    cover_memo: dict[tuple[int, ...], tuple[Cost, FullCoverResult]] = {}
    for size in range(len(free) + 1):
        for extra in itertools.combinations(free, size):
            scost = forced_cost + sum(s_types[i].c for i in extra)
            if scost >= best.cost:
                continue
            residual = base[:]
            for i in extra:
                r = s_types[i]
                for t in range(r.s - 1, r.e):
                    residual[t] -= r.w
            key = tuple([x if x > 0 else 0 for x in residual])
            cutoff = best.cost - scost
            hit = cover_memo.get(key)
            if hit is not None and (hit[1].feasible or cutoff <= hit[0]):
                fc = hit[1]
            else:
                fc = full_cover(key, smfc.m_types, cutoff)
                cover_memo[key] = (cutoff, fc)
            if not fc.feasible:
                continue
            total = scost + fc.cost
            if total < best.cost:
                best = SmfcResult(total, frozenset(forced).union(extra), fc.counts)
    return best


def lift_smfc(result: SmfcResult, smfc: SmfcInstance) -> PartialSolution:
    """Back to prize-collecting: a selected once-only resource means its
    job goes uncovered and pays its penalty; everything else is covered by
    the unlimited-class picks. The totals match exactly."""
    uncovered = {smfc.s_types[i].id for i in result.s_selected}
    covered = frozenset(r.id for r in smfc.s_types) - uncovered
    return PartialSolution(dict(result.m_counts), covered)
