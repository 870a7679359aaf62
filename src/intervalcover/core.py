"""Domain types, profile arithmetic, and feasibility checking.

The timeline is the discrete range 1..T; a timeslot is a plain int.
Jobs demand one unit of capacity over their interval. Resources offer
``w`` units over theirs and may be leased in any number of copies, each
copy paid at cost ``c``. A solution pairs a resource multiset with the
set of job ids it commits to cover; feasibility means the multiset's
capacity profile dominates the covered jobs' demand profile pointwise.

Every finite quantity is an exact non-negative integer. The cost of an
unattainable solution is ``INFEASIBLE``, which is ``math.inf``: it
absorbs addition and compares above every finite cost by value, so
``min`` and sums need no special case and a copied or unpickled result
still reads infeasible. It is never a large finite number.
Every type is a frozen, slotted dataclass: immutable after construction,
with no per-instance ``__dict__``. Every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence, Union

MAX_TIMESLOTS = 100_000
MAX_CANDIDATES = 100_000  # cap on what any exact enumeration walks


class BudgetExceeded(RuntimeError):
    """An exact solver refused to run because its search budget was exceeded."""


def check_candidates(count: int, what: str) -> None:
    """Raise BudgetExceeded if an exact enumeration would walk more than
    MAX_CANDIDATES; a count too long to print is shown by its power of 2."""
    if count > MAX_CANDIDATES:
        shown = count if count.bit_length() <= 64 else f"over 2^{count.bit_length() - 1}"
        raise BudgetExceeded(f"{shown} {what} exceed the enumeration cap "
                             f"MAX_CANDIDATES={MAX_CANDIDATES}")


INFEASIBLE = math.inf

Cost = Union[int, float]  # a finite cost is an int; only INFEASIBLE is a float


def is_feasible(cost: Cost) -> bool:
    return cost != INFEASIBLE


@dataclass(frozen=True, slots=True)
class Job:
    id: int
    s: int
    e: int
    penalty: int | None = None

    @property
    def length(self) -> int:
        return self.e - self.s + 1

    def active_at(self, t: int) -> bool:
        return self.s <= t <= self.e


@dataclass(frozen=True, slots=True)
class Resource:
    id: int
    s: int
    e: int
    w: int
    c: int


def check_dense_ids(name: str, items: Sequence) -> None:
    """Raise ValueError unless each item's id equals its position;
    ``name`` labels the sequence in messages."""
    for i, item in enumerate(items):
        if item.id != i:
            raise ValueError(f"{name}[{i}] has id {item.id}, expected dense id {i}")


def check_jobs(name: str, jobs: Sequence[Job], T: int) -> None:
    """Raise ValueError unless every job lies within [1, T] and has no
    negative penalty; ``name`` labels the sequence in messages."""
    for i, j in enumerate(jobs):
        if not 1 <= j.s <= j.e <= T:
            raise ValueError(f"{name}[{i}] interval [{j.s},{j.e}] not within [1,{T}]")
        if j.penalty is not None and j.penalty < 0:
            raise ValueError(f"{name}[{i}] has negative penalty {j.penalty}")


def check_penalties(jobs: Sequence[Job]) -> None:
    """Raise ValueError unless every job has a penalty, as prize
    collecting needs."""
    if any(j.penalty is None for j in jobs):
        raise ValueError("every job needs a penalty for prize collecting")


def check_partiality(k: int | None) -> None:
    """Raise ValueError unless the partiality parameter k is given, as
    partial coverage needs."""
    if k is None:
        raise ValueError("instance has no partiality parameter k")


def check_resources(name: str, resources: Sequence[Resource], T: int) -> None:
    """Raise ValueError unless every resource lies within [1, T] and has
    capacity >= 1 and cost >= 0; ``name`` labels the sequence in messages."""
    for i, r in enumerate(resources):
        if not 1 <= r.s <= r.e <= T:
            raise ValueError(f"{name}[{i}] interval [{r.s},{r.e}] not within [1,{T}]")
        if r.w < 1:
            raise ValueError(f"{name}[{i}] capacity must be >= 1, got {r.w}")
        if r.c < 0:
            raise ValueError(f"{name}[{i}] has negative cost {r.c}")


def undominated(resources: Sequence[Resource]) -> list[int]:
    """Positions of the resources no other one strictly beats.

    ``o`` beats ``r`` when o.s <= r.s, r.e <= o.e and
    ceil(r.w / o.w) * o.c < r.c: that many copies of o cover at least r's
    capacity on all of r's interval for strictly less, so no minimum-cost
    multiset holds a copy of r. The relation is irreflexive (the test is
    strict) and transitive (ceil(r.w / p.w) <= ceil(r.w / o.w) *
    ceil(o.w / p.w)), hence acyclic, so every beaten resource is beaten by
    one that is kept.
    """
    kept = []
    for p, r in enumerate(resources):
        for o in resources:
            if o.s <= r.s and r.e <= o.e and -(-r.w // o.w) * o.c < r.c:
                break  # beaten: the first beater settles it
        else:
            kept.append(p)
    return kept


@dataclass(frozen=True, slots=True)
class Instance:
    """A problem instance over timeline 1..T.

    ``k`` is the partiality parameter (number of jobs a solution must
    cover); it is absent for prize-collecting instances, whose jobs carry
    penalties instead. Ids are dense 0-based and equal each element's
    position, assigned at construction time.
    """

    T: int
    jobs: tuple[Job, ...]
    resources: tuple[Resource, ...]
    k: int | None = None

    def __post_init__(self):
        if not 1 <= self.T <= MAX_TIMESLOTS:
            raise ValueError(f"T must be in [1, {MAX_TIMESLOTS}], got {self.T}")
        check_dense_ids("jobs", self.jobs)
        check_jobs("jobs", self.jobs, self.T)
        check_dense_ids("resources", self.resources)
        check_resources("resources", self.resources, self.T)
        if self.k is not None and not 0 <= self.k <= len(self.jobs):
            raise ValueError(f"k={self.k} not in [0, {len(self.jobs)}]")


def make_instance(T, jobs, resources, k=None) -> Instance:
    """Build an Instance from (s, e) or (s, e, penalty) job tuples and
    (s, e, w, c) resource tuples, assigning dense ids by position."""
    built_jobs = []
    for i, entry in enumerate(jobs):
        if len(entry) == 2:
            s, e = entry
            built_jobs.append(Job(i, s, e))
        else:
            s, e, p = entry
            built_jobs.append(Job(i, s, e, p))
    built_res = tuple(Resource(i, s, e, w, c) for i, (s, e, w, c) in enumerate(resources))
    return Instance(T, tuple(built_jobs), built_res, k)


@dataclass(frozen=True, slots=True)
class PartialSolution:
    """A resource multiset (id -> copies, all counts >= 1) plus the covered job ids."""

    counts: Mapping[int, int]
    covered: frozenset[int]


EMPTY_SOLUTION = PartialSolution({}, frozenset())


@dataclass(frozen=True, slots=True)
class SolveResult:
    cost: Cost
    solution: PartialSolution | None


@dataclass(frozen=True, slots=True)
class PrizeSolveResult:
    total: Cost
    solution: PartialSolution


def job_profile(jobs: Iterable[Job], T: int) -> tuple[int, ...]:
    """Cumulative demand profile: entry t-1 counts the jobs active at timeslot t."""
    diff = [0] * (T + 1)
    for j in jobs:
        diff[j.s - 1] += 1
        diff[j.e] -= 1
    return tuple(accumulate(diff[:T]))


def _resource_index(resources: Sequence[Resource]) -> dict[int, Resource]:
    return {r.id: r for r in resources}


def multiset_profile(counts: Mapping[int, int], resources: Sequence[Resource], T: int) -> tuple[int, ...]:
    """Capacity profile of a resource multiset, copies included.

    Raises ValueError on ids not present in ``resources`` or counts < 1:
    such a multiset is a malformed solution, not an infeasible one.
    """
    by_id = _resource_index(resources)
    diff = [0] * (T + 1)
    for rid, count in counts.items():
        if rid not in by_id:
            raise ValueError(f"unknown resource id {rid}")
        if count < 1:
            raise ValueError(f"resource {rid} has non-positive copy count {count}")
        r = by_id[rid]
        diff[r.s - 1] += count * r.w
        diff[r.e] -= count * r.w
    return tuple(accumulate(diff[:T]))


def multiset_cost(counts: Mapping[int, int], resources: Sequence[Resource]) -> int:
    by_id = _resource_index(resources)
    total = 0
    for rid, count in counts.items():
        if rid not in by_id:
            raise ValueError(f"unknown resource id {rid}")
        total += count * by_id[rid].c
    return total


def covers(p1: Sequence[int], p2: Sequence[int]) -> bool:
    """True iff p1 dominates p2 pointwise. Profiles must have equal length."""
    return first_uncovered_slot(p1, p2) is None


def first_uncovered_slot(p1: Sequence[int], p2: Sequence[int]) -> int | None:
    """1-based first timeslot where p1 fails to dominate p2, or None."""
    if len(p1) != len(p2):
        raise ValueError(f"profile length mismatch: {len(p1)} vs {len(p2)}")
    for t, (a, b) in enumerate(zip(p1, p2), start=1):
        if a < b:
            return t
    return None


@dataclass(frozen=True, slots=True)
class Report:
    """A partial or prize verdict: ``total`` adds the penalties of the
    uncovered jobs (0 for partial coverage) to the resource ``cost``."""

    feasible: bool
    cost: Cost
    reason: str | None = None
    violated_slot: int | None = None
    penalty: int = 0

    @property
    def total(self) -> Cost:
        return self.cost + self.penalty


def _solution_structure_error(inst: Instance, sol: PartialSolution) -> str | None:
    res_ids = {r.id for r in inst.resources}
    job_ids = {j.id for j in inst.jobs}
    for rid, count in sol.counts.items():
        if rid not in res_ids:
            return f"unknown resource id {rid}"
        if count < 1:
            return f"resource {rid} has non-positive copy count {count}"
    for jid in sol.covered:
        if jid not in job_ids:
            return f"unknown job id {jid}"
    return None


def _capacity_shortfall(inst: Instance, sol: PartialSolution) -> int | None:
    """First timeslot where a well-formed solution's multiset falls short
    of its covered jobs' demand, or None."""
    need = job_profile((inst.jobs[j] for j in sol.covered), inst.T)
    have = multiset_profile(sol.counts, inst.resources, inst.T)
    return first_uncovered_slot(have, need)


def _verify(inst: Instance, sol: PartialSolution, k: int, penalty: int) -> Report:
    """Check that ``sol`` is well formed and has at least k covered jobs,
    all within its capacity; ``penalty`` prices the jobs it leaves out."""
    err = _solution_structure_error(inst, sol)
    if err is not None:
        return Report(False, INFEASIBLE, reason=err)
    reason = bad = None
    if len(sol.covered) < k:
        reason = f"covers {len(sol.covered)} jobs, needs {k}"
    elif (bad := _capacity_shortfall(inst, sol)) is not None:
        reason = "capacity below demand"
    return Report(reason is None, multiset_cost(sol.counts, inst.resources), reason, bad, penalty)


def verify_partial(inst: Instance, sol: PartialSolution) -> Report:
    """Check a partial-coverage solution: |covered| >= k and the multiset
    profile dominates the covered jobs' profile."""
    check_partiality(inst.k)
    return _verify(inst, sol, inst.k, 0)


def verify_prize(inst: Instance, sol: PartialSolution) -> Report:
    """Check a prize-collecting solution and total its cost: resource cost
    plus the penalties of every job left uncovered."""
    check_penalties(inst.jobs)
    return _verify(inst, sol, 0, sum(j.penalty for j in inst.jobs if j.id not in sol.covered))
