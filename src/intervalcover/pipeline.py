"""Top-level solvers for the partial and prize-collecting problems.

Partial coverage: decompose the jobs into mountain ranges, solve every
(range, kappa) subproblem, then stitch ranges together with a table over
"cover kappa jobs using the first q ranges". A range of one mountain is
priced directly by the single-mountain solver, within 2 of its optimum,
over a cover plan of the resources clipped to its span or, when at least
half of the resources touch that span, over one plan of them all that
such ranges share (see ``_RangePipeline`` and ``_shares_plan``); any
other range goes through the split -> collapse -> long/short pipeline,
certified within a factor of 384 of its optimum (3 for the narrow/wide
split times 8 for pricing shorts via extremal exclusion times 16 for the
SLRA restriction). If an optimum covers kappa_q jobs of range q, the
stitched cost is at most the sum of the rows for kappa_q, and each row
is within its range's factor of that range's optimum, which is at most
the overall one. So the factor is 2 per one-mountain range plus 384 per
other range, at most 384 * L for L ranges.

Prize collecting: each job may be picked once, as one unit of capacity
over its interval priced at its penalty, beside the resources in
unlimited copies, and the instance is solved exactly as a full cover of
every job. A picked job is a job left uncovered, so the answer is the
covered set (every job not picked) with the cover of the rest; costs
match in both directions, so it is exactly optimal. The exact search
always leaves uncovered a job touching a slot no resource covers
(forced), always covers a job inside one resource that costs no more
than its penalty (settled), and walks sets of the others (free); see
``reductions.smfc_solve_exact``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EMPTY_SOLUTION,
    INFEASIBLE,
    Cost,
    Instance,
    PartialSolution,
    PrizeSolveResult,
    SolveResult,
    check_partiality,
    is_feasible,
    multiset_cost,
)
from .fullcover import CoverPlan
from .lspc import SLRA_FACTOR, LspcSolver
from .mountains import MountainRange, decompose
from .reductions import (
    build_lspc,
    clip_resources,
    lift_lspc,
    lift_split,
    pc_to_smfc,
    price_mountain,
    smfc_solve_exact,
    split_narrow_wide,
)

# certified per-range approximation factor, 384, for a range of several
# mountains; a one-mountain range is priced directly, within 2
RANGE_FACTOR = 3 * 8 * SLRA_FACTOR


class _RangePipeline:
    """Price one range for every kappa.

    A range of one mountain is priced directly: ``price_mountain`` solves
    every kappa over one ``CoverPlan``, ``plan`` when given, else one of
    the resources clipped to the mountain's span (``clip_resources``: a
    resource touching the span is cut to it and keeps its id, capacity
    and cost). Each row is within 2 of the range's optimum for its kappa.

    ``solve_partial`` passes one plan of all the instance's resources to
    every one-mountain range it shares it with. The rows over it are the
    clipped plan's, bit for bit:

    - A mountain's candidates have no demand outside its span, so a
      resource that touches no slot of the span always takes 0 copies.
    - A resource that some other resource beats once both are clipped to
      the span is in no optimum over the span: the ``undominated`` swap
      argument, restricted to the span. So both plans have the same
      optimal copy vectors, and the same lexicographically smallest one,
      since clipping keeps the resources' input order and ids.
    - A job touches a gap of the clipped plan exactly when it touches a
      slot of the span that no resource reaches, which is exactly when
      it touches a gap of the instance plan.

    A direct row never costs more than the row of the split -> collapse
    -> lift path. On one mountain the split leaves every touching resource
    one part, narrow or wide, equal to its clipped copy, so both paths
    price over the same intervals, costs and unlimited copies. That
    path's row for kappa is the narrow multiset of one short's kept set
    K', which covers K', plus wide capacity W >= kappa - |K'| over the
    whole span. K' keeps what dropping a start prefix of q1 jobs and then
    jobs of the falling end order leaves. If |K'| > kappa, the kappa
    candidate with the same start prefix keeps a subset of K'. Otherwise
    some kappa candidate C contains K': the one with the same start
    prefix if q1 <= n - kappa, since it stops earlier in the end order,
    and the one dropping the start prefix n - kappa if not. Either way
    that multiset covers a kappa candidate, and ``single_mountain_solve``
    covers the cheapest candidate exactly, so the direct row is feasible
    whenever that row is and costs no more.

    Any other range is split, its parts clipped to mountain spans and to
    blocks of spanned mountains, and collapsed once; each kappa is solved
    on the shared long/short tables and lifted back. Parts keep their
    resource's id, so every row comes back keyed by the original ids.
    ``plan`` is not used there.
    """

    def __init__(self, inst: Instance, rng: MountainRange, plan: CoverPlan | None = None):
        self.inst = inst
        self.rng = rng
        if len(rng.mountains) == 1:
            (m,) = rng.mountains
            mjobs = [inst.jobs[i] for i in sorted(m.job_ids)]
            if plan is None:
                plan = CoverPlan(clip_resources(inst.resources, *m.span), inst.T)
            self.rows = price_mountain(mjobs, plan)
            return
        self.rows = None
        narrows, wides = split_narrow_wide(rng, inst.resources)
        self.build = build_lspc(rng, inst.jobs, narrows, wides, inst.T)
        self.solver = LspcSolver(self.build.instance)

    def solve(self, kappa: int) -> SolveResult:
        """Cover at least kappa jobs of the range, within RANGE_FACTOR of
        that subproblem's optimum (within 2 for a one-mountain range).

        INFEASIBLE for a kappa above the range's size; ValueError for a
        kappa below 0.
        """
        if kappa < 0:
            raise ValueError(f"kappa={kappa} is negative")
        if kappa == 0:
            return SolveResult(0, EMPTY_SOLUTION)
        if self.rows is not None:
            row = self.rows[kappa] if kappa < len(self.rows) else None
            return row if row is not None else SolveResult(INFEASIBLE, None)
        lres = self.solver.solve_for(kappa)
        if lres.solution is None:
            return SolveResult(INFEASIBLE, None)
        picks, covered = lift_lspc(lres.solution, self.build, self.rng)
        counts = lift_split(picks)
        return SolveResult(multiset_cost(counts, self.inst.resources),
                           PartialSolution(counts, covered))


@dataclass(frozen=True, slots=True)
class PartialSolveResult:
    cost: Cost
    solution: PartialSolution | None
    num_ranges: int
    # certified approximation factor: 2 per one-mountain range plus
    # RANGE_FACTOR per other range, and 1 for k = 0 (the empty solution)
    bound_factor: int


def _shares_plan(inst: Instance, span: tuple[int, int]) -> bool:
    """Whether a one-mountain range over ``span`` is priced over the plan
    of all the instance's resources rather than its own clipped plan.

    Both give the same rows (see ``_RangePipeline``). The shared plan is
    built once per instance, but a range searches all its levels, also
    those of resources off the span. So it is taken only when at least
    half of the m resources touch the span: its m levels and at most
    2m + 1 segments then stay within twice the touching resources and
    the segments they can cut, which bound the clipped plan, and its one
    build, quadratic in m, within four times the clipped plan's.
    """
    s, e = span
    touching = sum(1 for r in inst.resources if r.s <= e and s <= r.e)
    return len(inst.resources) <= 2 * touching


def solve_partial(inst: Instance) -> PartialSolveResult:
    """Cover at least k jobs of the instance at small cost.

    The emitted solution is the union of per-range solutions chosen by
    a table over (ranges used, jobs covered); its cost is certified to
    be within ``bound_factor`` of the optimum: 2 per one-mountain range
    plus RANGE_FACTOR per other range of the decomposition.
    """
    check_partiality(inst.k)
    k = inst.k
    if k == 0:
        return PartialSolveResult(0, EMPTY_SOLUTION, 0, 1)

    decomp = decompose(inst.jobs)
    L = decomp.L
    factor = sum(2 if len(rng.mountains) == 1 else RANGE_FACTOR for rng in decomp.ranges)
    shared = None  # the instance's plan, built for the first range that takes it
    range_solutions: list[list[SolveResult]] = []
    for rng in decomp.ranges:
        plan = None
        if len(rng.mountains) == 1 and _shares_plan(inst, rng.mountains[0].span):
            if shared is None:
                shared = CoverPlan(inst.resources, inst.T)
            plan = shared
        pipe = _RangePipeline(inst, rng, plan)
        size = sum(len(m.job_ids) for m in rng.mountains)
        range_solutions.append([pipe.solve(kappa) for kappa in range(min(k, size) + 1)])

    # dp[q][kappa]: cheapest way to cover kappa jobs using ranges 1..q
    dp: list[list[Cost]] = [[0] + [INFEASIBLE] * k]
    choice: list[list[int | None]] = [[None] * (k + 1)]
    for q in range(1, L + 1):
        row_cost: list[Cost] = [INFEASIBLE] * (k + 1)
        row_choice: list[int | None] = [None] * (k + 1)
        avail = len(range_solutions[q - 1]) - 1
        for kappa in range(k + 1):
            best: Cost = INFEASIBLE
            best_kp = None
            for kp in range(min(kappa, avail) + 1):
                total = dp[q - 1][kappa - kp] + range_solutions[q - 1][kp].cost
                if total < best:
                    best = total
                    best_kp = kp
            row_cost[kappa] = best
            row_choice[kappa] = best_kp
        dp.append(row_cost)
        choice.append(row_choice)

    final = dp[L][k]
    if not is_feasible(final):
        return PartialSolveResult(INFEASIBLE, None, L, factor)

    counts: dict[int, int] = {}
    covered: set[int] = set()
    kappa = k
    for q in range(L, 0, -1):
        kp = choice[q][kappa]
        sol = range_solutions[q - 1][kp].solution
        for rid, cnt in sol.counts.items():
            counts[rid] = counts.get(rid, 0) + cnt
        covered |= sol.covered
        kappa -= kp
    solution = PartialSolution(counts, frozenset(covered))
    return PartialSolveResult(final, solution, L, factor)


def solve_prize(inst: Instance) -> PrizeSolveResult:
    """Exactly optimal prize-collecting solution: resource cost plus the
    penalties of the uncovered jobs is minimized. Leaving every job
    uncovered is feasible, so there is always a solution."""
    return smfc_solve_exact(pc_to_smfc(inst))
