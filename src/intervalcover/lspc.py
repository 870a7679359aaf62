"""Exact optimum-SLRA solver for the long/short partial cover problem.

An LSPC instance has per-slot demands d_t, short resources that span a
single slot and may be picked at most once per slot, long resources
that span an interval and may be picked in any number of copies, and a
coverage target k. A solution commits to a coverage profile k_t <= d_t
with sum at least k and must have, at every slot, picked capacity at
least k_t.

A solution is an SLRA cover ("single long resource assignment") when at
every slot one long resource's copies alone can absorb the residual left
after the slot's short resource. The solver finds the cheapest SLRA
solution exactly; SLRA solutions are within a constant factor of the
unrestricted optimum, which is what the callers rely on.

Two tables drive the solver. Both are stored as rows: one list over the
residual coverage q = 0..d_a+...+d_b per key (range [a,b], free height
h). Slots whose residual is at most h are already absorbed by a long
resource chosen at an enclosing level, so they cost nothing here:

  A: cheapest way to reach measure q over [a,b] with shorts alone. Row
     (a,b,h) is row (a,b-1,h) min-plus convolved with slot b's price
     list gamma, so a row is built by extending its longest stored
     prefix row one slot at a time.
  M: cheapest h-free SLRA q-cover of [a,b]; the minimum of
     E1  shorts alone (row A(a,b,h)),
     E2  a time cut t: rows M(a,t,h) and M(t+1,b,h) convolved,
     E3  alpha copies of one long resource: its span (clipped to [a,b])
         takes row M(s2,e2,min(H,alpha*w)), the strips left and right of
         it make do with shorts at the old height. Mid and right are
         convolved first, then left with that. From the first alpha with
         alpha*w >= H on, the span is free and more copies only cost
         more, so the alpha loop stops there.

Every row is non-decreasing in q, so the convolution loops bisect the
rows for the window of entries where a candidate can still win and skip
the rest.

Rows are filled on demand, whole rows at a time. An M row needs rows of
strictly shorter ranges, or of its own range at a strictly larger free
height, so the requests are acyclic. They are served from an explicit
stack of row generators rather than by recursion; a row requested while
it is being filled raises RuntimeError. Within a row, ties keep the
first candidate in the order E1, E2 by (t, q1), E3 by (long, alpha, q1,
q2), because every update needs a strictly lower cost.

Entries are (cost, choice); replaying choices reconstructs a feasible
solution whose recomputed cost equals the root table entry exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping

from .core import INFEASIBLE, Cost, Resource, is_feasible


@dataclass(frozen=True)
class ShortResource:
    id: int
    t: int
    w: int
    c: int


@dataclass(frozen=True)
class LspcInstance:
    T: int
    d: tuple[int, ...]
    shorts: tuple[ShortResource, ...]
    longs: tuple[Resource, ...]
    k: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if len(self.d) != self.T:
            raise ValueError(f"demand profile has length {len(self.d)}, expected {self.T}")
        if any(x < 0 for x in self.d):
            raise ValueError("demands must be non-negative")
        for i, s in enumerate(self.shorts):
            if s.id != i:
                raise ValueError(f"shorts[{i}] has id {s.id}, expected dense id {i}")
            if not 1 <= s.t <= self.T:
                raise ValueError(f"shorts[{i}] slot {s.t} not within [1,{self.T}]")
            if s.w < 1 or s.c < 0:
                raise ValueError(f"shorts[{i}] needs w >= 1 and c >= 0")
        for i, r in enumerate(self.longs):
            if r.id != i:
                raise ValueError(f"longs[{i}] has id {r.id}, expected dense id {i}")
            if not 1 <= r.s <= r.e <= self.T:
                raise ValueError(f"longs[{i}] interval [{r.s},{r.e}] not within [1,{self.T}]")
            if r.w < 1 or r.c < 0:
                raise ValueError(f"longs[{i}] needs w >= 1 and c >= 0")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    @property
    def H(self) -> int:
        return max(self.d, default=0)


@dataclass(frozen=True)
class LspcSolution:
    long_counts: Mapping[int, int]
    short_picks: frozenset[int]
    coverage: tuple[int, ...]


@dataclass(frozen=True)
class LspcResult:
    cost: Cost
    solution: LspcSolution | None


@dataclass(frozen=True)
class LspcReport:
    feasible: bool
    cost: Cost
    violated_clause: str | None = None
    violated_slot: int | None = None


_EMPTY_ROW = ([0], [None])  # table A over an empty range


class LspcSolver:
    """Tables A and M of one instance, as rows filled on demand.

    ``memo_a`` and ``memo_m`` map (a, b, h) to a row (costs, choices),
    two lists indexed by q with ``INFEASIBLE`` as the cost of an
    unreachable q. A choices are the coverage q1 put on slot b; M choices
    are tagged tuples. One solver may answer root queries for several
    coverage targets; the tables only depend on the demands and
    resources. Not thread-safe: each solve owns its rows.
    """

    def __init__(self, inst: LspcInstance):
        self.inst = inst
        self.H = inst.H
        d = inst.d
        self._pref = [0] * (inst.T + 1)
        for t in range(inst.T):
            self._pref[t + 1] = self._pref[t] + d[t]
        self._shorts_at: list[list[ShortResource]] = [[] for _ in range(inst.T + 1)]
        for s in inst.shorts:
            self._shorts_at[s.t].append(s)
        for lst in self._shorts_at:
            lst.sort(key=lambda s: (s.c, s.id))
        self.memo_a: dict[tuple[int, int, int], tuple[list, list]] = {}
        self.memo_m: dict[tuple[int, int, int], tuple[list, list]] = {}

    def _dsum(self, a: int, b: int) -> int:
        if a > b:
            return 0
        return self._pref[b] - self._pref[a - 1]

    def gamma_choice(self, t: int, q: int, h: int) -> tuple[Cost, int | None]:
        """Price of committing q units at slot t when h of them are free:
        (cost, short id picked or None)."""
        if q > self.inst.d[t - 1]:
            return INFEASIBLE, None
        if q <= h:
            return 0, None
        need = q - h
        for s in self._shorts_at[t]:
            if s.w >= need:
                return s.c, s.id
        return INFEASIBLE, None

    def table_a(self, a: int, b: int, q: int, h: int) -> Cost:
        if q > self._dsum(a, b):
            return INFEASIBLE
        return self._row_a(a, b, h)[0][q]

    def table_m(self, a: int, b: int, q: int, h: int) -> Cost:
        if q == 0:
            return 0
        if q > self._dsum(a, b):
            return INFEASIBLE
        return self._row_m(a, b, h)[0][q]

    def _row_a(self, a: int, b: int, h: int) -> tuple[list, list]:
        """Row A(a,b,h), extending the longest stored prefix row."""
        if a > b:
            return _EMPTY_ROW
        memo = self.memo_a
        row = memo.get((a, b, h))
        if row is not None:
            return row
        top = b - 1
        while top >= a and (a, top, h) not in memo:
            top -= 1
        prev = memo[(a, top, h)][0] if top >= a else _EMPTY_ROW[0]
        for t in range(top + 1, b + 1):
            gamma = [self.gamma_choice(t, q1, h)[0] for q1 in range(self.inst.d[t - 1] + 1)]
            costs = [INFEASIBLE] * (len(prev) + len(gamma) - 1)
            picks = [None] * len(costs)
            for q1, g in enumerate(gamma):
                if g == INFEASIBLE:
                    continue
                q = q1
                for v in prev:
                    if v + g < costs[q]:
                        costs[q] = v + g
                        picks[q] = q1
                    q += 1
            row = memo[(a, t, h)] = (costs, picks)
            prev = costs
        return row

    def _row_m(self, a: int, b: int, h: int) -> tuple[list, list]:
        """Row M(a,b,h). Rows it needs are filled first, each by its own
        generator on an explicit stack."""
        memo = self.memo_m
        row = memo.get((a, b, h))
        if row is not None:
            return row
        stack = [((a, b, h), self._fill_m(a, b, h))]
        filling = {(a, b, h)}
        while stack:
            key, gen = stack[-1]
            try:
                need = gen.send(row)
            except StopIteration as done:
                row = memo[key] = done.value
                filling.remove(key)
                stack.pop()
                continue
            if need in filling:
                raise RuntimeError(f"table M row {need} requested while it is being filled")
            filling.add(need)
            stack.append((need, self._fill_m(*need)))
            row = None
        return row

    def _fill_m(self, a: int, b: int, h: int):
        """Generator computing row M(a,b,h) for a <= b. It yields the key
        of each M row it needs that is not stored yet and is sent that
        row back; it returns its own row."""
        size = self._dsum(a, b) + 1
        if h >= self.H:
            return [0] * size, [("BASE0",)] + [("BASEH",)] * (size - 1)
        memo = self.memo_m
        best = list(self._row_a(a, b, h)[0])
        choice = [None if v == INFEASIBLE else ("E1",) for v in best]
        choice[0] = ("BASE0",)

        # Every row is non-decreasing in q: A rows convolve non-decreasing
        # price lists, and min-plus convolutions and minima of
        # non-decreasing rows are non-decreasing. So is best between two
        # passes. In a pass, a candidate lv + v for q can only win where
        # best[q] > lv, which starts at a bisection point of best, and only
        # while v < top - lv, which ends at a bisection point of the other
        # row. Candidates left out that way could never win.
        for t in range(a, b):
            reach = best[:]
            top = reach[-1]
            if top == 0:
                break  # costs are non-negative, so no cut can improve
            left = memo.get((a, t, h)) or (yield (a, t, h))
            right = memo.get((t + 1, b, h)) or (yield (t + 1, b, h))
            rcosts = right[0]
            for q1, lv in enumerate(left[0]):
                if lv >= top:
                    break
                lo = bisect_right(reach, lv) - q1
                if lo < 0:
                    lo = 0
                q = q1 + lo
                for v in rcosts[lo:bisect_left(rcosts, top - lv)]:
                    if lv + v < best[q]:
                        best[q] = lv + v
                        choice[q] = ("E2", t, q1)
                    q += 1

        H = self.H
        for r in self.inst.longs:
            s2, e2 = max(a, r.s), min(b, r.e)
            if s2 > e2:
                continue
            lcosts = None
            for alpha in range(h // r.w + 1, H + 1):
                base = alpha * r.c
                reach = best[:]
                top = reach[-1]
                if base >= top:
                    # copies only get dearer; nothing below can improve
                    break
                if lcosts is None:
                    lcosts = self._row_a(a, s2 - 1, h)[0]
                    rcosts = self._row_a(e2 + 1, b, h)[0]
                hc = min(H, alpha * r.w)
                mid = memo.get((s2, e2, hc)) or (yield (s2, e2, hc))
                # mid then right, smallest q2 first on ties. Sums that cannot
                # bring base + left + mid + right under top are left out, so
                # mr is exact up to the first entry >= top - base and no entry
                # after it is smaller: it can still be bisected.
                mr = [INFEASIBLE] * (len(mid[0]) + len(rcosts) - 1)
                mr_q2 = [0] * len(mr)
                for q2, mv in enumerate(mid[0]):
                    if base + mv >= top:
                        break
                    rem = q2
                    for v in rcosts[:bisect_left(rcosts, top - base - mv)]:
                        if mv + v < mr[rem]:
                            mr[rem] = mv + v
                            mr_q2[rem] = q2
                        rem += 1
                # left with that, smallest q1 first on ties
                for q1, lv in enumerate(lcosts):
                    lv += base
                    if lv >= top:
                        break
                    lo = bisect_right(reach, lv) - q1
                    if lo < 0:
                        lo = 0
                    q = q1 + lo
                    for rem, v in enumerate(mr[lo:bisect_left(mr, top - lv)], lo):
                        if lv + v < best[q]:
                            best[q] = lv + v
                            q2 = mr_q2[rem]
                            choice[q] = ("E3", r.id, alpha, q1, q2, rem - q2)
                        q += 1
                if hc == H:
                    break
        return best, choice

    def solve_for(self, k: int) -> LspcResult:
        inst = self.inst
        cost = self.table_m(1, inst.T, k, 0)
        if not is_feasible(cost):
            return LspcResult(INFEASIBLE, None)
        coverage = [0] * inst.T
        shorts: set[int] = set()
        longs: dict[int, int] = {}
        self._replay_m(1, inst.T, k, 0, coverage, shorts, longs)
        sol = LspcSolution(longs, frozenset(shorts), tuple(coverage))
        return LspcResult(cost, sol)

    def solve(self) -> LspcResult:
        return self.solve_for(self.inst.k)

    def _replay_m(self, a, b, q, h, coverage, shorts, longs) -> None:
        """Follow M choices depth first, left part before right part."""
        todo = [("M", a, b, q, h)]
        while todo:
            table, a, b, q, h = todo.pop()
            if table == "A":
                self._replay_a(a, b, q, h, coverage, shorts)
                continue
            if a > b or q == 0:
                continue
            choice = self.memo_m[(a, b, h)][1][q]
            tag = choice[0]
            if tag == "BASEH":
                rem = q
                for t in range(a, b + 1):
                    take = min(self.inst.d[t - 1], rem)
                    coverage[t - 1] = take
                    rem -= take
                if rem != 0:
                    raise RuntimeError(f"BASEH entry {(a, b, q, h)} asks {rem} units beyond the demand")
            elif tag == "E1":
                self._replay_a(a, b, q, h, coverage, shorts)
            elif tag == "E2":
                _, t, q1 = choice
                todo.append(("M", t + 1, b, q - q1, h))
                todo.append(("M", a, t, q1, h))
            else:
                _, rid, alpha, q1, q2, q3 = choice
                r = self.inst.longs[rid]
                longs[rid] = longs.get(rid, 0) + alpha
                s2, e2 = max(a, r.s), min(b, r.e)
                self._replay_a(a, s2 - 1, q1, h, coverage, shorts)
                todo.append(("A", e2 + 1, b, q3, h))
                todo.append(("M", s2, e2, q2, min(self.H, alpha * r.w)))

    def _replay_a(self, a, b, q, h, coverage, shorts) -> None:
        while b >= a:
            q1 = self.memo_a[(a, b, h)][1][q]
            _, sid = self.gamma_choice(b, q1, h)
            coverage[b - 1] = q1
            if sid is not None:
                shorts.add(sid)
            q -= q1
            b -= 1
        if q != 0:
            raise RuntimeError(f"table A replay from slot {a} left {q} units uncovered")


def solve_lspc(inst: LspcInstance) -> LspcResult:
    """Cheapest SLRA solution covering measure >= k, with reconstruction."""
    return LspcSolver(inst).solve()


def verify_lspc(inst: LspcInstance, sol: LspcSolution) -> LspcReport:
    """Check the four feasibility clauses and recompute the cost.

    Clauses, in the order they are reported: coverage profile respects
    the demands (k_t <= d_t), (i) total measure at least k, (ii) picked
    capacity at every slot at least k_t, (iii) at most one short per slot.
    """
    short_ids = {s.id for s in inst.shorts}
    long_ids = {r.id for r in inst.longs}
    if len(sol.coverage) != inst.T:
        return LspcReport(False, INFEASIBLE, violated_clause="structure")
    for sid in sol.short_picks:
        if sid not in short_ids:
            return LspcReport(False, INFEASIBLE, violated_clause="structure")
    for rid, count in sol.long_counts.items():
        if rid not in long_ids or count < 1:
            return LspcReport(False, INFEASIBLE, violated_clause="structure")

    cost = sum(inst.shorts[sid].c for sid in sol.short_picks)
    cost += sum(count * inst.longs[rid].c for rid, count in sol.long_counts.items())

    for t in range(inst.T):
        if not 0 <= sol.coverage[t] <= inst.d[t]:
            return LspcReport(False, cost, violated_clause="profile", violated_slot=t + 1)
    if sum(sol.coverage) < inst.k:
        return LspcReport(False, cost, violated_clause="measure")
    for t in range(1, inst.T + 1):
        cap = sum(inst.shorts[sid].w for sid in sol.short_picks if inst.shorts[sid].t == t)
        cap += sum(count * inst.longs[rid].w for rid, count in sol.long_counts.items()
                   if inst.longs[rid].s <= t <= inst.longs[rid].e)
        if cap < sol.coverage[t - 1]:
            return LspcReport(False, cost, violated_clause="capacity", violated_slot=t)
    for t in range(1, inst.T + 1):
        if sum(1 for sid in sol.short_picks if inst.shorts[sid].t == t) > 1:
            return LspcReport(False, cost, violated_clause="one-short-per-slot", violated_slot=t)
    return LspcReport(True, cost)
