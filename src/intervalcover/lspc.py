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

Two memoized tables drive the recursion, both keyed by (range [a,b],
residual coverage q, free height h). Slots whose residual is at most h
are already absorbed by a long resource chosen at an enclosing level,
so they cost nothing here:

  A: cheapest way to reach measure q over [a,b] with shorts alone,
     peeling one slot at a time off the right end (gamma prices a slot).
  M: cheapest h-free SLRA q-cover of [a,b]; the minimum of
     E1  shorts alone (table A),
     E2  a time cut t*: solve [a,t*] and [t*+1,b] independently,
     E3  commit alpha copies of one long resource: its span (clipped to
         [a,b]) recurses with free height alpha*w, the strips left and
         right of it must make do with shorts at the old height.

Entries are (cost, choice); replaying choices reconstructs a feasible
solution whose recomputed cost equals the root table entry exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

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


def _precedes(child: tuple, parent: tuple) -> bool:
    """Strict order the recursion must respect: smaller range first, then
    at equal range larger q first is *forbidden* (q must shrink), then at
    equal (range, q) the larger free height is computed first."""
    ca, cb, cq, ch = child
    pa, pb, pq, ph = parent
    if (ca, cb) != (pa, pb):
        return pa <= ca and cb <= pb and (pb - pa) > (cb - ca)
    if cq != pq:
        return cq < pq
    return ch > ph


class LspcSolver:
    """Memoized evaluation of tables A and M for one instance.

    One solver may answer root queries for several coverage targets; the
    tables only depend on the demands and resources. Not thread-safe:
    each solve owns its memo dictionaries.
    """

    def __init__(self, inst: LspcInstance, check_invariants: bool = False):
        self.inst = inst
        self.H = inst.H
        self.check_invariants = check_invariants
        d = inst.d
        self._pref = [0] * (inst.T + 1)
        for t in range(inst.T):
            self._pref[t + 1] = self._pref[t] + d[t]
        self._shorts_at: list[list[ShortResource]] = [[] for _ in range(inst.T + 1)]
        for s in inst.shorts:
            self._shorts_at[s.t].append(s)
        for lst in self._shorts_at:
            lst.sort(key=lambda s: (s.c, s.id))
        self.memo_a: dict[tuple, tuple] = {}
        self.memo_m: dict[tuple, tuple] = {}

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
        if a > b:
            return 0 if q == 0 else INFEASIBLE
        key = (a, b, q, h)
        hit = self.memo_a.get(key)
        if hit is not None:
            return hit[0]
        best: Cost = INFEASIBLE
        best_q1 = None
        if q <= self._dsum(a, b):
            for q1 in range(min(q, self.inst.d[b - 1]) + 1):
                g = self.gamma_choice(b, q1, h)[0]
                if not is_feasible(g):
                    continue
                sub = self.table_a(a, b - 1, q - q1, h)
                if not is_feasible(sub):
                    continue
                total = sub + g
                if total < best:
                    best = total
                    best_q1 = q1
        self.memo_a[key] = (best, best_q1)
        return best

    def table_m(self, a: int, b: int, q: int, h: int) -> Cost:
        return self._entry_m(a, b, q, h)[0]

    def _entry_m(self, a: int, b: int, q: int, h: int) -> tuple:
        key = (a, b, q, h)
        hit = self.memo_m.get(key)
        if hit is not None:
            return hit
        if a > b:
            entry = (0, ("EMPTY",)) if q == 0 else (INFEASIBLE, None)
        elif q == 0:
            entry = (0, ("BASE0",))
        elif q > self._dsum(a, b):
            # No coverage profile of measure q fits under the demands,
            # whatever resources are picked.
            entry = (INFEASIBLE, None)
        elif h >= self.H:
            entry = (0, ("BASEH",))
        else:
            entry = self._entry_m_search(key)
        self.memo_m[key] = entry
        return entry

    def _sub_m(self, a, b, q, h, parent) -> Cost:
        if self.check_invariants and not _precedes((a, b, q, h), parent):
            raise AssertionError(f"recursion does not decrease: {parent} -> {(a, b, q, h)}")
        return self._entry_m(a, b, q, h)[0]

    def _entry_m_search(self, key: tuple) -> tuple:
        a, b, q, h = key
        best = self.table_a(a, b, q, h)
        choice = ("E1",) if is_feasible(best) else None

        for t in range(a, b):
            lsum = self._dsum(a, t)
            rsum = self._dsum(t + 1, b)
            for q1 in range(max(0, q - rsum), min(q, lsum) + 1):
                left = self._sub_m(a, t, q1, h, key)
                if not is_feasible(left) or left >= best:
                    continue
                right = self._sub_m(t + 1, b, q - q1, h, key)
                if not is_feasible(right):
                    continue
                total = left + right
                if total < best:
                    best = total
                    choice = ("E2", t, q1)

        H = self.H
        for r in self.inst.longs:
            s2, e2 = max(a, r.s), min(b, r.e)
            if s2 > e2:
                continue
            lcap = self._dsum(a, s2 - 1)
            mcap = self._dsum(s2, e2)
            rcap = self._dsum(e2 + 1, b)
            for alpha in range(1, H + 1):
                if alpha * r.w <= h:
                    continue
                base = alpha * r.c
                if is_feasible(best) and base >= best:
                    # copies only get dearer; nothing below can improve
                    break
                hc = min(H, alpha * r.w)
                for q1 in range(min(q, lcap) + 1):
                    left = self.table_a(a, s2 - 1, q1, h)
                    if not is_feasible(left):
                        continue
                    rem = q - q1
                    for q2 in range(max(0, rem - rcap), min(rem, mcap) + 1):
                        mid = self._sub_m(s2, e2, q2, hc, key)
                        if not is_feasible(mid):
                            continue
                        right = self.table_a(e2 + 1, b, rem - q2, h)
                        if not is_feasible(right):
                            continue
                        total = base + left + mid + right
                        if total < best:
                            best = total
                            choice = ("E3", r.id, alpha, q1, q2, rem - q2)

        return (best, choice) if choice is not None else (INFEASIBLE, None)

    def solve_for(self, k: int) -> LspcResult:
        inst = self.inst
        depth = 4 * (inst.T + 2) * (self.H + 2) + 1000
        if sys.getrecursionlimit() < depth:
            sys.setrecursionlimit(depth)
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
        if a > b:
            return
        _, choice = self.memo_m[(a, b, q, h)]
        tag = choice[0]
        if tag in ("EMPTY", "BASE0"):
            return
        if tag == "BASEH":
            rem = q
            for t in range(a, b + 1):
                take = min(self.inst.d[t - 1], rem)
                coverage[t - 1] = take
                rem -= take
            if rem != 0:
                raise RuntimeError(f"BASEH entry {(a, b, q, h)} asks {rem} units beyond the demand")
            return
        if tag == "E1":
            self._replay_a(a, b, q, h, coverage, shorts)
            return
        if tag == "E2":
            _, t, q1 = choice
            self._replay_m(a, t, q1, h, coverage, shorts, longs)
            self._replay_m(t + 1, b, q - q1, h, coverage, shorts, longs)
            return
        _, rid, alpha, q1, q2, q3 = choice
        r = self.inst.longs[rid]
        longs[rid] = longs.get(rid, 0) + alpha
        s2, e2 = max(a, r.s), min(b, r.e)
        self._replay_a(a, s2 - 1, q1, h, coverage, shorts)
        self._replay_m(s2, e2, q2, min(self.H, alpha * r.w), coverage, shorts, longs)
        self._replay_a(e2 + 1, b, q3, h, coverage, shorts)

    def _replay_a(self, a, b, q, h, coverage, shorts) -> None:
        while b >= a:
            _, q1 = self.memo_a[(a, b, q, h)]
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
