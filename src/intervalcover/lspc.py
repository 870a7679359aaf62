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
residual coverage q = 0..min(k, d_a+...+d_b) per key (range [a,b], free
height h). Slots whose residual is at most h are already absorbed by a long
resource chosen at an enclosing level, so they cost nothing here:

  A: cheapest way to reach measure q over [a,b] with shorts alone. Row
     (a,b,h) is row (a,b-1,h) min-plus convolved with slot b's price
     list gamma, so a row is built by extending its longest stored
     prefix row one slot at a time.
  M: cheapest h-free SLRA q-cover of [a,b]; the minimum of
     E1  shorts alone (row A(a,b,h)),
     E2  a time cut t: rows M(a,t,h) and M(t+1,b,h) convolved,
     E3  alpha copies of one long resource that spans all of [a,b]:
         alpha*c plus row M(a,b,min(H,alpha*w)). From the first alpha
         with alpha*w >= H on, the range is free and more copies only cost
         more, so the alpha loop stops there.

Every row is non-decreasing in q, so the convolution loops bisect the
rows for the window of entries where a candidate can still win and skip
the rest.

A long spanning only part of [a,b] needs no E3 candidate. Clipped to
[s,e] != [a,b], with hc = min(H,alpha*w), its "strip" candidate for
q = q1+q2+q3 is alpha*c + A(a,s-1,h)[q1] + M(s,e,hc)[q2] + A(e+1,b,h)[q3].
Let M' be the table whose E3 takes strip candidates too. By induction
over the fill order, M' = M with the same choices. In row (a,b,h), if
s > a, the cut t = s-1 costs at most the strip candidate: E1 gives
M(a,s-1,h)[q1] <= A(a,s-1,h)[q1], and M'(s,b,h)[q2+q3] is at most row
(s,b,h)'s own candidate with an empty left strip (where its alpha loop
stopped at alpha*c >= top, every entry is <= top). If s = a and e < b,
the cut t = e does, by row (a,e,h)'s E3 and row (e+1,b,h)'s E1. E2 runs
before E3, its pruning skips only candidates that cannot beat the entry,
and an update needs a strictly lower cost, so a strip candidate never
changes an entry or a choice.

A cut t > a only needs the left entries won by a long. In row (a,b,h)
with h < H, let M(a,t,h)[q1] have a choice other than E3; its candidate
for q = q1+q2 is M(a,t,h)[q1] + M(t+1,b,h)[q2]. If that choice is E2 at
t' < t with x units left of t', the cut t' offers M(a,t',h)[x] +
M(t'+1,b,h)[q-x], and cut t of row (t'+1,b,h) makes that at most the
candidate. If it is E1 (or BASE0, q1 = 0), the entry is A(a,t,h)[q1] =
A(a,t-1,h)[x] + gamma_t(q1-x) for some x, and the cut t-1 offers
M(a,t-1,h)[x] + M(t,b,h)[q-x], which is at most the candidate because
M(a,t-1,h) <= A(a,t-1,h) and cut t of row (t,b,h) takes M(t,t,h)[y] <=
gamma_t(y). By induction over the fill order and over t, every entry is
at most every candidate of every cut, skipped or not: cut t' runs before
cut t, its pruning skips only candidates that cannot beat the entry, and
rows (t'+1,b,h) and (t,b,h) are filled first. An update needs a strictly
lower cost, so such a candidate never changes an entry or a choice. Cut
t = a keeps all its left entries, since no cut comes before it.

So a cut t > a walks only the left row's E3 entries, which each M row
lists in ascending q. When there are none, or the first already costs
at least the row's current top entry, the cut tries no candidate and is
skipped before its right row is requested. A row is a function of its
key alone, so a row left unrequested changes no other row.

With the pruning above, an entry is the least of all its candidates,
tried or not, and its choice is the first candidate in order that
reaches it: every pruning skips only candidates that cannot strictly
beat the entry at that point. Rows do not increase with h. gamma does
not, so neither do A rows; E2 candidates do not, by induction over the
range length; and an E3 candidate of row (a,b,h1) is one of row
(a,b,h2), h2 > h1, too, unless alpha*w <= h2, and then it is at least
M(a,b,min(H,alpha*w))[q] >= M(a,b,h2)[q], by induction over h1 downward
from H, where rows are all zero.

A long that another long beats never wins an entry. Let o beat r:
o.s <= r.s, r.e <= o.e and ceil(r.w/o.w)*o.c < r.c (``core.undominated``).
In row (a,b,h), o spans [a,b] whenever r does. For r's candidate at
alpha, let alpha' = ceil(alpha*r.w/o.w). Then alpha'*o.w >= alpha*r.w > h,
so alpha' lies in o's alpha range; alpha'*o.c <= alpha*ceil(r.w/o.w)*o.c
< alpha*r.c; and o's free height min(H,alpha'*o.w) is at least r's, so
at every q o's candidate at alpha' costs strictly less than r's. o's
alpha loop either reaches alpha', after which every entry is at most
o's candidate, or breaks at some alpha'' < alpha', on alpha''*o.c >= top
or on the all-zero row of free height H; either way every entry is then
at most alpha''*o.c, which is below r's candidate. So no candidate of r
is ever the least of its entry, and the solver leaves out every long
that another long beats, which requests fewer rows.

Rows end at the target: a solver for target Q = k fills only q = 0..Q
of a row. These entries are those of the row over the whole demand,
with the same choices, and an M row lists the same E3 entries up to Q. A candidate for q reads only
entries at or below q: A(a,b-1,h)[q-q1], a cut's entries q1 and q-q1,
and M(a,b,hc)[q] in E3. So, by induction over the fill order, each
candidate for q <= Q has the same cost in both rows. Both rows try the
candidates in the same order and update only on a strictly lower cost,
and where one row skips a candidate, that candidate cannot strictly
lower the entry at that point. So, by induction over the candidates, the
entry and its choice agree after each one. The ended row skips more only
through top, which is now best[Q]. At the start of a pass top is at
least best[q] for every q <= Q, since best is non-decreasing between
passes, and within a pass best only falls. So the breaks on top == 0 and
on alpha*c >= top, and the windows ended at top, skip only candidates
that cannot win an entry at q <= Q. A cut t > a walks the left row's E3
entries, which agree up to Q; one above Q offers only q > Q.

Rows are filled on demand, whole rows at a time. An M row needs rows of
strictly shorter ranges, or of its own range at a strictly larger free
height, so the requests are acyclic. They are served from an explicit
stack of row generators rather than by recursion; a row requested while
it is being filled raises RuntimeError. Within a row, ties keep the
first candidate in the order E1, E2 by (t, q1), E3 by (long, alpha),
because every update needs a strictly lower cost.

Entries are (cost, choice); replaying choices reconstructs a feasible
solution whose recomputed cost equals the root table entry exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping

from .core import INFEASIBLE, Cost, Resource, check_resources, is_feasible, undominated


@dataclass(frozen=True, slots=True)
class ShortResource:
    id: int
    t: int
    w: int
    c: int


@dataclass(frozen=True, slots=True)
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
        check_resources("longs", self.longs, self.T)
        if not 0 <= self.k <= sum(self.d):
            raise ValueError(f"k={self.k} not in [0, {sum(self.d)}]")

    @property
    def H(self) -> int:
        return max(self.d, default=0)


@dataclass(frozen=True, slots=True)
class LspcSolution:
    long_counts: Mapping[int, int]
    short_picks: frozenset[int]
    coverage: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class LspcResult:
    cost: Cost
    solution: LspcSolution | None


@dataclass(frozen=True, slots=True)
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
    unreachable q. A choices are the coverage q1 put on slot b. M choices
    are ("BASE0",) for q = 0, ("BASEH",) when h >= H (slots filled left
    to right), ("E1",), ("E2", t, q1) for a cut after slot t with q1
    units in [a,t], and ("E3", long id, alpha), which goes on in row
    M(a,b,min(H,alpha*w)). An M row carries a third list: the q whose
    choice is E3, ascending. Rows end at q = ``inst.k``, so one solver
    answers every target 0..``inst.k``; a target above that but within
    the demand is a ValueError, and one above the demand is infeasible.
    Not thread-safe: each solve owns its rows.
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
        # A long another one beats never wins an entry (module docstring).
        self._longs = [inst.longs[p] for p in undominated(inst.longs)]
        self._gamma: dict[tuple[int, int], list[Cost]] = {}  # (t, h) -> gamma costs
        self.memo_a: dict[tuple[int, int, int], tuple[list, list]] = {}
        self.memo_m: dict[tuple[int, int, int], tuple[list, list, list]] = {}

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

    def _has_entry(self, a: int, b: int, q: int) -> bool:
        """Whether rows of range [a,b] hold an entry for q. A q above the
        range's demand has none and is infeasible; a negative q, or one
        within the demand but above the target ``inst.k`` where rows end,
        is a ValueError."""
        if q > self._dsum(a, b):
            return False
        if not 0 <= q <= self.inst.k:
            raise ValueError(f"coverage {q} not in [0, {self.inst.k}]: a solver answers "
                             f"targets up to its instance's k")
        return True

    def table_a(self, a: int, b: int, q: int, h: int) -> Cost:
        if not self._has_entry(a, b, q):
            return INFEASIBLE
        return self._row_a(a, b, h)[0][q]

    def table_m(self, a: int, b: int, q: int, h: int) -> Cost:
        if not self._has_entry(a, b, q):
            return INFEASIBLE
        if q == 0:
            return 0
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
        cap = self.inst.k
        for t in range(top + 1, b + 1):
            gamma = self._gamma.get((t, h))
            if gamma is None:
                gamma = self._gamma[(t, h)] = [
                    self.gamma_choice(t, q1, h)[0] for q1 in range(self.inst.d[t - 1] + 1)]
            n = len(prev) + len(gamma) - 1
            clip = n > cap + 1  # the row ends at the target (module docstring)
            if clip:
                n = cap + 1
            costs = [INFEASIBLE] * n
            picks = [None] * n
            for q1, g in enumerate(gamma[:n] if clip else gamma):
                if g == INFEASIBLE:
                    continue
                q = q1
                for v in prev[:n - q1] if clip else prev:
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
        size = min(self._dsum(a, b), self.inst.k) + 1
        if h >= self.H:
            return [0] * size, [("BASE0",)] + [("BASEH",)] * (size - 1), []
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
        # row (lv is alpha * c in E3). Candidates left out that way could
        # never win, and neither could a cut t > a through a left entry
        # not won by a long (module docstring): such a cut walks only the
        # left row's E3 entries, and is skipped when none is below top. An
        # empty window skips the second bisection.
        for t in range(a, b):
            top = best[-1]
            if top == 0:
                break  # costs are non-negative, so no cut can improve
            left = memo.get((a, t, h)) or (yield (a, t, h))
            lcosts = left[0]
            if t == a:
                q1s = range(len(lcosts))
            else:
                q1s = left[2]
                if not q1s or lcosts[q1s[0]] >= top:
                    continue
            reach = best[:]
            right = memo.get((t + 1, b, h)) or (yield (t + 1, b, h))
            rcosts = right[0]
            for q1 in q1s:
                lv = lcosts[q1]
                if lv >= top:
                    break
                lo = bisect_right(reach, lv) - q1
                if lo < 0:
                    lo = 0
                if lo >= len(rcosts) or rcosts[lo] >= top - lv:
                    continue  # not break: lo may shrink as q1 grows
                q = q1 + lo
                for v in rcosts[lo:min(bisect_left(rcosts, top - lv), size - q1)]:
                    if lv + v < best[q]:
                        best[q] = lv + v
                        choice[q] = ("E2", t, q1)
                    q += 1

        H = self.H
        won = set()
        for r in self._longs:
            if r.s > a or r.e < b:
                continue  # a strip long never wins (module docstring)
            for alpha in range(h // r.w + 1, H + 1):
                base = alpha * r.c
                top = best[-1]
                if base >= top:
                    # copies only get dearer; nothing below can improve
                    break
                hc = min(H, alpha * r.w)
                raised = (memo.get((a, b, hc)) or (yield (a, b, hc)))[0]
                q = bisect_right(best, base)
                for v in raised[q:bisect_left(raised, top - base)]:
                    if base + v < best[q]:
                        best[q] = base + v
                        choice[q] = ("E3", r.id, alpha)
                        won.add(q)
                    q += 1
                if hc == H:
                    break
        return best, choice, sorted(won)

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
        todo = [(a, b, q, h)]
        while todo:
            a, b, q, h = todo.pop()
            if q == 0:
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
                todo.append((t + 1, b, q - q1, h))
                todo.append((a, t, q1, h))
            else:
                _, rid, alpha = choice
                longs[rid] = longs.get(rid, 0) + alpha
                todo.append((a, b, q, min(self.H, alpha * self.inst.longs[rid].w)))

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
