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
solution exactly; SLRA solutions are within ``SLRA_FACTOR`` of the
unrestricted optimum, which is what the callers rely on.

One table, M, drives the solver. It is stored as rows: one list over the
residual coverage q = 0..min(k, d_a+...+d_b) per key (range [a,b], free
height h). Slots whose residual is at most h are already absorbed by a long
resource chosen at an enclosing level, so they cost nothing here. Slot t's
price list gamma_t(h) prices q units at t: 0 for q <= h, else the cost of
the cheapest short at t with w >= q-h, and INFEASIBLE above d_t or with no
such short. A(a,b,h), the cheapest way to reach q over [a,b] with shorts
alone, is the min-plus convolution of gamma_a(h), ..., gamma_b(h); the
proofs below use it as a quantity, and only its one-slot rows, the price
lists, are stored. With P = max(d_a..d_b) the row's peak, row M(a,b,h) is
all zero when h >= P (BASEH: every slot is absorbed), and otherwise the
minimum of
  E1  shorts alone, on a one-slot row (a = b) only: gamma_a(h)[q],
  E2  a time cut t: rows M(a,t,h) and M(t+1,b,h) convolved,
  E3  alpha copies of one long resource that spans all of [a,b]:
      alpha*c plus row M(a,b,min(P,alpha*w)). From the first alpha with
      alpha*w >= P on, the range is free and more copies only cost more,
      so the alpha loop stops there.

These are the costs of the SLRA recursion that takes E1 = A(a,b,h)[q] on
every row, raises E3 to min(H,alpha*w) with H the instance's peak, and
zeroes only rows with h >= H. By induction over the range length, then
over h downward from H, each row of one is the row of the other:
- The clamp. In that recursion a row with P <= h < H is all zero too:
  E1 prices every slot at 0 there. So raising E3 to min(H,alpha*w) or to
  min(P,alpha*w) reads equal entries, and past the first alpha with
  alpha*w >= P each candidate costs at least that alpha's. Both replay
  the same coverage: in that recursion E1 comes first and wins such a
  zero row, and a replay of A with zero prices puts on slot b the least
  q1 that the slots before it leave, max(0, q - d_a-...-d_{b-1}), so it
  fills the slots from the left, as BASEH does.
- E1 beyond one slot. Every entry is at most its E1 candidate, so
  M <= A. For b > a, A(a,b,h) = gamma_a(h) (+) A(a+1,b,h) >=
  M(a,a,h) (+) M(a+1,b,h) entrywise ((+) the min-plus convolution), and
  the right side is the cut t = a, which E2 walks in full. So E1 never
  lowers an entry of a row of two or more slots.
Apart from the zero rows, where BASEH replays what E1 did, choices differ
from that recursion's only where E1 ties with the least cut on a row of
several slots: the first cut that reaches the entry wins it.

Every row is non-decreasing in q: price lists are, and min-plus
convolutions and minima of non-decreasing rows are too. The row being
filled, best, stays non-decreasing all through its fill, so the
convolution loops bisect it live, with no copy. The candidates of one
left entry q1 (of one alpha in E3, with q1 = 0 and lv = alpha*c) form a
run lv + v over the other row's entries v, non-decreasing in q from q1
on. The run can only win where best[q] > lv, from the bisection point of
best past lv (and not before q1), and only while lv + v < top, top being
best's last entry when the cut or alpha began: E2 stops at the first v
past it, and E3 ends its window at a bisection point of the raised row.
Candidates left out either way could never win. Lowering best to the
minimum of it and the run keeps best non-decreasing. Inside the window
both are, and past its end best is as it was. Before the window's first
entry q, best[q-1] <= lv: by the bisection where q > q1, and where
q = q1 > 0 because best[q1-1] <= M(a,t,h)[q1-1] <= lv already. On cut
t = a, and on a cut t > a where M(a,t,h)[q1-1] is an E3 entry, that
entry's run came first (it is below top, as lv is) and starts at that
cost; otherwise its candidate at q2 = 0 has that cost, and the cut lemma
below puts best[q1-1] at most that.

A long spanning only part of [a,b] needs no E3 candidate. Clipped to
[s,e] != [a,b], with hc = min(H,alpha*w), its "strip" candidate for
q = q1+q2+q3 is alpha*c + A(a,s-1,h)[q1] + M(s,e,hc)[q2] + A(e+1,b,h)[q3]
(M(s,e,hc) is zero at and above the peak of [s,e], so hc may be clamped
to that peak alike). Let M' be the table whose E3 takes strip candidates
too. By induction over the fill order, M' = M with the same choices. In
row (a,b,h), if s > a, the cut t = s-1 costs at most the strip candidate:
M(a,s-1,h)[q1] <= A(a,s-1,h)[q1], and M'(s,b,h)[q2+q3] is at most row
(s,b,h)'s own candidate with an empty left strip (where its alpha loop
stopped at alpha*c >= top, every entry is <= top). If s = a and e < b,
the cut t = e does, by row (a,e,h)'s E3 and M(e+1,b,h) <= A(e+1,b,h). E2
runs before E3, its pruning skips only candidates that cannot beat the
entry, and an update needs a strictly lower cost, so a strip candidate
never changes an entry or a choice.

A cut t > a only needs the left entries won by a long. In row (a,b,h)
with h < P, let M(a,t,h)[q1] have a choice other than E3; its candidate
for q = q1+q2 is M(a,t,h)[q1] + M(t+1,b,h)[q2]. If that choice is E2 at
t' < t with x units left of t', the cut t' offers M(a,t',h)[x] +
M(t'+1,b,h)[q-x], and cut t of row (t'+1,b,h) makes that at most the
candidate. Otherwise it is BASE0 (q1 = 0) or BASEH (all-zero row), and in
both the entry is A(a,t,h)[q1] = A(a,t-1,h)[x] + gamma_t(h)[q1-x] for some
x (a one-slot row is never a left row of t > a). The cut t-1 offers
M(a,t-1,h)[x] + M(t,b,h)[q-x], which is at most the candidate because
M(a,t-1,h) <= A(a,t-1,h) and cut t of row (t,b,h) takes M(t,t,h)[y] <=
gamma_t(h)[y]. By induction over the fill order and over t, every entry is
at most every candidate of every cut, skipped or not: cut t' runs before
cut t, its pruning skips only candidates that cannot beat the entry, and
rows (t'+1,b,h) and (t,b,h) are filled first (an all-zero row holds it
trivially). An update needs a strictly lower cost, so such a candidate
never changes an entry or a choice. Cut t = a keeps all its left entries,
since no cut comes before it.

So a cut t > a walks only the left row's E3 entries, which each M row
lists in ascending q. When there are none, or the first already costs
at least the row's current top entry, the cut tries no candidate and is
skipped before its right row is requested. The span bound ends the pass
before the left row is even requested. Let span_c(a,t) be the least c of
a solver long spanning [a,t], INFEASIBLE when none does. An E3 entry of
row (a,t,h) costs at least alpha*c >= c for such a long, so at least
span_c(a,t); and a long spanning [a,t+1] spans [a,t], so span_c(a,t) is
non-decreasing in t, while top only falls during the pass. So once
span_c(a,t) >= top at a cut t > a, that cut and every later one would be
skipped, and the pass stops there. A row is a function of its key alone,
so a row left unrequested changes no other row. span_c(a,.) is kept as
steps, O(longs) per a rather than O(T): walking the longs from the
cheapest, each one that holds a and ends at e past the farthest end so
far is a step (e, c), the least c for t up to e. A pass moves through the
steps as t grows and stops at the first t > a past the last step or whose
step costs at least top.

With the pruning above, an entry is the least of all its candidates,
tried or not, and its choice is the first candidate in order that
reaches it: every pruning skips only candidates that cannot strictly
beat the entry at that point. Rows do not increase with h. Price lists
do not; E2 candidates do not, by induction over the range length; and an
E3 candidate of row (a,b,h1) is one of row (a,b,h2), h2 > h1, too, unless
alpha*w <= h2, and then it is at least M(a,b,min(P,alpha*w))[q] >=
M(a,b,h2)[q], by induction over h1 downward from P, where rows are all
zero.

A long that another long beats never wins an entry. Let o beat r:
o.s <= r.s, r.e <= o.e and ceil(r.w/o.w)*o.c < r.c (``core.undominated``).
In row (a,b,h), o spans [a,b] whenever r does. For r's candidate at
alpha, let alpha' = ceil(alpha*r.w/o.w). Then alpha'*o.w >= alpha*r.w > h,
so alpha' lies in o's alpha range; alpha'*o.c <= alpha*ceil(r.w/o.w)*o.c
< alpha*r.c; and o's free height min(P,alpha'*o.w) is at least r's, so
at every q o's candidate at alpha' costs strictly less than r's. o's
alpha loop either reaches alpha', after which every entry is at most
o's candidate, or breaks at some alpha'' < alpha', on alpha''*o.c >= top
or on the all-zero row of free height P; either way every entry is then
at most alpha''*o.c, which is below r's candidate. So no candidate of r
is ever the least of its entry, and the solver leaves out every long
that another long beats, which requests fewer rows.

Rows end at the target: a solver for target Q = k fills only q = 0..Q
of a row. These entries are those of the row over the whole demand,
with the same choices, and an M row lists the same E3 entries up to Q. A
candidate for q reads only entries at or below q: gamma_a(h)[q] in E1, a
cut's entries q1 and q-q1, and M(a,b,hc)[q] in E3. So, by induction over
the fill order, each candidate for q <= Q has the same cost in both rows.
Both rows try the candidates in the same order and update only on a
strictly lower cost, and where one row skips a candidate, that candidate
cannot strictly lower the entry at that point. So, by induction over the
candidates, the entry and its choice agree after each one. The ended row
skips more only through top, which is now best[Q]. At the start of a pass
top is at least best[q] for every q <= Q, since best is non-decreasing
between passes, and within a pass best only falls. So the breaks on
top == 0, on span_c(a,t) >= top and on alpha*c >= top, and the windows
ended at top, skip only candidates that cannot win an entry at q <= Q. A
cut t > a walks the left row's E3 entries, which agree up to Q; one above
Q offers only q > Q.

Rows are filled on demand, whole rows at a time. An M row needs rows of
strictly shorter ranges, or of its own range at a strictly larger free
height, so the requests are acyclic. They are served from an explicit
stack of row generators rather than by recursion; a row requested while
it is being filled raises RuntimeError. Within a row, ties keep the
first candidate in the order E1 (one-slot rows only), E2 by (t, q1), E3
by (long, alpha), because every update needs a strictly lower cost.

Entries are (cost, choice); replaying choices reconstructs a feasible
solution whose recomputed cost equals the root table entry exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Mapping

from .core import (INFEASIBLE, MAX_TIMESLOTS, Cost, Resource, check_dense_ids, check_resources,
                   first_uncovered_slot, is_feasible, multiset_profile, undominated)

# certified factor of the cheapest SLRA cover against the unrestricted optimum
SLRA_FACTOR = 16


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
        if not 1 <= self.T <= MAX_TIMESLOTS:
            raise ValueError(f"T must be in [1, {MAX_TIMESLOTS}], got {self.T}")
        if len(self.d) != self.T:
            raise ValueError(f"demand profile has length {len(self.d)}, expected {self.T}")
        if any(x < 0 for x in self.d):
            raise ValueError("demands must be non-negative")
        check_dense_ids("shorts", self.shorts)
        for i, s in enumerate(self.shorts):
            if not 1 <= s.t <= self.T:
                raise ValueError(f"shorts[{i}] slot {s.t} not within [1,{self.T}]")
            if s.w < 1 or s.c < 0:
                raise ValueError(f"shorts[{i}] needs w >= 1 and c >= 0")
        check_dense_ids("longs", self.longs)
        check_resources("longs", self.longs, self.T)
        if not 0 <= self.k <= sum(self.d):
            raise ValueError(f"k={self.k} not in [0, {sum(self.d)}]")


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


class LspcSolver:
    """Table M of one instance, as rows filled on demand.

    ``memo_a`` maps (t, h) to slot t's price list gamma_t(h), the costs of
    q = 0..d_t units at slot t with shorts alone, built with the one-slot
    M row (t,t,h) (E1). ``memo_m`` maps (a, b, h) to a row (costs,
    choices, E3 list): costs and choices are lists indexed by q, with
    ``INFEASIBLE`` as the cost of an unreachable q, and the E3 list holds
    the q whose choice is E3, ascending. Choices are ("BASE0",) for q = 0,
    ("BASEH",) when h reaches the row's peak demand P (slots filled left
    to right), ("E1", short id) on a one-slot row, naming the slot's
    cheapest short that suffices by (c, id), or None where q <= h needs
    none, ("E2", t, q1) for a cut after slot t with q1 units in [a,t], and
    ("E3", long id, alpha), which goes on in row M(a,b,min(P,alpha*w)).
    An E2 choice is one tuple per left entry, shared by every entry of
    the row that left entry wins; choices compare by value, so sharing
    shows only as fewer allocations. A row's peak P = max(d_a..d_b) is
    read in O(1) from a sparse table of range maxima, O(T log T) ints
    built in ``__init__``, so a solve over a long timeline pays no O(T)
    scan per row.
    Rows end at q = ``inst.k``, so one solver answers every target
    0..``inst.k``; a target above that but within the demand is a
    ValueError, and one above the demand is infeasible. Not thread-safe:
    each solve owns its rows.

    A solve fills the root row M(1,T,0) and the rows filled rows request,
    nothing else. Row (a,b,h) with h below its peak requests, per cut t
    of its pass, the left row (a,t,h) and then, unless the left row lists
    no E3 entry below top, the right row (t+1,b,h); the pass stops at
    top == 0 or at the first t > a with span_c(a,t) >= top (module
    docstring). Its E3 loop requests (a,b,min(P,alpha*w)) per long that
    spans [a,b], until alpha*c >= top. Without longs only cut t = a runs,
    so a solve fills at most 2T - 1 rows: (t,t,0) and (t,T,0).
    """

    def __init__(self, inst: LspcInstance):
        self.inst = inst
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
        # _steps[a]: span_c(a,.) as steps (end, cost), ends ascending, then
        # (T, INFEASIBLE) for the t past them (module docstring).
        by_cost = sorted(self._longs, key=lambda r: r.c)
        self._steps: list[list[tuple[int, Cost]]] = [[]]
        for a in range(1, inst.T + 1):
            steps = []
            reach = a - 1
            for r in by_cost:
                if r.s <= a and r.e > reach:
                    steps.append((r.e, r.c))
                    reach = r.e
            steps.append((inst.T, INFEASIBLE))
            self._steps.append(steps)
        # _peaks[j][i] = max(d[i:i + 2**j]); a range's peak is the larger of
        # the two windows of its largest power-of-two length at either end.
        self._peaks = [list(d)]
        width = 1
        while 2 * width <= inst.T:
            prev = self._peaks[-1]
            self._peaks.append(list(map(max, prev, prev[width:])))
            width *= 2
        self.memo_a: dict[tuple[int, int], list[Cost]] = {}
        self.memo_m: dict[tuple[int, int, int], tuple[list, list, list]] = {}

    def _dsum(self, a: int, b: int) -> int:
        if a > b:
            return 0
        return self._pref[b] - self._pref[a - 1]

    def _peak(self, a: int, b: int) -> int:
        """max(d_a..d_b) for a <= b, in O(1)."""
        j = (b - a + 1).bit_length() - 1
        row = self._peaks[j]
        return max(row[a - 1], row[b - (1 << j)])

    def table_m(self, a: int, b: int, q: int, h: int) -> Cost:
        """Entry M(a,b,h)[q]. A q above the range's demand has no entry and
        is infeasible; a negative q, or one within the demand but above the
        target ``inst.k`` where rows end, is a ValueError."""
        if q > self._dsum(a, b):
            return INFEASIBLE
        if not 0 <= q <= self.inst.k:
            raise ValueError(f"coverage {q} not in [0, {self.inst.k}]: a solver answers "
                             f"targets up to its instance's k")
        if q == 0:
            return 0
        return self._row_m(a, b, h)[0][q]

    def _row_m(self, a: int, b: int, h: int) -> tuple[list, list, list]:
        """Row M(a,b,h) as (costs, choices, E3 list). Rows it needs are
        filled first, each by its own generator on an explicit stack."""
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
        peak = self._peak(a, b)
        if h >= peak:
            return [0] * size, [("BASE0",)] + [("BASEH",)] * (size - 1), []
        memo = self.memo_m
        if a == b:
            # gamma_a(h), h < peak = d_a: walking the shorts by (c, id), each
            # that reaches past priced is the cheapest for q = priced+1..h+w.
            prices = [0] * (h + 1) + [INFEASIBLE] * (peak - h)
            choice = [("BASE0",)] + [("E1", None)] * h + [None] * (peak - h)
            priced = h
            for s in self._shorts_at[a]:
                if h + s.w > priced:
                    pick = ("E1", s.id)
                    for q in range(priced + 1, min(h + s.w, peak) + 1):
                        prices[q] = s.c
                        choice[q] = pick
                    priced = h + s.w
            self.memo_a[(a, h)] = prices
            best = prices[:size]
            del choice[size:]
        else:
            # shorts alone never beat the cut t = a (module docstring)
            best = [0] + [INFEASIBLE] * (size - 1)
            choice = [("BASE0",)] + [None] * (size - 1)

        # best stays non-decreasing in q, so each run of candidates lv + v
        # bisects it live for the first q >= q1 with best[q] > lv, and
        # stops at the first lv + v >= top (module docstring). Candidates
        # left out that way could never win, and neither could a cut t > a
        # through a left entry not won by a long: such a cut walks only the
        # left row's E3 entries, and is skipped when none is below top; as
        # those entries cost at least span_c(a,t), the first cut t > a whose
        # step costs at least top ends the pass before its left row is
        # requested. A left entry's choice is built on its first win and
        # shared by every entry it wins.
        steps = iter(self._steps[a])
        end, span = next(steps)
        for t in range(a, b):
            top = best[-1]
            if t > end:
                end, span = next(steps)  # step ends grow, t by one
            if top == 0 or (t > a and span >= top):
                break  # no later cut can lower an entry
            left = memo.get((a, t, h)) or (yield (a, t, h))
            lcosts = left[0]
            if t == a:
                q1s = range(len(lcosts))
            else:
                q1s = left[2]
                if not q1s or lcosts[q1s[0]] >= top:
                    continue
            rcosts = (memo.get((t + 1, b, h)) or (yield (t + 1, b, h)))[0]
            for q1 in q1s:
                lv = lcosts[q1]
                if lv >= top:
                    break
                pick = None
                q = bisect_right(best, lv, q1)
                for v in islice(rcosts, q - q1, size - q1):
                    v += lv
                    if v >= top:
                        break
                    if v < best[q]:
                        best[q] = v
                        choice[q] = pick = pick or ("E2", t, q1)
                    q += 1

        won = set()
        for r in self._longs:
            if r.s > a or r.e < b:
                continue  # a strip long never wins (module docstring)
            for alpha in range(h // r.w + 1, peak + 1):
                base = alpha * r.c
                top = best[-1]
                if base >= top:
                    # copies only get dearer; nothing below can improve
                    break
                hc = min(peak, alpha * r.w)
                raised = (memo.get((a, b, hc)) or (yield (a, b, hc)))[0]
                q = bisect_right(best, base)
                for v in raised[q:bisect_left(raised, top - base)]:
                    if base + v < best[q]:
                        best[q] = base + v
                        choice[q] = ("E3", r.id, alpha)
                        won.add(q)
                    q += 1
                if hc == peak:
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
                _, sid = choice
                if sid is not None:
                    shorts.add(sid)
                elif q > h:
                    raise RuntimeError(f"E1 entry {(a, b, q, h)} has no short for slot {a}")
                coverage[a - 1] = q
            elif tag == "E2":
                _, t, q1 = choice
                todo.append((t + 1, b, q - q1, h))
                todo.append((a, t, q1, h))
            else:
                _, rid, alpha = choice
                longs[rid] = longs.get(rid, 0) + alpha
                peak = self._peak(a, b)
                todo.append((a, b, q, min(peak, alpha * self.inst.longs[rid].w)))


def verify_lspc(inst: LspcInstance, sol: LspcSolution) -> LspcReport:
    """Check the four feasibility clauses and recompute the cost.

    Clauses, in the order they are reported: coverage profile respects
    the demands (k_t <= d_t), (i) total measure at least k, (ii) picked
    capacity at every slot at least k_t, (iii) at most one short per slot.
    """
    short_ids = {s.id for s in inst.shorts}
    if len(sol.coverage) != inst.T or not short_ids.issuperset(sol.short_picks):
        return LspcReport(False, INFEASIBLE, violated_clause="structure")
    try:
        cap = list(multiset_profile(sol.long_counts, inst.longs, inst.T))
    except ValueError:  # an unknown long id or a count below 1
        return LspcReport(False, INFEASIBLE, violated_clause="structure")

    cost = sum(inst.shorts[sid].c for sid in sol.short_picks)
    cost += sum(count * inst.longs[rid].c for rid, count in sol.long_counts.items())

    for t in range(inst.T):
        if not 0 <= sol.coverage[t] <= inst.d[t]:
            return LspcReport(False, cost, violated_clause="profile", violated_slot=t + 1)
    if sum(sol.coverage) < inst.k:
        return LspcReport(False, cost, violated_clause="measure")
    for sid in sol.short_picks:
        cap[inst.shorts[sid].t - 1] += inst.shorts[sid].w
    slot = first_uncovered_slot(cap, sol.coverage)
    if slot is not None:
        return LspcReport(False, cost, violated_clause="capacity", violated_slot=slot)
    slots = sorted(inst.shorts[sid].t for sid in sol.short_picks)
    slot = next((t for t, u in zip(slots, slots[1:]) if t == u), None)
    if slot is not None:
        return LspcReport(False, cost, violated_clause="one-short-per-slot", violated_slot=slot)
    return LspcReport(True, cost)
