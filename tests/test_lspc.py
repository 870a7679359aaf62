"""Long/short partial cover: table semantics, reconstruction, invariants."""

import functools
import inspect
import itertools
import json
import random
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from intervalcover.core import INFEASIBLE, MAX_TIMESLOTS, Resource, undominated
from intervalcover.generate import generate_lspc
from intervalcover.lspc import (
    LspcInstance,
    LspcReport,
    LspcResult,
    LspcSolution,
    LspcSolver,
    ShortResource,
    verify_lspc,
)
from intervalcover.oracle import oracle_lspc


def _inst(d, shorts, longs, k):
    built_s = tuple(ShortResource(i, t, w, c) for i, (t, w, c) in enumerate(shorts))
    built_l = tuple(Resource(i, s, e, w, c) for i, (s, e, w, c) in enumerate(longs))
    return LspcInstance(len(d), tuple(d), built_s, built_l, k)


# A one-slot row of a long-free instance is the slot's price list
# gamma_t(h), and its E1 choices name the short each entry picks.

def test_gamma_zero_coverage_is_free():
    solver = LspcSolver(_inst([2], [], [], 2))
    assert solver.table_m(1, 1, 0, 0) == 0
    assert solver.table_m(1, 1, 1, 1) == 0
    assert solver.memo_m[(1, 1, 1)][1][1] == ("E1", None)  # q <= h: no short


def test_gamma_above_demand_infeasible():
    inst = _inst([2], [(1, 5, 1)], [], 0)
    assert LspcSolver(inst).table_m(1, 1, 3, 5) == INFEASIBLE


def test_gamma_picks_cheapest_sufficient_short():
    inst = _inst([2], [(1, 1, 1), (1, 2, 5)], [], 2)
    solver = LspcSolver(inst)
    got = solver.table_m(1, 1, 2, 0)
    scan = min((s.c for s in inst.shorts if s.w >= 2), default=INFEASIBLE)
    assert got == scan == 5
    assert solver.memo_m[(1, 1, 0)][1][2] == ("E1", 1)
    assert solver.solve().solution.short_picks == {1}


# Table A, the cheapest way to reach q over [a,b] with shorts alone, is a
# quantity of the module docstring's proofs, not a table of the solver.
# Without longs, table M is table A: every cut convolves two shorts-only
# rows. So the test_table_a_* tests check table M of long-free instances
# against a test-local enumeration of the shorts.

def test_table_a_zero_coverage():
    inst = _inst([1, 2, 0], [], [], 0)
    assert LspcSolver(inst).table_m(1, 3, 0, 0) == _enumerate_shorts_only(inst, 1, 3, 0, 0) == 0
    # empty range
    assert LspcSolver(inst).table_m(2, 1, 0, 0) == _enumerate_shorts_only(inst, 2, 1, 0, 0) == 0


def test_table_a_free_height_covers():
    inst = _inst([1], [], [], 1)
    assert LspcSolver(inst).table_m(1, 1, 1, 1) == _enumerate_shorts_only(inst, 1, 1, 1, 1) == 0


def _enumerate_shorts_only(inst, a, b, q, h):
    """Independent check for table A: all coverage splits and short choices."""
    slots = list(range(a, b + 1))
    best = INFEASIBLE
    for values in itertools.product(*(range(inst.d[t - 1] + 1) for t in slots)):
        if sum(values) != q:
            continue
        cost = 0
        ok = True
        for t, v in zip(slots, values):
            if v <= h:
                continue
            options = [s.c for s in inst.shorts if s.t == t and s.w >= v - h]
            if not options:
                ok = False
                break
            cost += min(options)
        if ok and cost < best:
            best = cost
    return best


@functools.lru_cache(maxsize=None)
def _shorts_only_row(inst, a, b, h):
    """Row A(a,b,h) over q = 0..d_a+...+d_b, as a tuple: each slot's
    cheapest short that suffices, folded slot by slot."""
    row = [0]
    for t in range(a, b + 1):
        prices = [0 if v <= h else min((s.c for s in inst.shorts if s.t == t and s.w >= v - h),
                                       default=INFEASIBLE)
                  for v in range(inst.d[t - 1] + 1)]
        row = [min(row[q - v] + p for v, p in enumerate(prices) if 0 <= q - v < len(row))
               for q in range(len(row) + len(prices) - 1)]
    return tuple(row)


def test_table_a_two_slots():
    inst = _inst([1, 1], [(1, 1, 1), (2, 1, 1)], [], 2)
    assert _enumerate_shorts_only(inst, 1, 2, 2, 0) == 2
    assert LspcSolver(inst).table_m(1, 2, 2, 0) == 2


def test_table_a_matches_enumeration():
    for seed in range(40):
        inst = generate_lspc(seed, timeslots=4, max_demand=2, shorts=3, longs=0)
        inst = replace(inst, k=sum(inst.d))
        solver = LspcSolver(inst)
        for h in range(max(inst.d) + 1):
            row = _shorts_only_row(inst, 1, inst.T, h)
            for q in range(sum(inst.d) + 2):
                want = _enumerate_shorts_only(inst, 1, inst.T, q, h)
                assert solver.table_m(1, inst.T, q, h) == want
                assert (row[q] if q < len(row) else INFEASIBLE) == want


def test_table_m_base_zero():
    inst = _inst([1, 1], [], [(1, 2, 1, 3)], 0)
    assert LspcSolver(inst).table_m(1, 2, 0, 0) == 0


def test_table_m_short_plus_long():
    inst = _inst([2], [(1, 1, 1)], [(1, 1, 1, 2)], 2)
    ora = oracle_lspc(inst)
    assert ora.cost == 3
    assert LspcSolver(inst).table_m(1, 1, 2, 0) == 3


def test_table_m_shorts_only_route():
    inst = _inst([1, 1], [(1, 1, 1), (2, 1, 1)], [], 2)
    ora = oracle_lspc(inst)
    assert ora.cost == 2
    assert LspcSolver(inst).table_m(1, 2, 2, 0) == 2


def test_solve_k0():
    inst = _inst([1, 2], [], [], 0)
    res = LspcSolver(inst).solve()
    assert res.cost == 0
    assert res.solution.coverage == (0, 0)
    assert not res.solution.long_counts and not res.solution.short_picks


def test_solve_single_full_height_long():
    inst = _inst([2, 1, 2], [], [(1, 3, 2, 7)], 5)
    res = LspcSolver(inst).solve()
    assert res.cost == 7
    assert res.solution.long_counts == {0: 1}
    assert sum(res.solution.coverage) == 5


def test_solve_infeasible_when_target_exceeds_demand():
    inst = _inst([1, 1], [], [(1, 2, 5, 1)], 2)
    assert LspcSolver(inst).solve_for(3).cost == INFEASIBLE
    with pytest.raises(ValueError, match=r"k=3 not in \[0, 2\]"):
        _inst([1, 1], [], [(1, 2, 5, 1)], 3)


def test_random_sandwich_and_reconstruction():
    for seed in range(120):
        inst = generate_lspc(seed, timeslots=6, max_demand=3)
        solver = LspcSolver(inst)
        res = solver.solve()
        ora = oracle_lspc(inst)
        assert (res.solution is None) == (ora.solution is None)
        if res.solution is None:
            continue
        assert ora.cost <= res.cost <= 16 * ora.cost
        report = verify_lspc(inst, res.solution)
        assert report.feasible, report
        assert report.cost == res.cost == solver.table_m(1, inst.T, inst.k, 0)
        oracle_report = verify_lspc(inst, ora.solution)
        assert oracle_report.feasible and oracle_report.cost == ora.cost


def test_dp_monotonicity_and_domination():
    for seed in range(40):
        inst = generate_lspc(seed, timeslots=5, max_demand=3)
        solver = LspcSolver(replace(inst, k=sum(inst.d)))
        solver.solve_for(inst.k)
        for a, b, h in list(solver.memo_m):
            for q in range(len(solver.memo_m[(a, b, h)][0])):
                cost = solver.table_m(a, b, q, h)
                assert cost <= solver.table_m(a, b, q + 1, h)
                if (a, b, h + 1) in solver.memo_m:
                    assert cost >= solver.table_m(a, b, q, h + 1)
                assert cost <= _shorts_only_row(inst, a, b, h)[q]


def test_verify_lspc_trivial_and_double_short():
    inst = _inst([1], [(1, 1, 1), (1, 1, 1)], [], 0)
    assert verify_lspc(inst, LspcSolution({}, frozenset(), (0,))).feasible
    bad = LspcSolution({}, frozenset({0, 1}), (0,))
    report = verify_lspc(inst, bad)
    assert not report.feasible
    assert report.violated_clause == "one-short-per-slot"


# d=(2,1), k=3; shorts (slot, w, c): (1,1,1), (2,1,1), (1,2,5); one long
# over [1,2] with w=1, c=3. Short 0 and one long, covering (2,1), is valid.
_VERIFY_INST = _inst([2, 1], [(1, 1, 1), (2, 1, 1), (1, 2, 5)], [(1, 2, 1, 3)], 3)


@pytest.mark.parametrize("long_counts, short_picks, coverage, want", [
    ({0: 1}, {0}, (2,), LspcReport(False, INFEASIBLE, "structure")),
    ({0: 1}, {0, 7}, (2, 1), LspcReport(False, INFEASIBLE, "structure")),
    ({0: 1, 4: 1}, {0}, (2, 1), LspcReport(False, INFEASIBLE, "structure")),
    ({0: 0}, {0}, (2, 1), LspcReport(False, INFEASIBLE, "structure")),
    ({0: 1}, {0}, (3, 0), LspcReport(False, 4, "profile", 1)),
    ({0: 1}, {0}, (1, 1), LspcReport(False, 4, "measure")),
    ({0: 1}, set(), (2, 1), LspcReport(False, 3, "capacity", 1)),
    ({0: 1}, {1}, (2, 1), LspcReport(False, 4, "capacity", 1)),
    ({0: 1}, {0, 2}, (2, 1), LspcReport(False, 9, "one-short-per-slot", 1)),
])
def test_verify_lspc_rejections(long_counts, short_picks, coverage, want):
    valid = LspcSolution({0: 1}, frozenset({0}), (2, 1))
    assert verify_lspc(_VERIFY_INST, valid) == LspcReport(True, 4)
    broken = LspcSolution(long_counts, frozenset(short_picks), coverage)
    assert verify_lspc(_VERIFY_INST, broken) == want


def test_verify_lspc_rejects_overcoverage():
    inst = _inst([1], [], [(1, 1, 2, 1)], 1)
    report = verify_lspc(inst, LspcSolution({0: 1}, frozenset(), (2,)))
    assert not report.feasible and report.violated_clause == "profile"


def test_instance_validation():
    with pytest.raises(ValueError):
        _inst([1], [(2, 1, 1)], [], 0)  # short slot out of range
    with pytest.raises(ValueError):
        _inst([-1], [], [], 0)
    with pytest.raises(ValueError):
        _inst([1], [], [(1, 2, 1, 1)], 0)  # long interval out of range
    # longs go through the shared resource check in core, with its messages
    for long, message in [((1, 2, 0, 1), r"longs\[0\] capacity must be >= 1"),
                          ((1, 2, 1, -1), r"longs\[0\] has negative cost -1"),
                          ((1, 3, 1, 1), r"longs\[0\] interval \[1,3\] not within \[1,2\]")]:
        with pytest.raises(ValueError, match=message):
            _inst([1, 1], [], [long], 1)
    # ids must equal positions, with the rule and messages of Instance
    with pytest.raises(ValueError, match=r"shorts\[0\] has id 1, expected dense id 0"):
        LspcInstance(1, (1,), (ShortResource(1, 1, 1, 1),), (), 0)
    with pytest.raises(ValueError, match=r"longs\[0\] has id 3, expected dense id 0"):
        LspcInstance(1, (1,), (), (Resource(3, 1, 1, 1, 1),), 0)
    # the timeline cap of Instance
    with pytest.raises(ValueError, match=rf"T must be in \[1, {MAX_TIMESLOTS}\], got {MAX_TIMESLOTS + 1}"):
        LspcInstance(MAX_TIMESLOTS + 1, (0,) * (MAX_TIMESLOTS + 1), (), (), 0)
    assert LspcInstance(MAX_TIMESLOTS, (0,) * MAX_TIMESLOTS, (), (), 0).T == MAX_TIMESLOTS


def test_solver_reusable_across_targets():
    inst = generate_lspc(7, timeslots=5, max_demand=3)
    solver = LspcSolver(replace(inst, k=sum(inst.d)))
    for k in range(sum(inst.d) + 1):
        res = solver.solve_for(k)
        fresh = LspcSolver(LspcInstance(inst.T, inst.d, inst.shorts, inst.longs, k)).solve()
        assert res.cost == fresh.cost
        if res.solution is not None:
            moved = LspcInstance(inst.T, inst.d, inst.shorts, inst.longs, k)
            assert verify_lspc(moved, res.solution).feasible


def test_targets_above_k_within_the_demand_are_refused():
    inst = generate_lspc(7, timeslots=5, max_demand=3, k=2)
    solver = LspcSolver(inst)
    D = sum(inst.d)
    assert D > 3
    for k in range(3, D + 1):
        with pytest.raises(ValueError, match=rf"coverage {k} not in \[0, 2\]"):
            solver.solve_for(k)
    for k in (D + 1, D + 5):
        assert solver.solve_for(k) == LspcResult(INFEASIBLE, None)
    assert solver.table_m(1, 1, D + 1, 0) == INFEASIBLE
    with pytest.raises(ValueError, match=r"coverage 3 not in \[0, 2\]"):
        solver.table_m(1, inst.T, 3, 0)


def test_negative_targets_are_refused():
    # Unchecked, a negative q indexes a row from its end: table_m(1, T, -1,
    # 0) would return the full-coverage entry.
    inst = _inst([1, 2], [(1, 1, 1), (2, 2, 3)], [], 3)
    solver = LspcSolver(inst)
    assert solver.solve().cost == 4
    for probe in (lambda: solver.table_m(1, 2, -1, 0), lambda: solver.table_m(2, 1, -1, 0),
                  lambda: solver.solve_for(-1)):
        with pytest.raises(ValueError, match=r"coverage -1 not in \[0, 3\]"):
            probe()


_ROW_CONFIGS = (
    dict(timeslots=5, max_demand=3),
    dict(timeslots=6, max_demand=4, shorts=8, longs=5),
    dict(timeslots=8, max_demand=4, shorts=8, longs=6),
    dict(timeslots=12, max_demand=6, shorts=30, longs=10, max_c=50),
)


def test_rows_end_at_the_target_as_prefixes_of_full_rows():
    # Rows of a solver for target k hold q = 0..k only. Each such row is the
    # prefix of the row a solver for the full demand fills: costs, choices
    # and the E3 entries it lists (module docstring). So solve() is the full
    # solver's solve_for(k), cost and solution alike.
    cases = clipped = 0
    for config in _ROW_CONFIGS:
        for seed in range(80):
            inst = generate_lspc(seed, **config)
            D = sum(inst.d)
            full = LspcSolver(replace(inst, k=D))
            for k in sorted({0, min(1, D), D // 3, D // 2, D}):
                capped = LspcSolver(replace(inst, k=k))
                assert _canonical(capped.solve()) == _canonical(full.solve_for(k)), (config, seed, k)
                for key, (costs, choices, e3) in capped.memo_m.items():
                    n = min(sum(inst.d[key[0] - 1:key[1]]), k) + 1
                    want = full._row_m(*key)
                    assert (costs, choices) == (want[0][:n], want[1][:n]), (config, seed, k, key)
                    assert e3 == [q for q in want[2] if q < n], (config, seed, k, key)
                    clipped += len(want[0]) > n
                cases += 1
    assert cases >= 1100 and clipped >= 10000, (cases, clipped)


def _reference_m(inst):
    """Table M by the plain SLRA recursion, as a function of (a, b, h) that
    returns a row over q = 0..d_a+...+d_b: shorts alone on every row, every
    cut with every left entry, and every long that spans the range raised to
    min(H, alpha*w) up to the first alpha with alpha*w >= H; all zero at
    h >= H. Nothing is pruned."""
    H = max(inst.d)

    @functools.lru_cache(maxsize=None)
    def row(a, b, h):
        if h >= H:
            return (0,) * (sum(inst.d[a - 1:b]) + 1)
        best = list(_shorts_only_row(inst, a, b, h))
        for t in range(a, b):
            right = row(t + 1, b, h)
            for q1, lv in enumerate(row(a, t, h)):
                for q2, rv in enumerate(right):
                    best[q1 + q2] = min(best[q1 + q2], lv + rv)
        for r in inst.longs:
            if r.s <= a and b <= r.e:
                for alpha in itertools.count(h // r.w + 1):
                    hc = min(H, alpha * r.w)
                    best = [min(v, alpha * r.c + u) for v, u in zip(best, row(a, b, hc))]
                    if hc == H:
                        break
        return tuple(best)

    return row


_REFERENCE_CONFIGS = (
    dict(timeslots=5, max_demand=3),
    dict(timeslots=6, max_demand=4, shorts=8, longs=5),
    dict(timeslots=8, max_demand=4, shorts=8, longs=6),
    dict(timeslots=7, max_demand=5, shorts=14, longs=8, max_c=20),
)


def test_table_m_matches_a_plain_recursion():
    # Every row the solver stores, one-slot price lists included, has the
    # costs of the unpruned recursion with shorts alone on every row, and
    # solve_for(k) costs its root entry for every k.
    rows = 0
    for config in _REFERENCE_CONFIGS:
        for seed in range(70):
            inst = generate_lspc(seed, **config)
            inst = replace(inst, k=sum(inst.d))
            solver, reference = LspcSolver(inst), _reference_m(inst)
            root = reference(1, inst.T, 0)
            for k in range(inst.k + 1):
                assert solver.solve_for(k).cost == root[k], (config, seed, k)
            for key, (costs, _, _) in solver.memo_m.items():
                assert tuple(costs) == reference(*key), (config, seed, key)
            for (t, h), prices in solver.memo_a.items():
                assert tuple(prices) == _shorts_only_row(inst, t, t, h), (config, seed, t, h)
            rows += len(solver.memo_m)
    assert rows >= 12000, rows


def _first_reaching_choices(inst, longs, reference, key, costs):
    """Per q, the first candidate of row ``key`` in the documented order
    whose cost equals ``costs[q]``, as a choice: E1 on a one-slot row, E2 by
    (t, q1) over every cut and left entry, E3 by (long in ``longs`` order,
    alpha) up to the first alpha with alpha*w >= P. Candidates are priced
    from the plain recursion, so none is pruned. None at q = 0 and where
    the entry is INFEASIBLE."""
    a, b, h = key
    peak = max(inst.d[a - 1:b])
    want = [None] * len(costs)
    todo = {q for q in range(1, len(costs)) if costs[q] != INFEASIBLE}

    def offer(q, cost, choice):
        if q in todo and cost == costs[q]:
            want[q] = choice
            todo.discard(q)

    if a == b:
        shorts = sorted((s for s in inst.shorts if s.t == a), key=lambda s: (s.c, s.id))
        for q in range(1, len(costs)):
            if q <= h:
                offer(q, 0, ("E1", None))
            for s in shorts:
                if s.w >= q - h:
                    offer(q, s.c, ("E1", s.id))
                    break
    for t in range(a, b):
        right = reference(t + 1, b, h)
        for q1, lv in enumerate(reference(a, t, h)):
            for q2, rv in enumerate(right):
                offer(q1 + q2, lv + rv, ("E2", t, q1))
    for r in longs:
        if r.s <= a and b <= r.e:
            for alpha in itertools.count(h // r.w + 1):
                hc = min(peak, alpha * r.w)
                for q, v in enumerate(reference(a, b, hc)):
                    offer(q, alpha * r.c + v, ("E3", r.id, alpha))
                if hc == peak:
                    break
    return want


def test_each_choice_is_the_first_candidate_that_reaches_its_entry():
    # An entry's choice is the first candidate, in the order E1 (one-slot
    # rows), E2 by (t, q1), E3 by (long, alpha), that reaches its cost
    # (module docstring). The windows and breaks of the convolution loops
    # skip candidates that cannot win; recomputing every candidate from the
    # plain recursion checks that they skip no first one. BASE0 (q = 0) and
    # BASEH (h at or above the row's peak) entries are left out.
    entries = 0
    for config in _REFERENCE_CONFIGS:
        for seed in range(70):
            inst = generate_lspc(seed, **config)
            inst = replace(inst, k=sum(inst.d))
            solver, reference = LspcSolver(inst), _reference_m(inst)
            solver.solve()
            for (a, b, h), (costs, choices, _) in solver.memo_m.items():
                if h >= max(inst.d[a - 1:b]):
                    continue
                want = _first_reaching_choices(inst, solver._longs, reference, (a, b, h), costs)
                assert choices[1:] == want[1:], (config, seed, (a, b, h))
                entries += len(costs) - 1
    assert entries >= 60000, entries


def test_replay_of_a_corrupt_table_raises():
    inst = LspcInstance(1, (1,), (), (Resource(0, 1, 1, 1, 1),), 1)
    solver = LspcSolver(inst)
    assert solver.solve().cost == 1
    solver.memo_m[(1, 1, 0)][1][1] = ("E1", None)  # q=1 entry: shorts alone, but slot 1 has none
    with pytest.raises(RuntimeError, match="has no short for slot 1"):
        solver.solve_for(1)


def _golden_record(res):
    if res.solution is None:
        return [None, None, None, None]
    sol = res.solution
    return [res.cost, sorted([k, v] for k, v in sol.long_counts.items()),
            sorted(sol.short_picks), list(sol.coverage)]


_GOLDEN = json.loads((Path(__file__).parent / "data" / "lspc_golden.json").read_text())
_BENCH_SIZES = dict(timeslots=12, max_demand=6, shorts=30, longs=10, max_c=50)


def test_outputs_match_recorded_golden():
    # (cost, sorted long counts, sorted short picks, coverage); pins the
    # tie-breaking of E1 on one-slot rows only, then E2 by (t, q1), then E3
    for seed, expected in enumerate(_GOLDEN["solve"]):
        inst = generate_lspc(seed, **_BENCH_SIZES)
        inst = replace(inst, k=sum(inst.d) // 2)
        assert _golden_record(LspcSolver(inst).solve()) == expected, seed
    for seed, expected in _GOLDEN["sweep"].items():
        inst = generate_lspc(int(seed), **_BENCH_SIZES)
        solver = LspcSolver(replace(inst, k=sum(inst.d)))
        assert len(expected) == sum(inst.d) + 1
        for k, record in enumerate(expected):
            assert _golden_record(solver.solve_for(k)) == record, (seed, k)


def test_solve_needs_no_deep_stack():
    inst = generate_lspc(1, timeslots=60, max_demand=1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        lowered = sys.getrecursionlimit()
        res = LspcSolver(inst).solve()
        assert sys.getrecursionlimit() == lowered
    finally:
        sys.setrecursionlimit(limit)
    assert _golden_record(res) == _GOLDEN["deep"]


def _units(inst, a, b):
    """Coverage levels q of range [a,b]."""
    return range(sum(inst.d[a - 1:b]) + 1)


def test_strip_long_candidates_never_win():
    # The lemma in the module docstring: an E3 candidate whose long covers
    # only part of the row's range, with shorts on the strips left and
    # right of it, never costs less than the row's entry, for every alpha
    # up to the first with alpha*w >= H.
    for seed in range(61):
        inst = generate_lspc(seed, timeslots=6, max_demand=4, shorts=8, longs=5)
        solver = LspcSolver(replace(inst, k=sum(inst.d)))
        solver.solve_for(inst.k)
        H = max(inst.d)
        for a, b, h in list(solver.memo_m):
            if h >= H:
                continue
            row = solver.memo_m[(a, b, h)][0]
            for r in inst.longs:
                s2, e2 = max(a, r.s), min(b, r.e)
                if s2 > e2 or (s2, e2) == (a, b):
                    continue
                left = _shorts_only_row(inst, a, s2 - 1, h)
                right = _shorts_only_row(inst, e2 + 1, b, h)
                for alpha in range(h // r.w + 1, H + 1):
                    hc = min(H, alpha * r.w)
                    mid = [solver.table_m(s2, e2, q2, hc) for q2 in _units(inst, s2, e2)]
                    for (q1, lv), (q2, mv), (q3, rv) in itertools.product(
                            enumerate(left), enumerate(mid), enumerate(right)):
                        assert alpha * r.c + lv + mv + rv >= row[q1 + q2 + q3], \
                            (seed, (a, b, h), r.id, alpha, q1, q2, q3)
                    if hc == H:
                        break


def _span_c(inst, a, t):
    """The least cost of one copy of an undominated long spanning [a,t]."""
    return min((inst.longs[p].c for p in undominated(inst.longs)
                if inst.longs[p].s <= a and t <= inst.longs[p].e), default=INFEASIBLE)


def test_late_cut_left_entries_not_won_by_a_long_never_win():
    # The cut lemma in the module docstring: in a row (a,b,h) with h < H, a
    # cut t > a whose left entry M(a,t,h)[q1] was not won by a long (its
    # choice is not E3) never offers less than the row's entry, for any q2.
    unfilled = 0
    for seed in range(61):
        inst = generate_lspc(seed, timeslots=6, max_demand=4, shorts=8, longs=5)
        solver = LspcSolver(replace(inst, k=sum(inst.d)))
        solver.solve_for(inst.k)
        H = max(inst.d)
        memo = solver.memo_m
        reference = _reference_m(inst)
        for a, b, h in list(memo):
            if h >= H:
                continue
            row = memo[(a, b, h)][0]
            for t in range(a + 1, b):
                left = memo.get((a, t, h))
                if left is None:
                    # The row's cut pass stopped before cut t: entries won by a
                    # long cost at least span_c(a,t), which reaches the row's
                    # top entry. So every left entry, whatever its choice,
                    # offers no less than the row's entry; the unfilled rows
                    # are taken from the plain recursion.
                    assert _span_c(inst, a, t) >= row[-1], (seed, (a, b, h), t)
                    right = reference(t + 1, b, h)
                    for q1, lv in enumerate(reference(a, t, h)):
                        for q2, rv in enumerate(right):
                            assert lv + rv >= row[q1 + q2], (seed, (a, b, h), t, q1, q2)
                    unfilled += 1
                    continue
                right = [solver.table_m(t + 1, b, q2, h) for q2 in _units(inst, t + 1, b)]
                for q1, lch in enumerate(left[1]):
                    if lch is None or lch[0] == "E3":
                        continue
                    lv = solver.table_m(a, t, q1, h)
                    for q2, rv in enumerate(right):
                        assert lv + rv >= row[q1 + q2], (seed, (a, b, h), t, q1, q2)
    assert unfilled >= 100, unfilled


def test_span_c_is_the_least_cost_of_a_spanning_long():
    # span_c(a,t) bounds from below every entry of a row (a,t,h) won by a
    # long, and the cut loop's stop relies on it growing with t. The loop
    # moves at most one step per cut, so step ends must grow strictly.
    spans = 0
    for config in _ROW_CONFIGS:
        for seed in range(40):
            inst = generate_lspc(seed, **config)
            solver = LspcSolver(inst)
            for a in range(1, inst.T + 1):
                steps = solver._steps[a]
                ends = [e for e, _ in steps[:-1]]
                assert steps[-1] == (inst.T, INFEASIBLE) and ends == sorted(set(ends)), (config, seed, a)
                got = [next(c for e, c in steps if e >= t) for t in range(a, inst.T + 1)]
                assert got == [_span_c(inst, a, t) for t in range(a, inst.T + 1)], (config, seed, a)
                assert got == sorted(got), (config, seed, a)
                spans += sum(v != INFEASIBLE for v in got)
    assert spans >= 4000, spans


def test_row_peaks_are_range_maxima():
    # A row's peak comes from a sparse table of range maxima in O(1); it
    # must be max(d_a..d_b) for every range, whether or not T or the
    # range's length is a power of two.
    rnd = random.Random("lspc-peaks")
    for T in range(1, 41):
        for _ in range(3):
            d = tuple(rnd.randint(0, 9) for _ in range(T))
            solver = LspcSolver(LspcInstance(T, d, (), (), 0))
            for a in range(1, T + 1):
                for b in range(a, T + 1):
                    assert solver._peak(a, b) == max(d[a - 1:b]), (d, a, b)


def test_a_long_free_solve_fills_only_one_slot_and_suffix_rows():
    # Without longs span_c is INFEASIBLE, so each pass runs only its cut
    # t = a: a solve fills at most the 2T - 1 rows (t,t,0) and (t,T,0), and
    # they have the plain recursion's costs.
    filled = 0
    for config in ({**c, "longs": 0} for c in _ROW_CONFIGS):
        for seed in range(20):
            inst = generate_lspc(seed, **config)
            inst = replace(inst, k=sum(inst.d))
            solver, reference = LspcSolver(inst), _reference_m(inst)
            for k in range(inst.k + 1):
                assert solver.solve_for(k).cost == reference(1, inst.T, 0)[k], (config, seed, k)
            T = inst.T
            assert len(solver.memo_m) <= 2 * T - 1, (config, seed)
            for key, (costs, _, _) in solver.memo_m.items():
                assert key[2] == 0 and (key[0] == key[1] or key[1] == T), (config, seed, key)
                assert tuple(costs) == reference(*key), (config, seed, key)
            filled += len(solver.memo_m)
    assert filled >= 1000, filled


def test_a_long_free_solve_on_a_long_timeline_keeps_memory_linear():
    # Rows of a long-free solve hold at most k + 1 entries each, and span_c
    # is one step per start, so memory grows with T, not T^2: a table of
    # span_c(a,t) over every pair alone would take over 120 MB here.
    inst = generate_lspc(0, timeslots=4000, max_demand=2, shorts=100, longs=0, k=10)
    tracemalloc.start()
    try:
        res = LspcSolver(inst).solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.cost == 4 and verify_lspc(inst, res.solution) == LspcReport(True, 4)
    assert peak < 32 * 2**20, peak


def _canonical(res, rename=lambda rid: rid):
    """(cost, solution) of a result, with long ids passed through ``rename``."""
    sol = res.solution
    if sol is None:
        return res.cost, None
    return res.cost, (sorted((rename(rid), n) for rid, n in sol.long_counts.items()),
                      sorted(sol.short_picks), sol.coverage)


def test_adding_a_beaten_long_changes_no_solution():
    # A long r with o.s <= r.s, r.e <= o.e and ceil(r.w / o.w) * o.c < r.c
    # for some long o never wins an entry (module docstring). Adding one
    # anywhere among the longs leaves solve_for(k) the same for every k,
    # and so does a solver that still tries every long as an E3 candidate;
    # the rows both solvers fill agree.
    rnd = random.Random("lspc-beaten")
    seen = dict.fromkeys(("before_beater", "long_used", "fewer_rows"), 0)
    for seed in range(40):
        inst = generate_lspc(seed, timeslots=6, max_demand=4, shorts=8, longs=5)
        o = rnd.choice(inst.longs)
        s = rnd.randint(o.s, o.e)
        w = rnd.randint(1, 4)
        r = Resource(-1, s, rnd.randint(s, o.e), w, -(-w // o.w) * o.c + rnd.randint(1, 3))
        at = rnd.randint(0, len(inst.longs))
        longs = inst.longs[:at] + (r,) + inst.longs[at:]
        inst = replace(inst, k=sum(inst.d))
        grown = replace(inst, longs=tuple(replace(x, id=i) for i, x in enumerate(longs)))
        solver, grown_solver, every_long = LspcSolver(inst), LspcSolver(grown), LspcSolver(grown)
        every_long._longs = list(grown.longs)
        for k in range(sum(inst.d) + 1):
            want = _canonical(solver.solve_for(k))
            got = grown_solver.solve_for(k)
            if got.solution:
                assert at not in got.solution.long_counts
            assert _canonical(got, lambda rid: rid - (rid > at)) == want, (seed, k)
            assert _canonical(every_long.solve_for(k)) == _canonical(got), (seed, k)
            seen["long_used"] += bool(got.solution and got.solution.long_counts)
        for key in grown_solver.memo_m.keys() & every_long.memo_m.keys():
            assert grown_solver.memo_m[key][:2] == every_long.memo_m[key][:2], (seed, key)
        seen["before_beater"] += at <= o.id
        seen["fewer_rows"] += len(grown_solver.memo_m) < len(every_long.memo_m)
    assert all(count >= 5 for count in seen.values()), seen


def test_m_rows_list_their_e3_entries():
    # The third list of an M row is what a cut t > a walks, so it must be
    # exactly the q whose choice is E3, ascending.
    listed = 0
    for seed in range(40):
        inst = generate_lspc(seed, timeslots=8, max_demand=4, shorts=8, longs=6)
        solver = LspcSolver(inst)
        solver.solve()
        for key, (_, choices, e3) in solver.memo_m.items():
            assert e3 == [q for q, ch in enumerate(choices) if ch and ch[0] == "E3"], (seed, key)
            listed += len(e3)
    assert listed >= 100, listed
