"""Long/short partial cover: table semantics, reconstruction, invariants."""

import inspect
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from intervalcover.core import INFEASIBLE, Resource
from intervalcover.generate import generate_lspc
from intervalcover.lspc import (
    LspcInstance,
    LspcSolution,
    LspcSolver,
    ShortResource,
    solve_lspc,
    verify_lspc,
)
from intervalcover.oracle import oracle_lspc


def _inst(d, shorts, longs, k):
    built_s = tuple(ShortResource(i, t, w, c) for i, (t, w, c) in enumerate(shorts))
    built_l = tuple(Resource(i, s, e, w, c) for i, (s, e, w, c) in enumerate(longs))
    return LspcInstance(len(d), tuple(d), built_s, built_l, k)


def test_gamma_zero_coverage_is_free():
    inst = _inst([2], [], [], 0)
    assert LspcSolver(inst).gamma_choice(1, 0, 0)[0] == 0


def test_gamma_above_demand_infeasible():
    inst = _inst([2], [(1, 5, 1)], [], 0)
    assert LspcSolver(inst).gamma_choice(1, 3, 5)[0] == INFEASIBLE


def test_gamma_picks_cheapest_sufficient_short():
    inst = _inst([2], [(1, 1, 1), (1, 2, 5)], [], 0)
    got = LspcSolver(inst).gamma_choice(1, 2, 0)[0]
    scan = min((s.c for s in inst.shorts if s.w >= 2), default=INFEASIBLE)
    assert got == scan == 5


def test_table_a_zero_coverage():
    inst = _inst([1, 2, 0], [], [], 0)
    assert LspcSolver(inst).table_a(1, 3, 0, 0) == 0
    assert LspcSolver(inst).table_a(2, 1, 0, 0) == 0  # empty range


def test_table_a_free_height_covers():
    inst = _inst([1], [], [], 0)
    assert LspcSolver(inst).table_a(1, 1, 1, 1) == 0


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


def test_table_a_two_slots():
    inst = _inst([1, 1], [(1, 1, 1), (2, 1, 1)], [], 2)
    assert _enumerate_shorts_only(inst, 1, 2, 2, 0) == 2
    assert LspcSolver(inst).table_a(1, 2, 2, 0) == 2


def test_table_a_matches_enumeration():
    for seed in range(40):
        inst = generate_lspc(seed, timeslots=4, max_demand=2, shorts=3, longs=0)
        solver = LspcSolver(inst)
        for q in range(sum(inst.d) + 2):
            for h in range(inst.H + 1):
                assert solver.table_a(1, inst.T, q, h) == \
                    _enumerate_shorts_only(inst, 1, inst.T, q, h)


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
    res = solve_lspc(inst)
    assert res.cost == 0
    assert res.solution.coverage == (0, 0)
    assert not res.solution.long_counts and not res.solution.short_picks


def test_solve_single_full_height_long():
    inst = _inst([2, 1, 2], [], [(1, 3, 2, 7)], 5)
    res = solve_lspc(inst)
    assert res.cost == 7
    assert res.solution.long_counts == {0: 1}
    assert sum(res.solution.coverage) == 5


def test_solve_infeasible_when_target_exceeds_demand():
    inst = _inst([1, 1], [], [(1, 2, 5, 1)], 3)
    assert solve_lspc(inst).cost == INFEASIBLE


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
        solver = LspcSolver(inst)
        solver.solve()
        for a, b, h in list(solver.memo_m):
            for q in range(len(solver.memo_m[(a, b, h)][0])):
                cost = solver.table_m(a, b, q, h)
                assert cost <= solver.table_m(a, b, q + 1, h)
                if (a, b, h + 1) in solver.memo_m:
                    assert cost >= solver.table_m(a, b, q, h + 1)
                assert cost <= solver.table_a(a, b, q, h)


def test_verify_lspc_trivial_and_double_short():
    inst = _inst([1], [(1, 1, 1), (1, 1, 1)], [], 0)
    assert verify_lspc(inst, LspcSolution({}, frozenset(), (0,))).feasible
    bad = LspcSolution({}, frozenset({0, 1}), (0,))
    report = verify_lspc(inst, bad)
    assert not report.feasible
    assert report.violated_clause == "one-short-per-slot"


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


def test_solver_reusable_across_targets():
    inst = generate_lspc(7, timeslots=5, max_demand=3)
    solver = LspcSolver(inst)
    for k in range(sum(inst.d) + 1):
        res = solver.solve_for(k)
        fresh = solve_lspc(LspcInstance(inst.T, inst.d, inst.shorts, inst.longs, k))
        assert res.cost == fresh.cost
        if res.solution is not None:
            moved = LspcInstance(inst.T, inst.d, inst.shorts, inst.longs, k)
            assert verify_lspc(moved, res.solution).feasible


def test_replay_of_a_corrupt_table_raises():
    inst = LspcInstance(1, (1,), (ShortResource(0, 1, 1, 1),), (), 1)
    solver = LspcSolver(inst)
    assert solver.solve().cost == 1
    solver.memo_a[(1, 1, 0)][1][1] = 0  # q=1 entry: puts nothing on slot 1
    with pytest.raises(RuntimeError, match="left 1 units uncovered"):
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
    # (cost, sorted long counts, sorted short picks, coverage), recorded from
    # the solver before its tables were stored as rows; pins the tie-breaking
    for seed, expected in enumerate(_GOLDEN["solve"]):
        inst = generate_lspc(seed, **_BENCH_SIZES)
        inst = replace(inst, k=sum(inst.d) // 2)
        assert _golden_record(LspcSolver(inst).solve()) == expected, seed
    for seed, expected in _GOLDEN["sweep"].items():
        inst = generate_lspc(int(seed), **_BENCH_SIZES)
        solver = LspcSolver(inst)
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
