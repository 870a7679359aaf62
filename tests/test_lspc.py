"""Long/short partial cover: table semantics, reconstruction, invariants."""

import itertools

import pytest

from intervalcover.core import INFEASIBLE, Resource, is_feasible
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
    assert LspcSolver(inst).gamma_choice(1, 3, 5)[0] is INFEASIBLE


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
    assert solve_lspc(inst).cost is INFEASIBLE


def test_random_sandwich_and_reconstruction():
    for seed in range(120):
        inst = generate_lspc(seed, timeslots=6, max_demand=3)
        solver = LspcSolver(inst, check_invariants=True)
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


def _stored_m_keys(solver):
    return {k: v[0] for k, v in solver.memo_m.items()}


def test_dp_monotonicity_and_domination():
    for seed in range(40):
        inst = generate_lspc(seed, timeslots=5, max_demand=3)
        solver = LspcSolver(inst, check_invariants=True)
        solver.solve()
        table = _stored_m_keys(solver)
        for (a, b, q, h), cost in table.items():
            up_q = table.get((a, b, q + 1, h))
            if up_q is not None:
                assert cost <= up_q
            up_h = table.get((a, b, q, h + 1))
            if up_h is not None:
                assert cost >= up_h
            if a <= b:
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
    solver.memo_a[(1, 1, 1, 0)] = (1, 0)  # claims cost 1 while covering nothing
    with pytest.raises(RuntimeError, match="left 1 units uncovered"):
        solver.solve_for(1)
