"""Exact full cover against an unpruned enumeration oracle."""

import itertools
import random

from intervalcover.core import INFEASIBLE, Resource
from intervalcover.fullcover import full_cover


def brute_force_cover(demand, resources):
    """Unpruned enumeration over all bounded copy vectors; fully independent
    of the branch-and-bound (coverage checked with plain loops). Returns
    (cost, lex-smallest optimal copy vector) or (INFEASIBLE, None)."""
    maxd = max(demand, default=0)
    bounds = [-(-maxd // r.w) for r in resources]
    best_cost, best_vec = INFEASIBLE, None
    for vec in itertools.product(*(range(b + 1) for b in bounds)):
        ok = True
        for t in range(1, len(demand) + 1):
            cap = sum(n * r.w for n, r in zip(vec, resources) if r.s <= t <= r.e)
            if cap < demand[t - 1]:
                ok = False
                break
        if not ok:
            continue
        cost = sum(n * r.c for n, r in zip(vec, resources))
        if cost < best_cost:
            best_cost, best_vec = cost, vec
    return best_cost, best_vec


def copy_upper_bounds(demand, resources):
    """ceil(max demand / w) per resource id: no optimal cover needs more copies."""
    maxd = max(demand, default=0)
    return {r.id: -(-maxd // r.w) for r in resources}


def _random_case(rnd, max_resources=6, max_demand=4, max_T=10):
    T = rnd.randint(1, max_T)
    demand = tuple(rnd.randint(0, max_demand) for _ in range(T))
    res = []
    for i in range(rnd.randint(0, max_resources)):
        s = rnd.randint(1, T)
        e = rnd.randint(s, T)
        res.append(Resource(i, s, e, rnd.randint(1, 3), rnd.randint(0, 9)))
    return demand, tuple(res)


def test_zero_demand():
    res = full_cover((0, 0, 0), (Resource(0, 1, 3, 1, 5),))
    assert res.cost == 0 and res.counts == {} and res.beta == 1


def test_single_candidate():
    res = full_cover((2, 2), (Resource(0, 1, 2, 2, 5),))
    assert res.cost == 5 and res.counts == {0: 1}


def test_mixed_capacities_prefers_cheap_units():
    resources = (Resource(0, 1, 1, 2, 3), Resource(1, 1, 1, 1, 1))
    expected_cost, expected_vec = brute_force_cover((3,), resources)
    assert expected_cost == 3 and expected_vec == (0, 3)
    res = full_cover((3,), resources)
    assert res.cost == 3 and res.counts == {1: 3}


def test_infeasible_uncovered_slot():
    res = full_cover((0, 1), (Resource(0, 1, 1, 5, 0),))
    assert res.cost == INFEASIBLE and not res.feasible


def test_matches_unpruned_enumeration():
    rnd = random.Random("fullcover-oracle")
    for _ in range(120):
        demand, resources = _random_case(rnd)
        got = full_cover(demand, resources)
        want_cost, want_vec = brute_force_cover(demand, resources)
        assert got.cost == want_cost
        if want_vec is not None:
            got_vec = tuple(got.counts.get(r.id, 0) for r in resources)
            assert got_vec == want_vec  # lex-smallest optimum, deterministically


def test_cutoff_matches_unpruned_enumeration():
    rnd = random.Random("fullcover-cutoff")
    for _ in range(120):
        demand, resources = _random_case(rnd)
        want_cost, want_vec = brute_force_cover(demand, resources)
        cutoffs = [0, INFEASIBLE]
        if want_vec is not None:
            cutoffs += [want_cost, want_cost + 1]
        for cutoff in cutoffs:
            got = full_cover(demand, resources, cutoff)
            if want_cost < cutoff:
                assert got.cost == want_cost
                assert tuple(got.counts.get(r.id, 0) for r in resources) == want_vec
            else:
                assert got.cost == INFEASIBLE and got.counts == {}


def test_zero_cost_and_equal_ratio_ties():
    # r0 and r2 both cost 1 per unit (1/1 and 2/2), so the integer
    # ordering ties them by position; r1 and r3 are free, so the copy
    # range of a free resource ends where the residual is met, not at
    # ceil(max demand / w).
    demand = (3, 5, 2, 4)
    resources = (Resource(0, 1, 4, 1, 1), Resource(1, 2, 2, 2, 0),
                 Resource(2, 1, 4, 2, 2), Resource(3, 3, 4, 1, 0))
    want_cost, want_vec = brute_force_cover(demand, resources)
    assert (want_cost, want_vec) == (3, (1, 1, 1, 1))
    for cutoff in (INFEASIBLE, want_cost + 1):
        res = full_cover(demand, resources, cutoff)
        assert res.cost == want_cost
        assert tuple(res.counts.get(r.id, 0) for r in resources) == want_vec
    assert not full_cover(demand, resources, want_cost).feasible


def test_per_slot_exact_match():
    # one resource per slot, each sized to its slot's demand
    demand = (2, 1, 3)
    resources = tuple(Resource(i, i + 1, i + 1, demand[i], i + 1) for i in range(3))
    res = full_cover(demand, resources)
    assert res.cost == 1 + 2 + 3


def test_monotone_in_demand():
    rnd = random.Random("fullcover-monotone")
    for _ in range(40):
        demand, resources = _random_case(rnd, max_T=6)
        base = full_cover(demand, resources)
        t = rnd.randrange(len(demand))
        bumped = tuple(d + (1 if i == t else 0) for i, d in enumerate(demand))
        higher = full_cover(bumped, resources)
        assert base.cost <= higher.cost


def test_copy_bound_respected():
    rnd = random.Random("fullcover-bounds")
    for _ in range(40):
        demand, resources = _random_case(rnd, max_T=6)
        res = full_cover(demand, resources)
        if not res.feasible:
            continue
        bounds = copy_upper_bounds(demand, resources)
        for rid, n in res.counts.items():
            assert 1 <= n <= bounds[rid]
