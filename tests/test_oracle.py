"""Brute-force oracle behaviour: exactness anchors and budget refusals."""

import itertools
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from intervalcover.core import (
    MAX_CANDIDATES,
    BudgetExceeded,
    Instance,
    Job,
    Resource,
    job_profile,
    verify_partial,
    verify_prize,
)
from intervalcover.fullcover import CoverPlan, full_cover
from intervalcover.generate import generate_lspc, generate_uniform
from intervalcover.lspc import LspcInstance, LspcSolution, ShortResource, verify_lspc
from intervalcover.oracle import _coverage_profiles, oracle_lspc, oracle_partial, oracle_prize
from intervalcover.pipeline import solve_partial, solve_prize


def test_oracle_partial_k0():
    inst = generate_uniform(0, jobs=4, k=0)
    res = oracle_partial(inst)
    assert res.cost == 0 and res.solution.covered == frozenset()


def test_oracle_partial_k_equals_n():
    inst = generate_uniform(5, jobs=4, resources=4, k=4)
    res = oracle_partial(inst)
    plan = CoverPlan(inst.resources, inst.T)
    fc = full_cover(plan.segment_demand(job_profile(inst.jobs, inst.T)), plan)
    assert res.cost == fc.cost


def _refuses_fast(call, inst, message):
    """``call(inst)`` raises BudgetExceeded with ``message`` within 1 s."""
    start = time.monotonic()
    with pytest.raises(BudgetExceeded, match=f"^{message} exceed the enumeration cap "
                                             f"MAX_CANDIDATES=100000$"):
        call(inst)
    assert time.monotonic() - start < 1


def test_oracle_partial_budget_refusal():
    # one-slot jobs under one resource touch no gap, so each one counts:
    # at k = 1 there are as many subsets as jobs
    assert MAX_CANDIDATES == 100_000
    jobs = tuple(Job(i, 1, 1) for i in range(MAX_CANDIDATES + 1))
    res = (Resource(0, 1, 1, 1, 1),)
    assert oracle_partial(Instance(1, jobs[:-1], res, k=1)).cost == 1  # at the cap runs
    _refuses_fast(oracle_partial, Instance(1, jobs, res, k=1),
                  r"100001 1-subsets of 100001 jobs touching no gap")
    _refuses_fast(oracle_partial, Instance(1, jobs[:20], res, k=9),
                  r"167960 9-subsets of 20 jobs touching no gap")
    # 11 jobs at k = 3 are 165 subsets
    inst = generate_uniform(1, jobs=11, resources=4, k=3)
    ora, approx = oracle_partial(inst), solve_partial(inst)
    assert ora.cost <= approx.cost <= approx.bound_factor * ora.cost


def test_oracle_partial_cap_counts_only_jobs_touching_no_gap():
    # the 8 jobs at slot 2 lie in a gap and are never covered, so only the
    # 3 at slot 1 are enumerated: one 3-subset, one copy of the resource
    jobs = tuple(Job(i, 1, 1) for i in range(3)) + tuple(Job(i, 2, 2) for i in range(3, 11))
    inst = Instance(2, jobs, (Resource(0, 1, 1, 3, 1),), k=3)
    res = oracle_partial(inst)
    assert res.cost == 1 and res.solution.covered == {0, 1, 2}
    assert verify_partial(inst, res.solution).feasible


def test_oracle_outputs_verify():
    for seed in range(40):
        inst = generate_uniform(seed, jobs=6, resources=5, timeslots=10)
        res = oracle_partial(inst)
        if res.solution is None:
            continue
        report = verify_partial(inst, res.solution)
        assert report.feasible and report.cost == res.cost


def test_oracle_lspc_hand_example():
    inst = LspcInstance(1, (2,), (ShortResource(0, 1, 1, 1),),
                        (Resource(0, 1, 1, 1, 2),), 2)
    res = oracle_lspc(inst)
    assert res.cost == 3
    assert verify_lspc(inst, res.solution).feasible


def test_oracle_lspc_no_shorts_degenerates_to_cover():
    inst = LspcInstance(2, (1, 1), (), (Resource(0, 1, 2, 1, 4),), 2)
    res = oracle_lspc(inst)
    assert res.cost == 4  # one copy covers the only measure-2 profile


def test_oracle_lspc_k0():
    inst = generate_lspc(0, k=0)
    assert oracle_lspc(inst).cost == 0


def test_oracle_lspc_budget_refusal():
    # one slot of demand d and no shorts: d + 1 coverage profiles
    inst = LspcInstance(1, (MAX_CANDIDATES - 1,), (), (Resource(0, 1, 1, 1, 1),), 1)
    assert oracle_lspc(inst).cost == 1  # at the cap runs
    _refuses_fast(oracle_lspc, replace(inst, d=(MAX_CANDIDATES,)),
                  r"100001 \(coverage profile, short picks\) pairs")
    _refuses_fast(oracle_lspc, LspcInstance(8, (9,) * 8, (), (Resource(0, 1, 8, 9, 1),), 1),
                  r"100000000 \(coverage profile, short picks\) pairs")


@pytest.mark.parametrize("inst, candidates", [
    # 3 slots of demand 1 with 60 shorts each: (2 * 61)**3 = 1 815 848 pairs
    (LspcInstance(3, (1, 1, 1), tuple(ShortResource(i, i % 3 + 1, 1, 3) for i in range(180)),
                  (Resource(0, 1, 3, 1, 100),), 3), (2 * 61)**3),
    # 6 slots of demand 2 with 12 shorts each: only 729 coverage profiles
    (LspcInstance(6, (2,) * 6, tuple(ShortResource(i, i % 6 + 1, 1, 3) for i in range(72)),
                  (Resource(0, 1, 6, 2, 100),), 6), (3 * 13)**6),
], ids=["many-shorts", "six-slots"])
def test_oracle_lspc_cap_counts_short_picks(inst, candidates):
    # the cap bounds the whole loop nest, not only the coverage profiles
    assert candidates > MAX_CANDIDATES
    _refuses_fast(oracle_lspc, inst, rf"{candidates} \(coverage profile, short picks\) pairs")


def test_oracle_prize_trivials():
    jobs = tuple(Job(i, 1, 2, 0) for i in range(3))
    inst = Instance(2, jobs, ())
    assert oracle_prize(inst).total == 0

    jobs = tuple(Job(i, 1, 2, 100) for i in range(3))
    res_list = (Resource(0, 1, 2, 3, 7),)
    inst = Instance(2, jobs, res_list)
    res = oracle_prize(inst)
    plan = CoverPlan(res_list, 2)
    assert res.total == full_cover(plan.segment_demand(job_profile(jobs, 2)), plan).cost == 7


def test_oracle_prize_two_branch():
    inst = Instance(2, (Job(0, 1, 2, 5),), (Resource(0, 1, 2, 1, 3),))
    assert oracle_prize(inst).total == 3


def test_oracle_prize_budget_refusal():
    # jobs one resource can cover: every one of them touches no gap, and
    # 2^16 <= MAX_CANDIDATES < 2^17
    jobs = tuple(Job(i, 1, 1, 1) for i in range(17))
    res = (Resource(0, 1, 1, 1, 2),)
    assert oracle_prize(Instance(1, jobs[:16], res)).total == 16  # at the cap runs
    _refuses_fast(oracle_prize, Instance(1, jobs, res),
                  r"131072 subsets of 17 jobs touching no gap")
    # 13 jobs, of which only 8 touch no gap of the two resources: it answers
    inst = generate_uniform(1, jobs=13, resources=2, timeslots=10, penalties=True)
    plan = CoverPlan(inst.resources, inst.T)
    assert sum(not plan.touches_gap(j.s, j.e) for j in inst.jobs) == 8
    assert oracle_prize(inst).total == solve_prize(inst).total


def test_oracle_prize_leaves_jobs_touching_a_gap_uncovered():
    # no resources: all 13 jobs touch a gap, and only their penalties count
    inst = Instance(1, tuple(Job(i, 1, 1, 1) for i in range(13)), ())
    res = oracle_prize(inst)
    assert res.total == 13 and res.solution.covered == frozenset()


def test_oracle_prize_outputs_verify():
    for seed in range(30):
        inst = generate_uniform(seed, jobs=6, resources=4, timeslots=9, penalties=True)
        res = oracle_prize(inst)
        report = verify_prize(inst, res.solution)
        assert report.feasible and report.total == res.total


def _golden_record(cost, sol):
    """[cost, sorted counts, sorted covered] for an Instance solution,
    [cost, sorted long counts, sorted short picks, coverage] for LSPC."""
    if sol is None:
        return None
    if isinstance(sol, LspcSolution):
        return [cost, sorted([k, v] for k, v in sol.long_counts.items()),
                sorted(sol.short_picks), list(sol.coverage)]
    return [cost, sorted([k, v] for k, v in sol.counts.items()), sorted(sol.covered)]


def test_oracle_outputs_match_recorded_golden():
    # the ratio instances of seeds 0..39, recorded before the oracles lost
    # their guards around infeasible covers; pins each oracle's tie-breaks
    golden = json.loads((Path(__file__).parent / "data" / "oracle_golden.json").read_text())
    for seed in range(40):
        res = oracle_partial(generate_uniform(seed))
        assert _golden_record(res.cost, res.solution) == golden["partial"][seed], seed
        pz = oracle_prize(generate_uniform(seed, penalties=True))
        assert _golden_record(pz.total, pz.solution) == golden["prize"][seed], seed
        ls = oracle_lspc(generate_lspc(seed))
        assert _golden_record(ls.cost, ls.solution) == golden["lspc"][seed], seed


def test_coverage_profiles_are_every_profile_of_measure_k_in_lex_order():
    rnd = random.Random("coverage-profiles")
    for _ in range(300):
        d = tuple(rnd.randint(0, 3) for _ in range(rnd.randint(1, 5)))
        k = rnd.randint(-1, sum(d) + 1)
        expect = [p for p in itertools.product(*(range(x + 1) for x in d)) if sum(p) == k]
        assert list(_coverage_profiles(d, k)) == expect, (d, k)
