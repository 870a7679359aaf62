"""Brute-force oracle behaviour: exactness anchors and budget refusals."""

import pytest

from intervalcover.core import (
    BudgetExceeded,
    Instance,
    Job,
    Resource,
    job_profile,
    verify_partial,
    verify_prize,
)
from intervalcover.fullcover import full_cover
from intervalcover.generate import generate_lspc, generate_uniform
from intervalcover.lspc import LspcInstance, ShortResource, verify_lspc
from intervalcover.oracle import Budget, oracle_lspc, oracle_partial, oracle_prize


def test_oracle_partial_k0():
    inst = generate_uniform(0, jobs=4, k=0)
    res = oracle_partial(inst)
    assert res.cost == 0 and res.solution.covered == frozenset()


def test_oracle_partial_k_equals_n():
    inst = generate_uniform(5, jobs=4, resources=4, k=4)
    res = oracle_partial(inst)
    fc = full_cover(job_profile(inst.jobs, inst.T), inst.resources)
    assert res.cost == fc.cost


def test_oracle_partial_budget_refusal():
    inst = generate_uniform(1, jobs=11, resources=2, k=3)
    with pytest.raises(BudgetExceeded):
        oracle_partial(inst, Budget(max_partial_jobs=10))
    oracle_partial(inst, Budget(max_partial_jobs=11))  # raised budget runs


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
    inst = LspcInstance(8, (9,) * 8, (), (Resource(0, 1, 8, 9, 1),), 1)
    with pytest.raises(BudgetExceeded):
        oracle_lspc(inst, Budget(max_lspc_profiles=10**6))


def test_oracle_prize_trivials():
    jobs = tuple(Job(i, 1, 2, 0) for i in range(3))
    inst = Instance(2, jobs, ())
    assert oracle_prize(inst).total == 0

    jobs = tuple(Job(i, 1, 2, 100) for i in range(3))
    res_list = (Resource(0, 1, 2, 3, 7),)
    inst = Instance(2, jobs, res_list)
    res = oracle_prize(inst)
    assert res.total == full_cover(job_profile(jobs, 2), res_list).cost == 7


def test_oracle_prize_two_branch():
    inst = Instance(2, (Job(0, 1, 2, 5),), (Resource(0, 1, 2, 1, 3),))
    assert oracle_prize(inst).total == 3


def test_oracle_prize_budget_refusal():
    inst = generate_uniform(1, jobs=13, resources=2, timeslots=10, penalties=True)
    with pytest.raises(BudgetExceeded):
        oracle_prize(inst, Budget(max_prize_jobs=12))


def test_oracle_prize_outputs_verify():
    for seed in range(30):
        inst = generate_uniform(seed, jobs=6, resources=4, timeslots=9, penalties=True)
        res = oracle_prize(inst)
        report = verify_prize(inst, res.solution)
        assert report.feasible and report.total == res.total


def test_oracles_pick_up_env_budget(monkeypatch):
    inst = generate_uniform(1, jobs=5, resources=2, k=2)
    monkeypatch.setenv("INTERVALCOVER_BUDGET", "partial=4")
    with pytest.raises(BudgetExceeded):
        oracle_partial(inst)
    monkeypatch.delenv("INTERVALCOVER_BUDGET")
    oracle_partial(inst)


def test_budget_env_parsing(monkeypatch):
    monkeypatch.setenv("INTERVALCOVER_BUDGET", "partial=12,prize=14,lspc=200000")
    b = Budget.from_env()
    assert b == Budget(12, 14, 200000)
    monkeypatch.setenv("INTERVALCOVER_BUDGET", "bogus=1")
    with pytest.raises(ValueError):
        Budget.from_env()
    monkeypatch.delenv("INTERVALCOVER_BUDGET")
    assert Budget.from_env() == Budget()
