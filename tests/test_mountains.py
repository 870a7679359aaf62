"""Decomposition structure and the single-mountain solver's 2x guarantee."""

import random

import pytest

from intervalcover.core import INFEASIBLE, Job, Resource, job_profile, verify_partial
from intervalcover.fullcover import CoverPlan, full_cover
from intervalcover.generate import generate_single_mountain
from intervalcover.mountains import (
    Mountain,
    MountainRange,
    candidate_exclusions,
    decompose,
    range_count_bound,
    single_mountain_solve,
    verify_mountain_range,
)
from intervalcover.oracle import oracle_partial


def _random_jobs(rnd, n, T):
    jobs = []
    for i in range(n):
        length = rnd.randint(1, T)
        s = rnd.randint(1, T - length + 1)
        jobs.append(Job(i, s, s + length - 1))
    return jobs


def test_decompose_identical_jobs():
    jobs = [Job(i, 3, 5) for i in range(4)]
    d = decompose(jobs)
    assert d.L == 1
    (rng,) = d.ranges
    (m,) = rng.mountains
    assert m.peak == 3  # base length 3, first multiple the jobs span
    assert m.job_ids == frozenset(range(4))


def test_decompose_length_spread_bound():
    jobs = [Job(0, 1, 1), Job(1, 1, 8)]
    d = decompose(jobs)
    assert range_count_bound(jobs) == 12
    assert d.L <= 12


def test_decompose_partitions_and_verifies():
    rnd = random.Random("mountains-decompose")
    for _ in range(200):
        T = rnd.randint(1, 60)
        jobs = _random_jobs(rnd, rnd.randint(1, 25), T)
        d = decompose(jobs)
        seen = set()
        for rng in d.ranges:
            assert verify_mountain_range(rng, jobs)
            ids = rng.job_ids()
            assert not ids & seen
            seen |= ids
        assert seen == {j.id for j in jobs}
        assert d.L <= range_count_bound(jobs)


def test_decompose_length_classes_comparable():
    # jobs sharing a mountain come from one doubling category
    rnd = random.Random("mountains-lengths")
    for _ in range(100):
        T = rnd.randint(1, 40)
        jobs = _random_jobs(rnd, rnd.randint(1, 15), T)
        by_id = {j.id: j for j in jobs}
        for rng in decompose(jobs).ranges:
            for m in rng.mountains:
                lengths = [by_id[i].length for i in m.job_ids]
                assert max(lengths) <= 2 * min(lengths)


def test_verify_mountain_range_accepts_single():
    jobs = [Job(0, 1, 3), Job(1, 2, 4)]
    rng = MountainRange((Mountain(2, frozenset({0, 1}), (1, 4)),))
    assert verify_mountain_range(rng, jobs)


def test_verify_mountain_range_rejects_overlap():
    jobs = [Job(0, 1, 3), Job(1, 3, 5)]
    rng = MountainRange((
        Mountain(2, frozenset({0}), (1, 3)),
        Mountain(4, frozenset({1}), (3, 5)),
    ))
    assert not verify_mountain_range(rng, jobs)


def test_candidate_exclusions_full_and_empty():
    jobs = [Job(0, 1, 3), Job(1, 2, 4), Job(2, 3, 5)]
    assert candidate_exclusions(jobs, 3) == [frozenset({0, 1, 2})]
    assert candidate_exclusions(jobs, 0) == [frozenset()]


def test_candidate_exclusions_three_jobs():
    jobs = [Job(0, 1, 3), Job(1, 2, 4), Job(2, 3, 5)]
    got = candidate_exclusions(jobs, 2)
    assert set(got) == {frozenset({1, 2}), frozenset({0, 1})}


def test_candidate_exclusions_shape_and_count():
    rnd = random.Random("mountains-exclusions")
    for _ in range(60):
        n = rnd.randint(1, 7)
        peak = rnd.randint(1, 10)
        jobs = [Job(i, rnd.randint(max(1, peak - 3), peak), rnd.randint(peak, peak + 3))
                for i in range(n)]
        k = rnd.randint(0, n)
        left = [j.id for j in sorted(jobs, key=lambda j: (j.s, j.id))]
        right = [j.id for j in sorted(jobs, key=lambda j: (-j.e, j.id))]
        everyone = frozenset(range(n))
        cands = candidate_exclusions(jobs, k)
        assert len(set(cands)) == len(cands) <= n - k + 1
        shapes = {everyone - (set(left[:q1]) | set(right[:q2]))
                  for q1 in range(n + 1) for q2 in range(n + 1)}
        assert set(cands) == {kept for kept in shapes if len(kept) == k}


def test_single_mountain_k0():
    res = single_mountain_solve([Job(0, 1, 2)], CoverPlan((Resource(0, 1, 2, 1, 3),), 2), 0)
    assert res.cost == 0 and res.solution.covered == frozenset()


def test_single_mountain_exact_fit():
    res = single_mountain_solve([Job(0, 2, 4)], CoverPlan((Resource(0, 2, 4, 1, 7),), 5), 1)
    assert res.cost == 7
    assert res.solution.counts == {0: 1}
    assert res.solution.covered == {0}


def test_single_mountain_infeasible():
    res = single_mountain_solve([Job(0, 1, 1)], CoverPlan((), 1), 1)
    assert res.cost == INFEASIBLE and res.solution is None


def test_single_mountain_within_twice_optimum():
    for seed in range(80):
        inst = generate_single_mountain(seed, jobs=7, resources=5, timeslots=10)
        res = single_mountain_solve(inst.jobs, CoverPlan(inst.resources, inst.T), inst.k)
        ora = oracle_partial(inst)
        assert (res.solution is None) == (ora.solution is None)
        if ora.solution is None:
            continue
        assert ora.cost <= res.cost <= 2 * ora.cost
        report = verify_partial(inst, res.solution)
        assert report.feasible and report.cost == res.cost


def _reference_single_mountain(jobs, resources, k, T):
    """Full-cover every candidate without a cutoff; the earliest minimum wins."""
    by_id = {j.id: j for j in jobs}
    best = (INFEASIBLE, None)
    plan = CoverPlan(resources, T)
    for kept in candidate_exclusions(jobs, k):
        res = full_cover(job_profile((by_id[i] for i in kept), T), plan)
        if res.cost < best[0]:
            best = (res.cost, (dict(res.counts), kept))
    return best


def test_single_mountain_matches_uncut_reference():
    for seed in range(60):
        inst = generate_single_mountain(seed)
        for k in range(len(inst.jobs) + 1):
            res = single_mountain_solve(inst.jobs, CoverPlan(inst.resources, inst.T), k)
            want_cost, want_sol = _reference_single_mountain(inst.jobs, inst.resources, k, inst.T)
            assert res.cost == want_cost
            got_sol = None if res.solution is None else (dict(res.solution.counts),
                                                         res.solution.covered)
            assert got_sol == want_sol


def test_decompose_rejects_empty():
    with pytest.raises(ValueError):
        decompose([])


def test_single_mountain_cutoff_keeps_the_uncut_winner():
    checked = 0
    for seed in range(60):
        inst = generate_single_mountain(seed)
        plan = CoverPlan(inst.resources, inst.T)
        for k in range(1, len(inst.jobs) + 1):
            uncut = single_mountain_solve(inst.jobs, plan, k)
            if uncut.solution is None:
                continue
            opt = uncut.cost
            at_opt = single_mountain_solve(inst.jobs, plan, k, opt)
            assert at_opt.cost == INFEASIBLE and at_opt.solution is None
            want = (opt, dict(uncut.solution.counts), uncut.solution.covered)
            for cutoff in (opt + 1, INFEASIBLE):
                res = single_mountain_solve(inst.jobs, plan, k, cutoff)
                assert (res.cost, dict(res.solution.counts), res.solution.covered) == want
            checked += 1
    assert checked >= 100, checked
