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
from intervalcover.reductions import price_mountain


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


def _kept_sets(jobs, k):
    """The kept sets of ``candidate_exclusions`` over a plan without
    resources, where every slot is a gap."""
    plan = CoverPlan((), max(j.e for j in jobs))
    return [kept for kept, _ in candidate_exclusions(jobs, plan)[k]]


def _solve(jobs, plan, k, cutoff=INFEASIBLE):
    return single_mountain_solve(candidate_exclusions(jobs, plan)[k], plan, cutoff)


def test_candidate_exclusions_full_and_empty():
    jobs = [Job(0, 1, 3), Job(1, 2, 4), Job(2, 3, 5)]
    assert _kept_sets(jobs, 3) == [frozenset({0, 1, 2})]
    assert _kept_sets(jobs, 0) == [frozenset()]


def test_candidate_exclusions_three_jobs():
    jobs = [Job(0, 1, 3), Job(1, 2, 4), Job(2, 3, 5)]
    got = _kept_sets(jobs, 2)
    assert set(got) == {frozenset({1, 2}), frozenset({0, 1})}


def test_jobs_without_a_common_slot_are_refused():
    # the segment peaks hold only for jobs that share a slot
    plan = CoverPlan((Resource(0, 1, 5, 1, 1),), 5)
    for jobs in ([Job(0, 1, 2), Job(1, 3, 4)], [Job(0, 2, 5), Job(1, 1, 3), Job(2, 4, 4)]):
        with pytest.raises(ValueError, match="mountain's jobs must share a slot"):
            candidate_exclusions(jobs, plan)
        with pytest.raises(ValueError, match="mountain's jobs must share a slot"):
            price_mountain(jobs, plan)
    assert price_mountain([Job(0, 2, 5), Job(1, 1, 3)], plan)[2].cost == 2


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
        cands = _kept_sets(jobs, k)
        assert len(set(cands)) == len(cands) <= n - k + 1
        shapes = {everyone - (set(left[:q1]) | set(right[:q2]))
                  for q1 in range(n + 1) for q2 in range(n + 1)}
        assert set(cands) == {kept for kept in shapes if len(kept) == k}


def test_single_mountain_k0():
    res = _solve([Job(0, 1, 2)], CoverPlan((Resource(0, 1, 2, 1, 3),), 2), 0)
    assert res.cost == 0 and res.solution.covered == frozenset()


def test_single_mountain_exact_fit():
    res = _solve([Job(0, 2, 4)], CoverPlan((Resource(0, 2, 4, 1, 7),), 5), 1)
    assert res.cost == 7
    assert res.solution.counts == {0: 1}
    assert res.solution.covered == {0}


def test_single_mountain_infeasible():
    res = _solve([Job(0, 1, 1)], CoverPlan((), 1), 1)
    assert res.cost == INFEASIBLE and res.solution is None


def test_single_mountain_within_twice_optimum():
    for seed in range(80):
        inst = generate_single_mountain(seed, jobs=7, resources=5, timeslots=10)
        res = _solve(inst.jobs, CoverPlan(inst.resources, inst.T), inst.k)
        ora = oracle_partial(inst)
        assert (res.solution is None) == (ora.solution is None)
        if ora.solution is None:
            continue
        assert ora.cost <= res.cost <= 2 * ora.cost
        report = verify_partial(inst, res.solution)
        assert report.feasible and report.cost == res.cost


def _reference_candidates(jobs, k):
    """The kept sets of every (start prefix q1, end prefix n - k - q1)
    pair by growing q1, the earliest copy of each, without
    ``candidate_exclusions``."""
    n = len(jobs)
    left = [j.id for j in sorted(jobs, key=lambda j: (j.s, j.id))]
    right = [j.id for j in sorted(jobs, key=lambda j: (-j.e, j.id))]
    out = []
    for q1 in range(n - k + 1):
        rest = [i for i in right if i not in left[:q1]]
        kept = frozenset(left) - set(left[:q1]) - set(rest[:n - k - q1])
        if kept not in out:
            out.append(kept)
    return out


def _reference_single_mountain(jobs, resources, k, T):
    """Full-cover every candidate's per-slot profile without a cutoff; the
    earliest minimum wins."""
    by_id = {j.id: j for j in jobs}
    best = (INFEASIBLE, None)
    plan = CoverPlan(resources, T)
    for kept in _reference_candidates(jobs, k):
        prof = job_profile((by_id[i] for i in kept), T)
        res = full_cover(plan.segment_demand(prof), plan)
        if res.cost < best[0]:
            best = (res.cost, (dict(res.counts), kept))
    return best


def test_single_mountain_matches_uncut_reference():
    for seed in range(60):
        inst = generate_single_mountain(seed)
        for k in range(len(inst.jobs) + 1):
            res = _solve(inst.jobs, CoverPlan(inst.resources, inst.T), k)
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
            uncut = _solve(inst.jobs, plan, k)
            if uncut.solution is None:
                continue
            opt = uncut.cost
            at_opt = _solve(inst.jobs, plan, k, opt)
            assert at_opt.cost == INFEASIBLE and at_opt.solution is None
            want = (opt, dict(uncut.solution.counts), uncut.solution.covered)
            for cutoff in (opt + 1, INFEASIBLE):
                res = _solve(inst.jobs, plan, k, cutoff)
                assert (res.cost, dict(res.solution.counts), res.solution.covered) == want
            checked += 1
    assert checked >= 100, checked


def _random_mountain_case(rnd):
    """(T, mountain jobs, resources): jobs around a random common slot, and
    resources of random reach, so plans get gaps, free resources and
    several segments."""
    T = rnd.randint(2, 14)
    p = rnd.randint(1, T)
    jobs = [Job(i, rnd.randint(max(1, p - 5), p), rnd.randint(p, min(T, p + 5)))
            for i in range(rnd.randint(1, 7))]
    resources = []
    for i in range(rnd.randint(0, 6)):
        s = rnd.randint(1, T)
        resources.append(Resource(i, s, rnd.randint(s, min(T, s + 5)), rnd.randint(1, 3),
                                  rnd.choice((0, 1, 2, 3, 5, 8))))
    return T, jobs, tuple(resources)


def test_segment_peaks_price_like_per_slot_profiles():
    # Every candidate's segment peaks are the largest demand of its
    # per-slot profile on each segment, its gap flag (peaks None) is set
    # exactly when that profile has demand in a gap, and price_mountain's
    # row for every kappa is the uncut per-slot reference's winner.
    rnd = random.Random("mountains-segment-peaks")
    seen = dict.fromkeys(("gap_refused", "peaks", "free", "segments", "feasible", "infeasible"), 0)
    for _ in range(400):
        T, jobs, resources = _random_mountain_case(rnd)
        plan = CoverPlan(resources, T)
        by_id = {j.id: j for j in jobs}
        candidates = candidate_exclusions(jobs, plan)
        rows = price_mountain(jobs, plan)
        for k in range(len(jobs) + 1):
            got = candidates[k]
            assert [kept for kept, _ in got] == _reference_candidates(jobs, k)
            for kept, peaks in got:
                prof = job_profile((by_id[i] for i in kept), T)
                in_gap = any(prof[t] > 0 for a, b in plan.gaps for t in range(a, b))
                assert (peaks is None) == in_gap, (jobs, resources, kept)
                if peaks is not None:
                    assert peaks == tuple(max(prof[a:b]) for a, b in plan.segments)
                seen["gap_refused"] += in_gap
                seen["peaks"] += peaks is not None and any(peaks)
            if k == 0:
                continue
            want = _reference_single_mountain(jobs, resources, k, T)
            row = rows[k]
            got_row = (INFEASIBLE, None) if row is None else \
                (row.cost, (dict(row.solution.counts), row.solution.covered))
            assert got_row == want, (jobs, resources, k)
            seen["feasible" if row is not None else "infeasible"] += 1
        seen["free"] += any(resources[p].c == 0 for p in plan.order)
        seen["segments"] += len(plan.segments) >= 3
    assert all(count >= 50 for count in seen.values()), seen
