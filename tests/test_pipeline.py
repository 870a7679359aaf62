"""End-to-end partial and prize solvers with their certified bounds."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from intervalcover import pipeline
from intervalcover.core import (
    EMPTY_SOLUTION,
    INFEASIBLE,
    Instance,
    Job,
    PartialSolution,
    Resource,
    SolveResult,
    is_feasible,
    multiset_cost,
    verify_partial,
    verify_prize,
)
from intervalcover.fullcover import CoverPlan
from intervalcover.generate import generate, generate_mountain_range, generate_uniform
from intervalcover.lspc import LspcSolver
from intervalcover.mountains import decompose
from intervalcover.oracle import oracle_partial, oracle_prize
from intervalcover.pipeline import RANGE_FACTOR, _RangePipeline, solve_partial, solve_prize
from intervalcover.reductions import (
    build_lspc,
    clip_resources,
    lift_lspc,
    lift_split,
    price_mountain,
    split_narrow_wide,
)


def test_range_solve_kappa_zero():
    inst, rng = generate_mountain_range(3, mountains=2)
    res = _RangePipeline(inst, rng).solve(0)
    assert res.cost == 0 and res.solution.covered == frozenset()


def test_range_solve_single_mountain_bound():
    # a one-mountain range is priced directly by the single-mountain solver,
    # so each row is within 2 of that range's optimum
    for seed in range(40):
        inst, rng = generate_mountain_range(seed, mountains=1, jobs=5, resources=4,
                                            timeslots=8)
        kappa = random.Random(f"rs{seed}").randint(0, len(inst.jobs))
        res = _RangePipeline(inst, rng).solve(kappa)
        sub = Instance(inst.T, inst.jobs, inst.resources, kappa)
        ora = oracle_partial(sub)
        assert (res.solution is None) == (ora.solution is None)
        if ora.solution is None:
            continue
        assert ora.cost <= res.cost <= 2 * ora.cost
        report = verify_partial(sub, res.solution)
        assert report.feasible and report.cost == res.cost


def test_range_solve_two_mountains():
    for seed in range(100):
        inst, rng = generate_mountain_range(seed, mountains=2, jobs=6, resources=5,
                                            timeslots=12)
        kappa = random.Random(f"rs2{seed}").randint(0, len(inst.jobs))
        res = _RangePipeline(inst, rng).solve(kappa)
        sub = Instance(inst.T, inst.jobs, inst.resources, kappa)
        ora = oracle_partial(sub)
        assert (res.solution is None) == (ora.solution is None)
        if ora.solution is None:
            continue
        assert ora.cost <= res.cost <= RANGE_FACTOR * ora.cost
        assert len(res.solution.covered) >= kappa
        build = build_lspc(rng, inst.jobs, *split_narrow_wide(rng, inst.resources), inst.T)
        solver = LspcSolver(build.instance)
        assert solver.solve_for(kappa).cost >= res.cost  # lifting never raises the cost


def _lifted_row(inst, rng, build, solver, kappa):
    """The split -> long/short -> lift row of one (range, kappa)."""
    if kappa == 0:
        return SolveResult(0, EMPTY_SOLUTION)
    lres = solver.solve_for(kappa)
    if lres.solution is None:
        return SolveResult(INFEASIBLE, None)
    picks, covered = lift_lspc(lres.solution, build, rng)
    counts = lift_split(picks)
    return SolveResult(multiset_cost(counts, inst.resources), PartialSolution(counts, covered))


def test_one_mountain_range_is_priced_directly_at_no_more():
    rnd = random.Random("direct")
    cheaper = rows = 0
    for seed in range(150):
        inst, rng = generate_mountain_range(seed, mountains=1, jobs=rnd.randint(1, 8),
                                            resources=rnd.randint(1, 6),
                                            timeslots=rnd.randint(4, 14), max_w=3)
        (m,) = rng.mountains
        build = build_lspc(rng, inst.jobs, *split_narrow_wide(rng, inst.resources), inst.T)
        solver = LspcSolver(build.instance)
        pipe = _RangePipeline(inst, rng)
        size = len(m.job_ids)
        for kappa in range(size + 1):
            res = pipe.solve(kappa)
            old = _lifted_row(inst, rng, build, solver, kappa)
            assert res.cost <= old.cost, (seed, kappa)
            assert (res.solution is None) <= (old.solution is None), (seed, kappa)
            rows += 1
            cheaper += res.cost < old.cost
            if res.solution is None:
                continue
            assert len(res.solution.covered) >= kappa
            assert res.solution.covered <= m.job_ids
            report = verify_partial(Instance(inst.T, inst.jobs, inst.resources, kappa),
                                    res.solution)
            assert report.feasible and report.cost == res.cost, (seed, kappa)
        # the range limits answer as the long/short path does
        assert pipe.solve(size + 1) == SolveResult(INFEASIBLE, None)
        assert solver.solve_for(size + 1).solution is None
        with pytest.raises(ValueError):
            pipe.solve(-1)
        with pytest.raises(ValueError):
            solver.solve_for(-1)
    assert rows > 500 and cheaper > 0, (rows, cheaper)


@pytest.mark.parametrize("profile", ["uniform-random", "single-mountain", "mountain-range"])
def test_one_mountain_rows_over_the_instance_plan_equal_the_clipped_plans(profile):
    # a one-mountain range may be priced over the instance's plan; its rows
    # equal those over the resources clipped to the mountain's span
    rnd = random.Random(f"shared-plan:{profile}")
    ranges = beaten = 0
    for seed in range(120):
        inst = generate(profile, seed, jobs=rnd.randint(1, 10), resources=rnd.randint(0, 8),
                        timeslots=rnd.randint(6, 30), max_w=rnd.randint(1, 3),
                        max_c=rnd.randint(0, 10))
        plan = CoverPlan(inst.resources, inst.T)
        for rng in decompose(inst.jobs).ranges:
            if len(rng.mountains) != 1:
                continue
            (m,) = rng.mountains
            s, e = m.span
            mjobs = [inst.jobs[i] for i in sorted(m.job_ids)]
            clipped = CoverPlan(clip_resources(inst.resources, s, e), inst.T)
            assert price_mountain(mjobs, plan) == price_mountain(mjobs, clipped), (seed, m)
            ranges += 1
            touching = [p for p in plan.order
                        if inst.resources[p].s <= e and s <= inst.resources[p].e]
            beaten += len(clipped.order) < len(touching)
    # on many ranges the instance plan keeps a resource that another one
    # beats once both are clipped, so the two plans differ where it counts
    assert ranges > 200 and beaten > 50, (ranges, beaten)


def _plans_built(monkeypatch) -> list[CoverPlan]:
    """Record every plan solve_partial builds for its one-mountain ranges."""
    built = []

    def record(resources, T):
        built.append(CoverPlan(resources, T))
        return built[-1]

    monkeypatch.setattr(pipeline, "CoverPlan", record)
    return built


def test_a_range_shares_the_instance_plan_when_half_the_resources_touch_it(monkeypatch):
    # the jobs lie in two length categories, so in two one-mountain ranges:
    # 1 of the 3 resources touches slot 1, 2 of them touch slots 2..3
    inst = Instance(4, (Job(0, 1, 1), Job(1, 2, 3)),
                    (Resource(0, 1, 2, 1, 1), Resource(1, 2, 3, 1, 1), Resource(2, 4, 4, 1, 1)), 2)
    built = _plans_built(monkeypatch)
    res = solve_partial(inst)
    assert res.num_ranges == 2 and res.cost == 2 and res.solution.counts == {0: 1, 1: 1}
    assert sorted(len(plan.resources) for plan in built) == [1, 3]


@pytest.mark.parametrize("T, jobs, widths, k, cost, plans", [
    # two jobs under 1200 one-slot resources, over plans of the 1 and 4
    # resources under them
    (1200, ((1, 1), (1, 4)), 1, 2, 5, [1, 4]),
    # seven single-job mountains 1..64 slots long under 300 two-slot resources
    (600, tuple((1 + 80 * i, 80 * i + 2 ** i) for i in range(7)), 2, 5, 16,
     [1, 1, 2, 4, 8, 16, 32]),
])
def test_a_sparse_instance_builds_plans_of_the_resources_under_each_mountain(
        monkeypatch, T, jobs, widths, k, cost, plans):
    inst = Instance(T, tuple(Job(i, s, e) for i, (s, e) in enumerate(jobs)),
                    tuple(Resource(i, widths * i + 1, widths * i + widths, 1, 1)
                          for i in range(T // widths)), k)
    built = _plans_built(monkeypatch)
    res = solve_partial(inst)
    assert res.cost == cost and len(res.solution.covered) == k
    assert sorted(len(plan.resources) for plan in built) == plans


def test_a_mountain_under_hundreds_of_nested_resources_shares_the_instance_plan(monkeypatch):
    # 600 nested resources beat none of each other, but once clipped to the
    # one slot of the job the cheapest beats them all; all of them touch
    # the job, so its range is priced over the shared plan of 600 levels,
    # and answers as the clipped plan of one level does
    n = 600
    inst = Instance(n + 1, (Job(0, n + 1, n + 1),),
                    tuple(Resource(i, n + 1 - i, n + 1, 1, i + 1) for i in range(n)), 1)
    built = _plans_built(monkeypatch)
    res = solve_partial(inst)
    assert res.cost == 1 and res.solution.counts == {0: 1}
    assert [len(plan.order) for plan in built] == [n]
    assert len(CoverPlan(clip_resources(inst.resources, n + 1, n + 1), n + 1).order) == 1


def test_solve_partial_k0():
    inst = generate_uniform(1, jobs=4, k=0)
    res = solve_partial(inst)
    assert res.cost == 0 and res.solution.covered == frozenset()
    assert res.bound_factor == 1  # the empty solution is optimal


def test_solve_partial_empty_instance_and_no_resources():
    inst = Instance(3, (), (), 0)
    assert solve_partial(inst).cost == 0
    inst2 = generate_uniform(2, jobs=3, k=3)
    inst3 = Instance(inst2.T, inst2.jobs, (), 3)
    # no resources at all: only k=0 could succeed
    assert solve_partial(inst3).cost == INFEASIBLE


def test_solve_partial_single_range_equals_range_solve():
    for seed in range(20):
        inst, rng = generate_mountain_range(seed, mountains=1, jobs=5, resources=4,
                                            timeslots=8)
        res = solve_partial(inst)
        # the decomposition may carve the same jobs into a different range,
        # so compare against the solver's own decomposition instead
        decomp = decompose(inst.jobs)
        if inst.k > 0 and decomp.L == 1:
            direct = _RangePipeline(inst, decomp.ranges[0]).solve(inst.k)
            assert res.cost == direct.cost


def _best_split(range_costs, k):
    """Cheapest way to split k jobs over the ranges, each range's share
    priced by its own solve: every split is enumerated."""
    best = INFEASIBLE
    for split in itertools.product(*(range(len(costs)) for costs in range_costs)):
        if sum(split) != k:
            continue
        parts = [costs[kp] for costs, kp in zip(range_costs, split)]
        if all(is_feasible(c) for c in parts):
            best = min(best, sum(parts))
    return best


@pytest.mark.parametrize("profile", ["uniform-random", "single-mountain", "mountain-range"])
def test_solve_partial_sandwich_and_dp_soundness(profile):
    worst = 0.0
    for seed in range(60):
        inst = generate(profile, seed, jobs=8, resources=6, timeslots=12)
        res = solve_partial(inst)
        ora = oracle_partial(inst)
        assert (res.solution is None) == (ora.solution is None)
        k = inst.k
        ranges = decompose(inst.jobs).ranges if k > 0 else ()  # k = 0 solves no range
        L = res.num_ranges
        assert len(ranges) == L
        # 2 per one-mountain range, priced directly, RANGE_FACTOR per other
        assert res.bound_factor == (sum(2 if len(rng.mountains) == 1 else RANGE_FACTOR
                                        for rng in ranges) if k else 1)
        if ora.solution is None:
            continue
        assert ora.cost <= res.cost <= res.bound_factor * ora.cost
        report = verify_partial(inst, res.solution)
        assert report.feasible and report.cost == res.cost
        if ora.cost > 0:
            worst = max(worst, res.cost / ora.cost)

        range_costs = []
        for rng in ranges:
            pipe = _RangePipeline(inst, rng)
            range_costs.append([pipe.solve(kappa).cost
                                for kappa in range(min(k, len(rng.job_ids())) + 1)])
        # per-range covered sets are disjoint and the emitted union matches
        sol_cost = multiset_cost(res.solution.counts, inst.resources)
        assert sol_cost == _best_split(range_costs, k) == res.cost
    assert worst <= RANGE_FACTOR  # loose sanity; the hard bound is asserted above


def test_solve_partial_range_disjointness():
    for seed in range(30):
        inst = generate_uniform(seed, jobs=8, resources=6, timeslots=12, k=4)
        res = solve_partial(inst)
        if res.solution is None:
            continue
        decomp = decompose(inst.jobs)
        seen = set()
        for rng in decomp.ranges:
            ids = rng.job_ids()
            assert not ids & seen
            seen |= ids
        assert seen == {j.id for j in inst.jobs}


def test_solve_prize_zero_penalties():
    inst = Instance(3, tuple(), ())
    assert solve_prize(inst).total == 0
    from intervalcover.core import Job
    jobs = tuple(Job(i, 1, 2, 0) for i in range(3))
    inst = Instance(3, jobs, ())
    res = solve_prize(inst)
    assert res.total == 0 and res.solution.covered == frozenset()


def test_solve_prize_single_job():
    from intervalcover.core import Job, Resource
    inst = Instance(2, (Job(0, 1, 2, 5),), (Resource(0, 1, 2, 1, 3),))
    res = solve_prize(inst)
    assert res.total == 3
    assert res.solution.covered == {0}


def test_solve_prize_matches_oracle():
    for seed in range(80):
        inst = generate_uniform(seed, jobs=8, resources=6, timeslots=12, penalties=True)
        res = solve_prize(inst)
        ora = oracle_prize(inst)
        assert res.total == ora.total
        report = verify_prize(inst, res.solution)
        assert report.feasible and report.total == res.total


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 12), st.integers(0, 6), st.integers(1, 40))
@example(seed=0, jobs=12, resources=0, timeslots=20)  # every job touches a gap
@example(seed=43, jobs=12, resources=6, timeslots=40)  # three gaps touching 8 of 12 jobs
def test_solve_prize_always_answers_within_the_penalties(seed, jobs, resources, timeslots):
    # leaving every job uncovered is feasible, so solve_prize answers and
    # never pays more than every penalty
    inst = generate_uniform(seed, jobs=jobs, resources=resources, timeslots=timeslots,
                            penalties=True)
    res = solve_prize(inst)
    report = verify_prize(inst, res.solution)
    assert report.feasible and report.total == res.total
    assert res.total <= sum(j.penalty for j in inst.jobs)


def test_outputs_match_recorded_golden():
    # (cost, sorted counts, sorted covered) per seed. The prize records date
    # from before the full-cover search gained its cutoff and copy ranges;
    # the partial ones were recorded again when one-mountain ranges came to
    # be priced directly, which changed 20 of them and made none dearer
    golden = json.loads((Path(__file__).parent / "data" / "pipeline_golden.json").read_text())

    def record(cost, sol):
        if sol is None:
            return [None, None, None]
        return [cost, sorted([k, v] for k, v in sol.counts.items()), sorted(sol.covered)]

    for s in range(40):
        res = solve_partial(generate_uniform(s, jobs=16, resources=8, timeslots=30, k=8))
        assert record(res.cost, res.solution) == golden["partial"][s]
        pz = solve_prize(generate_uniform(s, jobs=10, resources=4, timeslots=24, penalties=True))
        assert record(pz.total, pz.solution) == golden["prize"][s]
