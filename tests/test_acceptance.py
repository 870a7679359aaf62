"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear. Shared fixtures compute the heavy solver runs once; the
bound criteria and the internal-invariant criteria read the same runs.
All comparisons are exact integer comparisons with zero tolerance.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from intervalcover.core import (
    INFEASIBLE,
    Job,
    PartialSolution,
    covers,
    job_profile,
    multiset_cost,
    multiset_profile,
    verify_partial,
    verify_prize,
)
from intervalcover.fullcover import CoverPlan
from intervalcover.generate import (
    generate_lspc,
    generate_mountain_range,
    generate_single_mountain,
    generate_uniform,
)
from intervalcover.lspc import LspcSolver, verify_lspc
from intervalcover.mountains import (
    candidate_exclusions,
    decompose,
    range_count_bound,
    single_mountain_solve,
    verify_mountain_range,
)
from intervalcover.oracle import oracle_lspc, oracle_partial, oracle_prize
from intervalcover.pipeline import _RangePipeline, solve_partial, solve_prize
from intervalcover.reductions import build_lspc, lift_lspc, lift_split, split_narrow_wide


@contextmanager
def criterion(number, name):
    holder = {"info": ""}
    start = time.monotonic()
    try:
        yield holder
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.monotonic() - start:.1f}s")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} ({name}): PASS "
          f"[{holder['info']}, {elapsed:.1f}s]")


# --- shared heavy runs ----------------------------------------------------

@pytest.fixture(scope="module")
def lspc_runs():
    """Criterion 3 workload; criterion 7 reuses the solvers' memo tables."""
    rnd = random.Random("acceptance-lspc")
    runs = []
    start = time.monotonic()
    for seed in range(200):
        inst = generate_lspc(seed,
                             timeslots=rnd.randint(1, 6),
                             max_demand=rnd.randint(0, 3),
                             shorts=rnd.randint(0, 4),
                             longs=rnd.randint(0, 4))
        solver = LspcSolver(inst)
        result = solver.solve()
        exact = oracle_lspc(inst)
        runs.append((inst, solver, result, exact))
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def partial_runs():
    """Criterion 4 workload; criterion 8 rebuilds its ranges' pipelines."""
    rnd = random.Random("acceptance-partial")
    runs = []
    start = time.monotonic()
    for seed in range(100):
        inst = generate_uniform(seed,
                                jobs=rnd.randint(1, 8),
                                resources=rnd.randint(1, 6),
                                timeslots=rnd.randint(2, 12))
        result = solve_partial(inst)
        exact = oracle_partial(inst)
        runs.append((inst, result, exact))
    return runs, time.monotonic() - start


# --- criteria ---------------------------------------------------------------

def test_criterion_1_feasibility_suite():
    with criterion(1, "feasibility suite") as c:
        start = time.monotonic()
        rnd = random.Random("acceptance-feas")
        checked = 0

        for seed in range(140):
            inst = generate_uniform(seed, jobs=rnd.randint(1, 8),
                                    resources=rnd.randint(1, 6),
                                    timeslots=rnd.randint(2, 12))
            res = solve_partial(inst)
            if res.solution is not None:
                report = verify_partial(inst, res.solution)
                assert report.feasible and report.cost == res.cost, seed
            checked += 1

        for seed in range(80):
            inst = generate_single_mountain(seed, jobs=rnd.randint(1, 7),
                                            resources=rnd.randint(1, 5),
                                            timeslots=rnd.randint(1, 10))
            plan = CoverPlan(inst.resources, inst.T)
            res = single_mountain_solve(candidate_exclusions(inst.jobs, plan)[inst.k], plan)
            if res.solution is not None:
                report = verify_partial(inst, res.solution)
                assert report.feasible and report.cost == res.cost, seed
            checked += 1

        for seed in range(80):
            inst, _ = generate_mountain_range(seed, mountains=rnd.randint(1, 3),
                                              jobs=rnd.randint(1, 8),
                                              resources=rnd.randint(1, 6),
                                              timeslots=12)
            res = solve_partial(inst)
            if res.solution is not None:
                report = verify_partial(inst, res.solution)
                assert report.feasible and report.cost == res.cost, seed
            checked += 1

        for seed in range(100):
            inst = generate_lspc(seed, timeslots=rnd.randint(1, 6),
                                 max_demand=rnd.randint(0, 3))
            res = LspcSolver(inst).solve()
            if res.solution is not None:
                report = verify_lspc(inst, res.solution)
                assert report.feasible and report.cost == res.cost, seed
            checked += 1

        for seed in range(100):
            inst = generate_uniform(seed, jobs=rnd.randint(1, 8),
                                    resources=rnd.randint(1, 6),
                                    timeslots=rnd.randint(2, 12), penalties=True)
            res = solve_prize(inst)
            report = verify_prize(inst, res.solution)
            assert report.feasible and report.total == res.total, seed
            checked += 1

        elapsed = time.monotonic() - start
        assert checked >= 500
        assert elapsed < 120, f"feasibility suite took {elapsed:.1f}s"
        c["info"] = f"{checked} instances, zero verifier failures"


def test_criterion_2_single_mountain_bound():
    with criterion(2, "single-mountain 2x bound") as c:
        start = time.monotonic()
        rnd = random.Random("acceptance-sm")
        feasible = infeasible = 0
        for seed in range(200):
            inst = generate_single_mountain(seed, jobs=rnd.randint(1, 7),
                                            resources=rnd.randint(1, 5),
                                            timeslots=rnd.randint(1, 10),
                                            max_w=3, max_c=10)
            plan = CoverPlan(inst.resources, inst.T)
            res = single_mountain_solve(candidate_exclusions(inst.jobs, plan)[inst.k], plan)
            exact = oracle_partial(inst)
            assert (res.solution is None) == (exact.solution is None), seed
            if exact.solution is None:
                infeasible += 1
                continue
            assert exact.cost <= res.cost <= 2 * exact.cost, \
                (seed, exact.cost, res.cost)
            feasible += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"
        c["info"] = f"{feasible} bounded, {infeasible} infeasible on both sides"


def test_criterion_3_lspc_bound(lspc_runs):
    runs, elapsed = lspc_runs
    with criterion(3, "long/short 16x bound + reconstruction") as c:
        assert len(runs) >= 200
        feasible = 0
        for idx, (inst, solver, result, exact) in enumerate(runs):
            assert (result.solution is None) == (exact.solution is None), idx
            if result.solution is None:
                continue
            assert exact.cost <= result.cost <= 16 * exact.cost, \
                (idx, exact.cost, result.cost)
            report = verify_lspc(inst, result.solution)
            assert report.feasible, (idx, report)
            root = solver.table_m(1, inst.T, inst.k, 0)
            assert report.cost == result.cost == root, idx
            feasible += 1
        assert elapsed < 120, f"solver+oracle runs took {elapsed:.1f}s"
        c["info"] = f"{feasible} feasible of {len(runs)}"


def test_criterion_4_end_to_end_bound(partial_runs):
    runs, elapsed = partial_runs
    with criterion(4, "end-to-end 384*L bound") as c:
        assert len(runs) >= 100
        worst = Fraction(0)
        feasible = 0
        for idx, (inst, result, exact) in enumerate(runs):
            assert (result.solution is None) == (exact.solution is None), idx
            if result.solution is None:
                continue
            bound = 384 * max(result.num_ranges, 1)
            assert exact.cost <= result.cost <= bound * exact.cost, \
                (idx, exact.cost, result.cost, bound)
            report = verify_partial(inst, result.solution)
            assert report.feasible and report.cost == result.cost, idx
            if exact.cost > 0:
                worst = max(worst, Fraction(result.cost, exact.cost))
            feasible += 1
        assert elapsed < 300, f"solver+oracle runs took {elapsed:.1f}s"
        c["info"] = (f"{feasible} feasible, empirical max ratio "
                     f"{worst.numerator}/{worst.denominator} ({float(worst):.3f})")


def test_criterion_5_prize_exactness():
    with criterion(5, "prize-collecting exactness") as c:
        start = time.monotonic()
        rnd = random.Random("acceptance-prize")
        for seed in range(200):
            inst = generate_uniform(seed, jobs=rnd.randint(0, 8),
                                    resources=rnd.randint(0, 6),
                                    timeslots=rnd.randint(2, 12), penalties=True)
            res = solve_prize(inst)
            exact = oracle_prize(inst)
            assert res.total == exact.total, (seed, res.total, exact.total)
            report = verify_prize(inst, res.solution)
            assert report.feasible and report.total == res.total, seed
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"
        c["info"] = "200 instances, exact equality"


def test_criterion_6_decomposition():
    with criterion(6, "decomposition partition + range bound") as c:
        start = time.monotonic()
        rnd = random.Random("acceptance-decomp")
        for trial in range(500):
            T = rnd.randint(1, 10_000)
            n = rnd.randint(1, 200)
            jobs = []
            for i in range(n):
                length = rnd.randint(1, T)
                s = rnd.randint(1, T - length + 1)
                jobs.append(Job(i, s, s + length - 1))
            d = decompose(jobs)
            seen = set()
            for rng in d.ranges:
                assert verify_mountain_range(rng, jobs), trial
                ids = rng.job_ids()
                assert not ids & seen, trial
                seen |= ids
            assert seen == set(range(n)), trial
            assert d.L <= range_count_bound(jobs), (trial, d.L)
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"
        c["info"] = "500 job sets"


def _shorts_only_row(inst, a, b, h):
    """Table A(a,b,h) over q = 0..d_a+...+d_b: the cheapest coverage of
    [a,b] by shorts alone, enumerated slot by slot."""
    row = {0: 0}
    for t in range(a, b + 1):
        grown = {}
        for q, cost in row.items():
            for v in range(inst.d[t - 1] + 1):
                price = 0 if v <= h else min(
                    (s.c for s in inst.shorts if s.t == t and s.w >= v - h), default=INFEASIBLE)
                grown[q + v] = min(grown.get(q + v, INFEASIBLE), cost + price)
        row = grown
    return [row[q] for q in range(len(row))]


def test_criterion_7_dp_invariants(lspc_runs):
    runs, _ = lspc_runs
    with criterion(7, "table invariants on touched keys") as c:
        keys = 0
        for idx, (inst, _, result, exact) in enumerate(runs):
            # acyclicity is enforced during the solves (the row driver raises
            # on a row requested while it is being filled); rows run to the
            # full demand, so every q + 1 below probes an entry or an
            # infeasible q above the demand
            solver = LspcSolver(replace(inst, k=sum(inst.d)))
            solver.solve_for(inst.k)
            for a, b, h in list(solver.memo_m):
                shorts_only = _shorts_only_row(inst, a, b, h)
                for q in range(len(solver.memo_m[(a, b, h)][0])):
                    cost = solver.table_m(a, b, q, h)
                    assert cost <= solver.table_m(a, b, q + 1, h), (idx, (a, b, q, h))
                    if (a, b, h + 1) in solver.memo_m:
                        assert cost >= solver.table_m(a, b, q, h + 1), (idx, (a, b, q, h))
                    assert cost <= shorts_only[q], (idx, (a, b, q, h))
                    keys += 1
        c["info"] = f"{keys} table keys over {len(runs)} instances"


def test_criterion_8_reduction_roundtrips(partial_runs):
    runs, _ = partial_runs
    with criterion(8, "lift feasibility and cost monotonicity") as c:
        lifts = priced_shorts = direct = 0
        for idx, (inst, result, exact) in enumerate(runs):
            if not 0 < inst.k <= len(inst.jobs):
                continue  # solve_partial returns before decomposing
            for rng in decompose(inst.jobs).ranges:
                # the reductions are built here for every range, also for
                # the one-mountain ranges that _RangePipeline prices directly
                narrows, wides = split_narrow_wide(rng, inst.resources)
                build = build_lspc(rng, inst.jobs, narrows, wides, inst.T)
                solver = LspcSolver(build.instance)
                pipe = _RangePipeline(inst, rng)
                for short, priced in zip(build.instance.shorts, build.short_solutions,
                                         strict=True):
                    assert short.w == len(priced.covered), (idx, short.id)
                    have = multiset_profile(priced.counts, narrows[short.t - 1], inst.T)
                    need = job_profile((inst.jobs[j] for j in priced.covered), inst.T)
                    assert covers(have, need), (idx, short.id)
                    priced_shorts += 1
                for kappa in range(1, min(inst.k, len(rng.job_ids())) + 1):
                    lres = solver.solve_for(kappa)
                    if lres.solution is None:
                        continue
                    picks, covered = lift_lspc(lres.solution, build, rng)
                    osol = PartialSolution(lift_split(picks), covered)
                    assert len(osol.covered) >= kappa
                    ocost = multiset_cost(osol.counts, inst.resources)
                    assert ocost <= lres.cost, (idx, kappa)
                    ohave = multiset_profile(osol.counts, inst.resources, inst.T) \
                        if osol.counts else (0,) * inst.T
                    oneed = job_profile((inst.jobs[j] for j in osol.covered), inst.T)
                    assert covers(ohave, oneed), (idx, kappa)
                    if len(rng.mountains) > 1:
                        assert pipe.solve(kappa).solution == osol, (idx, kappa)
                    else:
                        assert pipe.solve(kappa).cost <= ocost, (idx, kappa)
                        direct += 1
                    lifts += 1
        assert lifts > direct > 0 and priced_shorts > 0
        c["info"] = (f"{lifts} lift pairs ({direct} on one mountain, priced directly "
                     f"at no more), {priced_shorts} priced shorts")
