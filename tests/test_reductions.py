"""Narrow/wide split, the long/short build, and the prize reduction."""

import itertools
import random
import time

import pytest

from intervalcover.core import (
    INFEASIBLE,
    BudgetExceeded,
    Instance,
    Job,
    PartialSolution,
    Resource,
    SolveResult,
    covers,
    job_profile,
    multiset_cost,
    multiset_profile,
    verify_prize,
)
from intervalcover import reductions
from intervalcover.fullcover import CoverPlan, full_cover
from intervalcover.generate import generate_mountain_range, generate_uniform
from intervalcover.lspc import LspcSolution, LspcSolver
from intervalcover.mountains import (
    Mountain,
    MountainRange,
    candidate_exclusions,
    decompose,
    single_mountain_solve,
)
from intervalcover.oracle import oracle_prize
from intervalcover.pipeline import solve_prize
from intervalcover.reductions import (
    build_lspc,
    lift_lspc,
    lift_split,
    pc_to_smfc,
    smfc_solve_exact,
    split_narrow_wide,
)


def classify_part(interval, spans):
    """Independent labelling: narrow iff contained in one span but not
    equal to it; wide iff it fully spans every span it intersects."""
    s, e = interval
    touched = [sp for sp in spans if s <= sp[1] and sp[0] <= e]
    if not touched:
        return None
    if all(s <= sp[0] and sp[1] <= e for sp in touched):
        return "wide"
    if len(touched) == 1 and touched[0][0] <= s and e <= touched[0][1] \
            and (s, e) != touched[0]:
        return "narrow"
    return None


def _three_mountain_range():
    jobs = [Job(0, 1, 3), Job(1, 5, 7), Job(2, 9, 11)]
    rng = MountainRange((
        Mountain(2, frozenset({0}), (1, 3)),
        Mountain(6, frozenset({1}), (5, 7)),
        Mountain(10, frozenset({2}), (9, 11)),
    ))
    return jobs, rng


def test_split_inside_one_span():
    jobs, rng = _three_mountain_range()
    narrows, wides = split_narrow_wide(rng, (Resource(0, 5, 6, 2, 3),))
    assert narrows == ((), (Resource(0, 5, 6, 2, 3),), ())
    assert wides == ()


def test_split_exactly_covering_all_spans():
    jobs, rng = _three_mountain_range()
    narrows, wides = split_narrow_wide(rng, (Resource(0, 1, 11, 1, 2),))
    assert narrows == ((), (), ())
    assert wides == ((Resource(0, 1, 11, 1, 2), 0, 2),)


def test_split_keeps_ids_and_input_order():
    jobs, rng = _three_mountain_range()
    res = (Resource(7, 2, 6, 2, 3), Resource(3, 1, 2, 1, 5), Resource(9, 6, 12, 3, 1))
    narrows, wides = split_narrow_wide(rng, res)
    assert narrows == ((Resource(7, 2, 3, 2, 3), Resource(3, 1, 2, 1, 5)),
                       (Resource(7, 5, 6, 2, 3), Resource(9, 6, 7, 3, 1)),
                       ())
    assert wides == ((Resource(9, 9, 11, 3, 1), 2, 2),)


def test_split_random_classification():
    rnd = random.Random("reductions-split")
    jobs, rng = _three_mountain_range()
    spans = [m.span for m in rng.mountains]
    for _ in range(120):
        s = rnd.randint(1, 11)
        e = rnd.randint(s, 11)
        r = Resource(0, s, e, rnd.randint(1, 3), rnd.randint(0, 9))
        narrows, wides = split_narrow_wide(rng, (r,))
        assert sum(map(len, narrows)) + len(wides) <= 3
        for idx, parts in enumerate(narrows):
            for part in parts:
                assert classify_part((part.s, part.e), spans) == "narrow"
                assert spans[idx][0] <= part.s and part.e <= spans[idx][1]
        for part, p, q in wides:
            assert classify_part((part.s, part.e), spans) == "wide"
            assert (part.s, part.e) == (spans[p][0], spans[q][1])
        for part in [p for parts in narrows for p in parts] + [w for w, _, _ in wides]:
            assert (part.id, part.w, part.c) == (r.id, r.w, r.c)


def _split_cases(seeds):
    """Mountain-range-profile ranges and the ranges of decomposed uniform
    instances, as (instance, range) pairs."""
    for seed in seeds:
        yield generate_mountain_range(seed, mountains=3, jobs=9, resources=6, timeslots=18)
        inst = generate_uniform(seed, jobs=12, resources=6, timeslots=20, k=0)
        for rng in decompose(inst.jobs).ranges:
            yield inst, rng


def test_split_parts_tile_each_resource_inside_the_spans():
    multi = 0
    for inst, rng in _split_cases(range(60)):
        spans = [m.span for m in rng.mountains]
        in_spans = {t for s, e in spans for t in range(s, e + 1)}
        narrows, wides = split_narrow_wide(rng, inst.resources)
        slots_of = {r.id: [] for r in inst.resources}
        for idx, parts in enumerate(narrows):
            s, e = spans[idx]
            for part in parts:
                assert s <= part.s <= part.e <= e and (part.s, part.e) != (s, e)
                slots_of[part.id].append(set(range(part.s, part.e + 1)))
        for part, p, q in wides:
            r = inst.resources[part.id]
            spanned = [i for i, (s, e) in enumerate(spans) if r.s <= s and e <= r.e]
            assert spanned == list(range(p, q + 1))
            assert (part.s, part.e) == (spans[p][0], spans[q][1])
            slots_of[part.id].append(set(range(part.s, part.e + 1)) & in_spans)
        for r in inst.resources:
            parts = slots_of[r.id]
            assert all(not a & b for a, b in itertools.combinations(parts, 2)), r
            assert set().union(*parts) == set(range(r.s, r.e + 1)) & in_spans, r
        multi += len(spans) > 1
    assert multi >= 60, multi


def test_lift_split_takes_max():
    assert lift_split([(4, 2), (5, 1), (4, 1), (4, 3), (5, 1)]) == {4: 3, 5: 1}


def test_lift_split_empty():
    assert lift_split([]) == {}


def test_build_lspc_single_mountain_no_narrows():
    jobs = [Job(0, 2, 4), Job(1, 3, 5)]
    rng = MountainRange((Mountain(3, frozenset({0, 1}), (2, 5)),))
    narrows, wides = split_narrow_wide(rng, (Resource(0, 1, 6, 2, 4),))
    build = build_lspc(rng, jobs, narrows, wides, 6)
    assert build.instance.T == 1
    assert build.instance.d == (2,)
    assert not build.instance.shorts
    assert build.instance.longs == (Resource(0, 1, 1, 2, 4),)
    assert build.long_origin == {0: 0}


def test_build_lspc_longs_keep_their_resource_id():
    jobs, rng = _three_mountain_range()
    res = (Resource(4, 1, 12, 1, 2), Resource(8, 4, 8, 2, 3), Resource(6, 2, 10, 3, 5))
    narrows, wides = split_narrow_wide(rng, res)
    build = build_lspc(rng, jobs, narrows, wides, 12)
    assert build.instance.longs == (Resource(0, 1, 3, 1, 2), Resource(1, 2, 2, 2, 3),
                                    Resource(2, 2, 2, 3, 5))
    assert build.long_origin == {0: 4, 1: 8, 2: 6}


def test_build_lspc_prices_single_job_short():
    jobs = [Job(0, 2, 3), Job(1, 2, 4)]
    rng = MountainRange((Mountain(3, frozenset({0, 1}), (2, 4)),))
    narrow = Resource(0, 2, 3, 1, 6)  # strictly inside the span
    narrows, wides = split_narrow_wide(rng, (narrow,))
    assert narrows == ((narrow,),) and wides == ()
    build = build_lspc(rng, jobs, narrows, wides, 5)
    kappa_one = [s for s in build.instance.shorts if s.w == 1]
    assert len(kappa_one) == 1
    assert kappa_one[0].c == 6
    assert build.short_solutions[kappa_one[0].id].covered == {0}


def test_build_lspc_associations_verify():
    for seed in range(60):
        inst, rng = generate_mountain_range(seed, mountains=2, jobs=6, resources=5,
                                            timeslots=12)
        narrows, wides = split_narrow_wide(rng, inst.resources)
        build = build_lspc(rng, inst.jobs, narrows, wides, inst.T)
        assert sum(build.instance.d) == len(rng.job_ids())
        for short, priced in zip(build.instance.shorts, build.short_solutions, strict=True):
            assert short.w == len(priced.covered)
            prof = multiset_profile(priced.counts, narrows[short.t - 1], inst.T)
            need = job_profile((inst.jobs[j] for j in priced.covered), inst.T)
            assert covers(prof, need)


def per_kappa_reference(rng, jobs, narrows, wides, T):
    """``build_lspc`` without the shared plan or the seeded cutoffs: every
    (mountain, kappa) gets a fresh plan and an uncut single-mountain solve,
    and every long's block of mountains is read off the spans. Returns the
    shorts as (t, w, c), their priced solutions as (mountain, kappa,
    counts, covered) and the longs."""
    by_id = {j.id: j for j in jobs}
    spans = [m.span for m in rng.mountains]
    longs = []
    for r, _, _ in wides:
        idx = [i for i, (s, e) in enumerate(spans) if r.s <= s and e <= r.e]
        longs.append(Resource(len(longs), idx[0] + 1, idx[-1] + 1, r.w, r.c))
    shorts, assocs = [], []
    for idx, m in enumerate(rng.mountains):
        mjobs = [by_id[i] for i in sorted(m.job_ids)]
        for kappa in range(1, len(m.job_ids) + 1):
            plan = CoverPlan(narrows[idx], T)
            res = single_mountain_solve(candidate_exclusions(mjobs, plan)[kappa], plan)
            if res.solution is not None:
                shorts.append((idx + 1, kappa, res.cost))
                assocs.append((idx, kappa, dict(res.solution.counts), res.solution.covered))
    return shorts, assocs, longs


def _priced_shorts(build):
    """``build``'s shorts with their priced solutions, in the shape of
    ``per_kappa_reference``'s second list."""
    return [(short.t - 1, short.w, dict(priced.counts), priced.covered)
            for short, priced in zip(build.instance.shorts, build.short_solutions, strict=True)]


def test_build_lspc_matches_per_kappa_reference(monkeypatch):
    seeded = []

    def recording_solve(candidates, plan, cutoff=INFEASIBLE):
        seeded.append(cutoff != INFEASIBLE)
        return single_mountain_solve(candidates, plan, cutoff)

    monkeypatch.setattr(reductions, "single_mountain_solve", recording_solve)
    ranges = 0
    for inst, rng in _split_cases(range(60)):
        narrows, wides = split_narrow_wide(rng, inst.resources)
        build = build_lspc(rng, inst.jobs, narrows, wides, inst.T)
        shorts, assocs, longs = per_kappa_reference(rng, inst.jobs, narrows, wides, inst.T)
        assert [(s.t, s.w, s.c) for s in build.instance.shorts] == shorts
        assert _priced_shorts(build) == assocs
        assert build.instance.longs == tuple(longs)
        ranges += 1
    assert ranges >= 200, ranges
    assert sum(seeded) >= 200, sum(seeded)  # calls that ran under a seeded cutoff


def test_build_lspc_skips_mountains_without_narrow_parts(monkeypatch):
    # Such a mountain is never planned or priced, and its range's shorts
    # and their priced solutions are still those of pricing every mountain.
    planned, priced = [], []

    def counting_plan(resources, T):
        planned.append(tuple(resources))
        return CoverPlan(resources, T)

    def counting_candidates(jobs, plan):
        priced.append(frozenset(j.id for j in jobs))
        return candidate_exclusions(jobs, plan)

    monkeypatch.setattr(reductions, "CoverPlan", counting_plan)
    monkeypatch.setattr(reductions, "candidate_exclusions", counting_candidates)
    bare = with_narrows = 0
    for inst, rng in _split_cases(range(60)):
        narrows, wides = split_narrow_wide(rng, inst.resources)
        planned.clear()
        priced.clear()
        build = build_lspc(rng, inst.jobs, narrows, wides, inst.T)
        assert planned == [tuple(n) for n in narrows if n]
        assert set(priced) == {m.job_ids for m, n in zip(rng.mountains, narrows) if n}
        shorts, assocs, _ = per_kappa_reference(rng, inst.jobs, narrows, wides, inst.T)
        assert [(s.t, s.w, s.c) for s in build.instance.shorts] == shorts
        assert _priced_shorts(build) == assocs
        bare += sum(not n for n in narrows)
        with_narrows += sum(bool(n) for n in narrows)
    assert bare >= 50 and with_narrows >= 50, (bare, with_narrows)


def test_build_lspc_raises_when_a_seeded_kappa_fails(monkeypatch):
    jobs = [Job(0, 2, 3), Job(1, 2, 4)]
    rng = MountainRange((Mountain(3, frozenset({0, 1}), (2, 4)),))
    split = split_narrow_wide(rng, (Resource(0, 2, 3, 1, 6), Resource(1, 3, 4, 1, 2)))
    assert len(build_lspc(rng, jobs, *split, 5).instance.shorts) == 2

    def failing_when_cut(candidates, plan, cutoff=INFEASIBLE):
        if cutoff != INFEASIBLE:
            return SolveResult(INFEASIBLE, None)
        return single_mountain_solve(candidates, plan, cutoff)

    monkeypatch.setattr(reductions, "single_mountain_solve", failing_when_cut)
    with pytest.raises(RuntimeError, match="kappa=1 found no cover below 15"):
        build_lspc(rng, jobs, *split, 5)


def test_lift_lspc_trivials():
    jobs = [Job(0, 2, 4), Job(1, 3, 5)]
    rng = MountainRange((Mountain(3, frozenset({0, 1}), (2, 5)),))
    build = build_lspc(rng, jobs, *split_narrow_wide(rng, (Resource(0, 2, 5, 1, 4),)), 6)
    solver = LspcSolver(build.instance)

    empty = solver.solve_for(0)
    assert lift_lspc(empty.solution, build, rng) == ([], frozenset())

    one = solver.solve_for(1)  # no shorts exist: one wide copy, one chosen job
    assert one.cost == 4 and one.solution.long_counts == {0: 1}
    picks, covered = lift_lspc(one.solution, build, rng)
    assert picks == [(0, 1)]
    assert len(covered) == 1


def test_lift_lspc_rejects_coverage_beyond_short_and_wide():
    jobs = [Job(0, 2, 3), Job(1, 2, 4), Job(2, 3, 4)]
    rng = MountainRange((Mountain(3, frozenset({0, 1, 2}), (2, 4)),))
    # a narrow part pricing the kappa=1 short, and a unit-capacity wide part
    split = split_narrow_wide(rng, (Resource(0, 2, 3, 1, 6), Resource(1, 1, 5, 1, 4)))
    build = build_lspc(rng, jobs, *split, 5)
    (short,) = build.instance.shorts
    assert short.w == 1 and build.instance.longs[0].w == 1
    # three jobs claimed: one from the short, two more than one wide copy holds
    sol = LspcSolution({0: 1}, frozenset({short.id}), (3,))
    with pytest.raises(RuntimeError, match="wide capacity"):
        lift_lspc(sol, build, rng)


def test_lift_lspc_roundtrip_random():
    for seed in range(60):
        inst, rng = generate_mountain_range(seed, mountains=2, jobs=6, resources=5,
                                            timeslots=12)
        build = build_lspc(rng, inst.jobs, *split_narrow_wide(rng, inst.resources), inst.T)
        solver = LspcSolver(build.instance)
        size = len(rng.job_ids())
        for kappa in range(size + 1):
            res = solver.solve_for(kappa)
            if res.solution is None:
                continue
            picks, covered = lift_lspc(res.solution, build, rng)
            assert len(covered) >= kappa
            # the picked parts cost what the long/short solution costs
            assert sum(n * inst.resources[rid].c for rid, n in picks) == res.cost
            # lifting to the resources stays feasible and never costs more
            counts = lift_split(picks)
            assert multiset_cost(counts, inst.resources) <= res.cost
            have = multiset_profile(counts, inst.resources, inst.T) if counts \
                else (0,) * inst.T
            assert covers(have, job_profile((inst.jobs[j] for j in covered), inst.T))


def uncovered(inst, res):
    """The jobs a prize answer leaves uncovered, the set its search picked."""
    return frozenset(j.id for j in inst.jobs) - res.solution.covered


def test_pc_to_smfc_construction():
    # the reduction is the instance: its jobs are the once-only class and
    # its resources the unlimited class
    inst = Instance(2, (Job(0, 1, 2, 5),), (Resource(0, 1, 2, 1, 3),))
    assert pc_to_smfc(inst) is inst


def test_pc_to_smfc_empty_jobs():
    inst = Instance(2, (), (Resource(0, 1, 2, 1, 3),))
    res = smfc_solve_exact(pc_to_smfc(inst))
    assert res.total == 0 and res.solution == PartialSolution({}, frozenset())


def test_pc_to_smfc_demand_matches_profile():
    # the demand smfc_solve_exact covers is the jobs' own profile: the
    # picked jobs, one unit each, and the resource copies cover it
    for seed in range(30):
        inst = generate_uniform(seed, jobs=6, resources=4, timeslots=9, penalties=True)
        res = smfc_solve_exact(pc_to_smfc(inst))
        have = multiset_profile(res.solution.counts, inst.resources, inst.T)
        picked = job_profile((inst.jobs[i] for i in uncovered(inst, res)), inst.T)
        assert covers(tuple(map(sum, zip(have, picked))), job_profile(inst.jobs, inst.T))


def brute_force_smfc(inst, max_copies=6):
    """Flat enumeration over (once-only subset) x (bounded copy vectors)."""
    best = INFEASIBLE
    mbounds = [max_copies] * len(inst.resources)
    demand = job_profile(inst.jobs, inst.T)
    for bits in range(1 << len(inst.jobs)):
        chosen = [j for i, j in enumerate(inst.jobs) if bits >> i & 1]
        scost = sum(j.penalty for j in chosen)
        for vec in itertools.product(*(range(b + 1) for b in mbounds)):
            ok = True
            for t in range(1, inst.T + 1):
                cap = sum(1 for j in chosen if j.s <= t <= j.e)
                cap += sum(n * r.w for n, r in zip(vec, inst.resources) if r.s <= t <= r.e)
                if cap < demand[t - 1]:
                    ok = False
                    break
            if ok:
                cost = scost + sum(n * r.c for n, r in zip(vec, inst.resources))
                best = min(best, cost)
    return best


def test_smfc_zero_demand():
    res = smfc_solve_exact(Instance(2, (), ()))
    assert res.total == 0 and res.solution == PartialSolution({}, frozenset())


def test_smfc_two_branch_minimum():
    res = smfc_solve_exact(Instance(2, (Job(0, 1, 2, 5),), (Resource(0, 1, 2, 1, 3),)))
    assert res.total == 3
    assert res.solution == PartialSolution({0: 1}, frozenset({0}))


def test_smfc_matches_flat_enumeration():
    rnd = random.Random("reductions-smfc")
    for _ in range(40):
        T = rnd.randint(1, 5)
        jobs = []
        for i in range(rnd.randint(0, 3)):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            jobs.append(Job(i, s, e, rnd.randint(0, 8)))
        resources = []
        for i in range(rnd.randint(0, 3)):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            resources.append(Resource(i, s, e, rnd.randint(1, 3), rnd.randint(0, 8)))
        inst = Instance(T, tuple(jobs), tuple(resources))
        assert smfc_solve_exact(inst).total == brute_force_smfc(inst)


def plain_smfc(inst):
    """Reference for smfc_solve_exact: every set of picked jobs in (size,
    lexicographic) order, each completed by an uncut full cover; only a
    strictly smaller total replaces the best. Returns the best (total,
    picked job ids, cover counts) and the number of subsets whose total
    tied the best at the time."""
    best = (INFEASIBLE, frozenset(), {})
    ties = 0
    memo = {}
    n = len(inst.jobs)
    plan = CoverPlan(inst.resources, inst.T)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            scost = sum(inst.jobs[i].penalty for i in subset)
            if scost > best[0]:
                continue
            residual = list(job_profile(inst.jobs, inst.T))
            for i in subset:
                j = inst.jobs[i]
                for t in range(j.s - 1, j.e):
                    residual[t] -= 1
            key = tuple(max(0, x) for x in residual)
            if key not in memo:
                memo[key] = full_cover(plan.segment_demand(key), plan)
            fc = memo[key]
            if not fc.feasible:
                continue
            if scost + fc.cost < best[0]:
                best = (scost + fc.cost, frozenset(subset), fc.counts)
            elif scost + fc.cost == best[0]:
                ties += 1
    return best, ties


def _random_smfc(rnd):
    """A prize instance with dense job and resource ids, 0 to 11 jobs and
    resources in all, over at most 7 slots."""
    T = rnd.randint(1, 7)
    spans = []
    for _ in range(rnd.randint(0, 8) + rnd.randint(0, 3)):
        s = rnd.randint(1, T)
        spans.append((s, rnd.randint(s, T)))
    cut = rnd.randint(0, len(spans))
    jobs = tuple(Job(i, s, e, rnd.choice((0, 0, 1, 2, 3, 5)))
                 for i, (s, e) in enumerate(spans[:cut]))
    resources = tuple(Resource(i, s, e, rnd.randint(1, 3), rnd.choice((0, 1, 2, 3, 5)))
                      for i, (s, e) in enumerate(spans[cut:]))
    return Instance(T, jobs, resources)


def test_smfc_tie_break_matches_plain_enumeration(monkeypatch):
    # which subset and which copy vector win, not only the cost
    calls = []

    def recording_full_cover(demand, plan, cutoff=INFEASIBLE):
        res = full_cover(demand, plan, cutoff)
        calls.append((demand if demand is None else tuple(demand), cutoff, res.feasible))
        return res

    monkeypatch.setattr(reductions, "full_cover", recording_full_cover)
    rnd = random.Random("smfc-tie-break")
    seen = dict.fromkeys(("dead", "settled", "ties", "asked_again", "size_stop"), 0)
    for _ in range(4000):
        inst = _random_smfc(rnd)
        calls.clear()
        got = smfc_solve_exact(inst)
        want, ties = plain_smfc(inst)
        assert (got.total, uncovered(inst, got), dict(got.solution.counts)) == \
               (want[0], want[1], dict(want[2])), inst

        live = [any(r.s <= t <= r.e for r in inst.resources) for t in range(1, inst.T + 1)]
        forced = [i for i, j in enumerate(inst.jobs)
                  if not all(live[t - 1] for t in range(j.s, j.e + 1))]
        seen["dead"] += bool(forced)
        # a job inside a resource that costs no more than its penalty is
        # never left uncovered by the winner
        settled = [j.id for i, j in enumerate(inst.jobs) if i not in forced
                   and any(r.s <= j.s and j.e <= r.e and r.c <= j.penalty for r in inst.resources)]
        assert set(settled) <= got.solution.covered, inst
        seen["settled"] += bool(settled)
        seen["ties"] += ties > 0
        # the forced cost plus the cheapest free costs of some size below
        # the number of free jobs reaches the optimum, so the floor at the
        # root of that size and of every larger one does too, and once the
        # best is the optimum smfc_solve_exact refuses those sizes at their
        # root (at that number the floor is every penalty, which no
        # optimum exceeds)
        free_penalties = [j.penalty for i, j in enumerate(inst.jobs) if i not in forced]
        floor = itertools.accumulate(
            sorted(free_penalties),
            initial=sum(inst.jobs[i].penalty for i in forced))
        below_all = itertools.islice(floor, len(free_penalties))
        seen["size_stop"] += any(f >= got.total for f in below_all)
        refused = {}
        for demand, cutoff, feasible in calls:
            if demand in refused and cutoff > refused[demand]:
                seen["asked_again"] += 1
                break
            if not feasible:
                refused[demand] = cutoff
    assert all(count >= 20 for count in seen.values()), seen


def test_solve_prize_matches_plain_enumeration():
    # 12 jobs is the largest size the prize oracle takes, and the walk
    # drops the most prefixes there
    for jobs, seed in [(10, seed) for seed in range(40)] + [(12, seed) for seed in range(10)]:
        inst = generate_uniform(seed, jobs=jobs, resources=4, timeslots=24, penalties=True)
        total, picked, counts = plain_smfc(inst)[0]
        got = solve_prize(inst)
        assert (got.total, got.solution.counts, uncovered(inst, got)) == (total, counts, picked)


def test_completion_floor_is_sound(monkeypatch):
    # at every prefix the walk bounds, the floor is at most the best
    # extra cost over all of that prefix's completions
    nodes = []

    def recording_floor(jobs, free, plan, base):
        floor = completion_floor(jobs, free, plan, base)

        def record(residual, start, left, stop):
            value = floor(residual, start, left, stop)
            nodes.append((tuple(residual), start, left, stop, value, jobs, tuple(free), plan))
            return value

        return record

    completion_floor = reductions._completion_floor
    monkeypatch.setattr(reductions, "_completion_floor", recording_floor)
    rnd = random.Random("smfc-completion-floor")
    seen = dict.fromkeys(("zero_cost", "forced", "pruned", "root", "tight"), 0)
    for _ in range(1000):
        inst = _random_smfc(rnd)
        nodes.clear()
        smfc_solve_exact(inst)
        cover = {}
        for residual, start, left, stop, value, jobs, free, plan in nodes:
            best = INFEASIBLE
            for extra in itertools.combinations(free[start:], left):
                rest = list(residual)
                for i in extra:
                    j = jobs[i]
                    for t in range(j.s - 1, j.e):
                        rest[t] -= 1
                key = tuple(max(0, x) for x in rest)
                if key not in cover:
                    cover[key] = full_cover(plan.segment_demand(key), plan).cost
                best = min(best, sum(jobs[i].penalty for i in extra) + cover[key])
            assert value <= best, (inst, residual, start, left)
            # the residual is the profile of the free jobs not yet chosen:
            # never below 0, and 0 in every gap
            assert min(residual) >= 0 and plan.segment_demand(residual) is not None
            seen["zero_cost"] += left > 0 and any(jobs[i].penalty == 0 for i in free[start:])
            seen["forced"] += len(free) < len(jobs)
            seen["pruned"] += value >= stop
            # a whole set size refused at its root
            seen["root"] += start == 0 and value >= stop
            seen["tight"] += left > 0 and value == best != INFEASIBLE
    assert all(count >= 50 for count in seen.values()), seen


def test_smfc_instance_validation():
    # capacity 0 would divide by zero in full_cover, a span past T index
    # out of range, and a missing or negative penalty break the cost floor
    # smfc_solve_exact prunes with. pc_to_smfc checks only the penalties:
    # Instance refuses each of the others, and pc_to_smfc a missing one.
    bad = [
        (1, (), (Resource(0, 1, 1, 0, 1),)),
        (2, (), (Resource(0, 1, 3, 1, 1),)),
        (2, (), (Resource(0, 0, 2, 1, 1),)),
        (2, (Job(0, 1, 3, 1),), ()),
        (2, (Job(0, 1, 2, -1),), ()),
        (2, (Job(0, 1, 2),), ()),
    ]
    for T, jobs, resources in bad:
        with pytest.raises(ValueError):
            pc_to_smfc(Instance(T, jobs, resources))


def test_smfc_budget_refusal():
    # jobs a resource can cover, each for less than the resource costs:
    # every one of them is free, and 2^16 <= MAX_CANDIDATES < 2^17
    jobs = tuple(Job(i, 1, 1, 1) for i in range(20))
    res = (Resource(0, 1, 1, 1, 2),)
    assert smfc_solve_exact(pc_to_smfc(Instance(1, jobs[:16], res))).total == 16
    for n in (17, 20):
        start = time.monotonic()
        with pytest.raises(BudgetExceeded, match=f"^{1 << n} sets of {n} free jobs exceed the "
                                                 f"enumeration cap MAX_CANDIDATES=100000$"):
            smfc_solve_exact(pc_to_smfc(Instance(1, jobs[:n], res)))
        assert time.monotonic() - start < 1


@pytest.mark.parametrize("penalty", [2, 1], ids=["cheaper", "as-cheap"])
def test_settled_jobs_are_covered_without_being_walked(penalty):
    # 40 jobs inside a resource that costs no more than each penalty (less
    # at 2, as much at 1) are settled: covered, never enumerated, and not
    # counted against MAX_CANDIDATES. Only the 3 jobs at slot 2 are walked;
    # leaving the first of them uncovered and covering the other two with
    # one copy of resource 1 beats every other choice there (3 + 4 < 8,
    # 10, 9).
    settled = tuple(Job(i, 1, 1, penalty) for i in range(40))
    free = tuple(Job(i, 2, 2, 3) for i in range(40, 43))
    inst = Instance(2, settled + free, (Resource(0, 1, 1, 10, 1), Resource(1, 2, 2, 2, 4)))
    start = time.perf_counter()
    res = solve_prize(inst)
    assert time.perf_counter() - start < 1
    assert res.total == 4 + 3 + 4
    assert res.solution == PartialSolution({0: 4, 1: 1}, frozenset(range(40)) | {41, 42})
    report = verify_prize(inst, res.solution)
    assert report.feasible and report.total == res.total


def test_prize_cap_counts_only_free_jobs():
    # jobs touching a gap are always paid for and never enumerated, so
    # only the free jobs count against MAX_CANDIDATES
    gap_only = tuple(Job(i, 1, 1, i + 1) for i in range(20))
    res = solve_prize(Instance(1, gap_only, ()))
    assert res.total == sum(range(1, 21)) and res.solution == PartialSolution({}, frozenset())
    mixed = tuple(Job(i, 1 + i % 2, 1 + i % 2, 1) for i in range(33))  # 17 in the gap, 16 free
    res = solve_prize(Instance(2, mixed, (Resource(0, 2, 2, 16, 5),)))
    assert res.total == 17 + 5 and res.solution.covered == {j.id for j in mixed if j.s == 2}
    free = tuple(Job(i, 1, 1, 1) for i in range(17))
    in_gap = tuple(Job(i, 2, 2, 1) for i in range(17, 20))
    with pytest.raises(BudgetExceeded, match="131072 sets of 17 free jobs .* MAX_CANDIDATES="):
        solve_prize(Instance(2, free + in_gap, (Resource(0, 1, 1, 1, 2),)))


def test_lift_smfc_extremes():
    # every job picked: no cover, every job uncovered
    inst = Instance(2, (Job(0, 1, 1, 2), Job(1, 2, 2, 3)), ())
    res = smfc_solve_exact(pc_to_smfc(inst))
    assert res.total == 5  # no resources: pay every penalty
    assert res.solution == PartialSolution({}, frozenset())
    report = verify_prize(inst, res.solution)
    assert report.feasible and report.total == 5


def test_lift_smfc_nothing_selected_means_full_cover():
    inst = Instance(2, (Job(0, 1, 2, 100), Job(1, 1, 1, 100)),
                    (Resource(0, 1, 2, 2, 3),))
    res = smfc_solve_exact(pc_to_smfc(inst))
    assert res.total == 3 and not uncovered(inst, res)
    assert res.solution == PartialSolution({0: 1}, frozenset({0, 1}))
    report = verify_prize(inst, res.solution)
    assert report.feasible and report.total == 3


def test_prize_reduction_cost_exact_both_ways():
    for seed in range(60):
        inst = generate_uniform(seed, jobs=7, resources=5, timeslots=10, penalties=True)
        res = smfc_solve_exact(pc_to_smfc(inst))
        ora = oracle_prize(inst)
        assert res.total == ora.total
        report = verify_prize(inst, res.solution)
        assert report.feasible and report.total == res.total
