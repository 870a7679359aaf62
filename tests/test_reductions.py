"""Narrow/wide split, the long/short build, and the prize reduction."""

import itertools
import random

import pytest

from intervalcover.core import (
    INFEASIBLE,
    BudgetExceeded,
    Instance,
    Job,
    PartialSolution,
    Resource,
    covers,
    job_profile,
    multiset_cost,
    multiset_profile,
    verify_prize,
)
from intervalcover import reductions
from intervalcover.fullcover import full_cover
from intervalcover.generate import generate_mountain_range, generate_uniform
from intervalcover.lspc import LspcSolution, LspcSolver
from intervalcover.mountains import Mountain, MountainRange
from intervalcover.oracle import oracle_prize
from intervalcover.pipeline import solve_prize
from intervalcover.reductions import (
    SmfcInstance,
    SmfcResult,
    build_lspc,
    lift_lspc,
    lift_smfc,
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
    derived, smap = split_narrow_wide(rng, (Resource(0, 5, 6, 2, 3),))
    assert len(derived) == 1
    part = derived[0]
    assert part.role == "narrow" and part.mountain == 1
    assert (part.resource.s, part.resource.e) == (5, 6)
    assert (part.resource.w, part.resource.c) == (2, 3)


def test_split_exactly_covering_all_spans():
    jobs, rng = _three_mountain_range()
    derived, smap = split_narrow_wide(rng, (Resource(0, 1, 11, 1, 2),))
    assert len(derived) == 1
    assert derived[0].role == "wide"
    assert (derived[0].resource.s, derived[0].resource.e) == (1, 11)


def test_split_random_classification():
    rnd = random.Random("reductions-split")
    jobs, rng = _three_mountain_range()
    spans = [m.span for m in rng.mountains]
    for _ in range(120):
        s = rnd.randint(1, 11)
        e = rnd.randint(s, 11)
        res = (Resource(0, s, e, rnd.randint(1, 3), rnd.randint(0, 9)),)
        derived, smap = split_narrow_wide(rng, res)
        assert len(derived) <= 3
        for part in derived:
            label = classify_part((part.resource.s, part.resource.e), spans)
            assert label == part.role
        # one copy per part keeps coverage inside the spans
        if derived:
            counts = {p.resource.id: 1 for p in derived}
            prof = multiset_profile(counts, [p.resource for p in derived], 11)
            for sp in spans:
                for t in range(sp[0], sp[1] + 1):
                    if res[0].s <= t <= res[0].e:
                        assert prof[t - 1] >= res[0].w


def test_lift_split_takes_max():
    smap_parts = {4: (0, 1, 2)}
    derived_sol = PartialSolution({0: 2, 2: 1}, frozenset({9}))
    from intervalcover.reductions import SplitMap

    lifted = lift_split(derived_sol, SplitMap(smap_parts))
    assert lifted.counts == {4: 2}
    assert lifted.covered == {9}


def test_lift_split_empty():
    from intervalcover.reductions import SplitMap

    lifted = lift_split(PartialSolution({}, frozenset()), SplitMap({}))
    assert lifted.counts == {} and lifted.covered == frozenset()


def test_build_lspc_single_mountain_no_narrows():
    jobs = [Job(0, 2, 4), Job(1, 3, 5)]
    rng = MountainRange((Mountain(3, frozenset({0, 1}), (2, 5)),))
    derived, smap = split_narrow_wide(rng, (Resource(0, 1, 6, 2, 4),))
    build = build_lspc(rng, jobs, derived, 1, 6)
    assert build.instance.T == 1
    assert build.instance.d == (2,)
    assert not build.instance.shorts
    assert len(build.instance.longs) == 1
    assert build.instance.longs[0].w == 2 and build.instance.longs[0].c == 4


def test_build_lspc_prices_single_job_short():
    jobs = [Job(0, 2, 3), Job(1, 2, 4)]
    rng = MountainRange((Mountain(3, frozenset({0, 1}), (2, 4)),))
    narrow = Resource(0, 2, 3, 1, 6)  # strictly inside the span
    derived, smap = split_narrow_wide(rng, (narrow,))
    assert derived[0].role == "narrow"
    build = build_lspc(rng, jobs, derived, 1, 5)
    kappa_one = [s for s in build.instance.shorts if s.w == 1]
    assert len(kappa_one) == 1
    assert kappa_one[0].c == 6
    assoc = build.associations[kappa_one[0].id]
    assert assoc.covered == {0} and assoc.kappa == 1


def test_build_lspc_associations_verify():
    rnd = random.Random("reductions-build")
    for seed in range(60):
        inst, rng = generate_mountain_range(seed, mountains=2, jobs=6, resources=5,
                                            timeslots=12)
        derived, smap = split_narrow_wide(rng, inst.resources)
        build = build_lspc(rng, inst.jobs, derived, 0, inst.T)
        assert sum(build.instance.d) == len(rng.job_ids())
        narrow_res = [p.resource for p in derived if p.role == "narrow"]
        for sid, assoc in build.associations.items():
            short = build.instance.shorts[sid]
            assert short.w == assoc.kappa == len(assoc.covered)
            prof = multiset_profile(assoc.counts, narrow_res, inst.T)
            need = job_profile((inst.jobs[j] for j in assoc.covered), inst.T)
            assert covers(prof, need)


def test_lift_lspc_trivials():
    jobs = [Job(0, 2, 4), Job(1, 3, 5)]
    rng = MountainRange((Mountain(3, frozenset({0, 1}), (2, 5)),))
    derived, smap = split_narrow_wide(rng, (Resource(0, 2, 5, 1, 4),))
    build = build_lspc(rng, jobs, derived, 1, 6)
    solver = LspcSolver(build.instance)

    empty = solver.solve_for(0)
    lifted = lift_lspc(empty.solution, build, rng, derived)
    assert lifted.counts == {} and lifted.covered == frozenset()

    one = solver.solve_for(1)  # no shorts exist: one wide copy, one chosen job
    assert one.cost == 4 and one.solution.long_counts == {0: 1}
    lifted = lift_lspc(one.solution, build, rng, derived)
    assert lifted.counts == {0: 1}
    assert len(lifted.covered) == 1


def test_lift_lspc_rejects_coverage_beyond_short_and_wide():
    jobs = [Job(0, 2, 3), Job(1, 2, 4), Job(2, 3, 4)]
    rng = MountainRange((Mountain(3, frozenset({0, 1, 2}), (2, 4)),))
    # a narrow part pricing the kappa=1 short, and a unit-capacity wide part
    derived, smap = split_narrow_wide(rng, (Resource(0, 2, 3, 1, 6), Resource(1, 1, 5, 1, 4)))
    build = build_lspc(rng, jobs, derived, 3, 5)
    (short,) = build.instance.shorts
    assert short.w == 1 and build.instance.longs[0].w == 1
    # three jobs claimed: one from the short, two more than one wide copy holds
    sol = LspcSolution({0: 1}, frozenset({short.id}), (3,))
    with pytest.raises(RuntimeError, match="wide capacity"):
        lift_lspc(sol, build, rng, derived)


def test_lift_lspc_roundtrip_random():
    for seed in range(60):
        inst, rng = generate_mountain_range(seed, mountains=2, jobs=6, resources=5,
                                            timeslots=12)
        derived, smap = split_narrow_wide(rng, inst.resources)
        build = build_lspc(rng, inst.jobs, derived, 0, inst.T)
        solver = LspcSolver(build.instance)
        size = len(rng.job_ids())
        for kappa in range(size + 1):
            res = solver.solve_for(kappa)
            if res.solution is None:
                continue
            lifted = lift_lspc(res.solution, build, rng, derived)
            assert len(lifted.covered) >= kappa
            dres = [p.resource for p in derived]
            assert multiset_cost(lifted.counts, dres) == res.cost
            have = multiset_profile(lifted.counts, dres, inst.T) if lifted.counts \
                else (0,) * inst.T
            need = job_profile((inst.jobs[j] for j in lifted.covered), inst.T)
            assert covers(have, need)
            # lifting to the original resources stays feasible and never costs more
            original = lift_split(lifted, smap)
            ocost = multiset_cost(original.counts, inst.resources)
            assert ocost <= res.cost
            ohave = multiset_profile(original.counts, inst.resources, inst.T) \
                if original.counts else (0,) * inst.T
            assert covers(ohave, need)


def test_pc_to_smfc_construction():
    inst = Instance(2, (Job(0, 1, 2, 5),), (Resource(0, 1, 2, 1, 3),))
    smfc = pc_to_smfc(inst)
    assert smfc.demand == (1, 1)
    assert len(smfc.s_types) == 1
    assert smfc.s_types[0].w == 1 and smfc.s_types[0].c == 5
    assert smfc.m_types == inst.resources


def test_pc_to_smfc_empty_jobs():
    inst = Instance(2, (), (Resource(0, 1, 2, 1, 3),))
    smfc = pc_to_smfc(inst)
    assert smfc.demand == (0, 0)
    assert not smfc.s_types


def test_pc_to_smfc_demand_matches_profile():
    for seed in range(30):
        inst = generate_uniform(seed, jobs=6, resources=4, timeslots=9, penalties=True)
        assert pc_to_smfc(inst).demand == job_profile(inst.jobs, inst.T)


def brute_force_smfc(smfc, max_copies=6):
    """Flat enumeration over (once-only subset) x (bounded copy vectors)."""
    best = INFEASIBLE
    mbounds = [max_copies] * len(smfc.m_types)
    for bits in range(1 << len(smfc.s_types)):
        chosen = [r for i, r in enumerate(smfc.s_types) if bits >> i & 1]
        scost = sum(r.c for r in chosen)
        for vec in itertools.product(*(range(b + 1) for b in mbounds)):
            ok = True
            for t in range(1, smfc.T + 1):
                cap = sum(r.w for r in chosen if r.s <= t <= r.e)
                cap += sum(n * r.w for n, r in zip(vec, smfc.m_types) if r.s <= t <= r.e)
                if cap < smfc.demand[t - 1]:
                    ok = False
                    break
            if ok:
                cost = scost + sum(n * r.c for n, r in zip(vec, smfc.m_types))
                best = min(best, cost)
    return best


def test_smfc_zero_demand():
    smfc = SmfcInstance(2, (0, 0), (), ())
    res = smfc_solve_exact(smfc)
    assert res.cost == 0 and not res.s_selected and not res.m_counts


def test_smfc_two_branch_minimum():
    smfc = SmfcInstance(2, (1, 1),
                        (Resource(0, 1, 2, 1, 5),),
                        (Resource(0, 1, 2, 1, 3),))
    res = smfc_solve_exact(smfc)
    assert res.cost == 3
    assert not res.s_selected and res.m_counts == {0: 1}


def test_smfc_matches_flat_enumeration():
    rnd = random.Random("reductions-smfc")
    for _ in range(40):
        T = rnd.randint(1, 5)
        demand = tuple(rnd.randint(0, 3) for _ in range(T))
        s_types = []
        for i in range(rnd.randint(0, 3)):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            s_types.append(Resource(i, s, e, 1, rnd.randint(0, 8)))
        m_types = []
        for i in range(rnd.randint(0, 3)):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            m_types.append(Resource(i, s, e, rnd.randint(1, 3), rnd.randint(0, 8)))
        smfc = SmfcInstance(T, demand, tuple(s_types), tuple(m_types))
        assert smfc_solve_exact(smfc).cost == brute_force_smfc(smfc)


def plain_smfc(smfc):
    """Reference for smfc_solve_exact: every once-only subset in (size,
    lexicographic) order, each completed by an uncut full cover; only a
    strictly smaller total replaces the best. Also counts the subsets
    whose total tied the best at the time."""
    best = SmfcResult(INFEASIBLE, frozenset(), {})
    ties = 0
    memo = {}
    n = len(smfc.s_types)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            scost = sum(smfc.s_types[i].c for i in subset)
            if scost > best.cost:
                continue
            residual = list(smfc.demand)
            for i in subset:
                r = smfc.s_types[i]
                for t in range(r.s - 1, r.e):
                    residual[t] -= r.w
            key = tuple(max(0, x) for x in residual)
            if key not in memo:
                memo[key] = full_cover(key, smfc.m_types)
            fc = memo[key]
            if not fc.feasible:
                continue
            if scost + fc.cost < best.cost:
                best = SmfcResult(scost + fc.cost, frozenset(subset), fc.counts)
            elif scost + fc.cost == best.cost:
                ties += 1
    return best, ties


def _random_smfc(rnd):
    T = rnd.randint(1, 7)
    demand = tuple(rnd.randint(0, 4) for _ in range(T))
    spans = []
    for _ in range(rnd.randint(0, 8) + rnd.randint(0, 3)):
        s = rnd.randint(1, T)
        spans.append((s, rnd.randint(s, T)))
    cut = rnd.randint(0, len(spans))
    s_types = tuple(Resource(i, s, e, rnd.choice((1, 1, 2, 3)), rnd.choice((0, 0, 1, 2, 3, 5)))
                    for i, (s, e) in enumerate(spans[:cut]))
    m_types = tuple(Resource(i, s, e, rnd.randint(1, 3), rnd.choice((0, 1, 2, 3, 5)))
                    for i, (s, e) in enumerate(spans[cut:]))
    return SmfcInstance(T, demand, s_types, m_types)


def test_smfc_tie_break_matches_plain_enumeration(monkeypatch):
    # which subset and which copy vector win, not only the cost
    calls = []

    def recording_full_cover(demand, resources, cutoff=INFEASIBLE):
        res = full_cover(demand, resources, cutoff)
        calls.append((demand, cutoff, res.feasible))
        return res

    monkeypatch.setattr(reductions, "full_cover", recording_full_cover)
    rnd = random.Random("smfc-tie-break")
    seen = dict.fromkeys(("wide", "dead", "dead_infeasible", "ties", "asked_again"), 0)
    for _ in range(3000):
        smfc = _random_smfc(rnd)
        calls.clear()
        got = smfc_solve_exact(smfc)
        want, ties = plain_smfc(smfc)
        assert (got.cost, got.s_selected, dict(got.m_counts)) == \
               (want.cost, want.s_selected, dict(want.m_counts)), smfc

        live = [any(r.s <= t <= r.e for r in smfc.m_types) for t in range(1, smfc.T + 1)]
        dead = [t for t in range(smfc.T) if smfc.demand[t] > 0 and not live[t]]
        cap = [sum(r.w for r in smfc.s_types if r.s <= t + 1 <= r.e) for t in range(smfc.T)]
        seen["wide"] += got.cost != INFEASIBLE and any(r.w > 1 for r in smfc.s_types)
        seen["dead"] += got.cost != INFEASIBLE and bool(dead)
        seen["dead_infeasible"] += any(cap[t] < smfc.demand[t] for t in dead)
        seen["ties"] += ties > 0
        refused = {}
        for demand, cutoff, feasible in calls:
            if demand in refused and cutoff > refused[demand]:
                seen["asked_again"] += 1
                break
            if not feasible:
                refused[demand] = cutoff
    assert all(count >= 20 for count in seen.values()), seen


def test_solve_prize_matches_plain_enumeration():
    for seed in range(40):
        inst = generate_uniform(seed, jobs=10, resources=4, timeslots=24, penalties=True)
        smfc = pc_to_smfc(inst)
        want = plain_smfc(smfc)[0]
        got = solve_prize(inst)
        lifted = lift_smfc(want, smfc)
        assert (got.total, got.solution.counts, got.solution.covered) == \
               (want.cost, lifted.counts, lifted.covered)


def test_smfc_budget_refusal():
    s_types = tuple(Resource(i, 1, 1, 1, 1) for i in range(20))
    smfc = SmfcInstance(1, (1,), s_types, ())
    with pytest.raises(BudgetExceeded):
        smfc_solve_exact(smfc)


def test_lift_smfc_extremes():
    inst = Instance(2, (Job(0, 1, 1, 2), Job(1, 2, 2, 3)), ())
    smfc = pc_to_smfc(inst)
    res = smfc_solve_exact(smfc)
    assert res.cost == 5  # no resources: pay every penalty
    sol = lift_smfc(res, smfc)
    assert sol.covered == frozenset()
    report = verify_prize(inst, sol)
    assert report.feasible and report.total == 5


def test_lift_smfc_nothing_selected_means_full_cover():
    inst = Instance(2, (Job(0, 1, 2, 100), Job(1, 1, 1, 100)),
                    (Resource(0, 1, 2, 2, 3),))
    smfc = pc_to_smfc(inst)
    res = smfc_solve_exact(smfc)
    assert res.cost == 3 and not res.s_selected
    sol = lift_smfc(res, smfc)
    assert sol.covered == {0, 1}
    report = verify_prize(inst, sol)
    assert report.feasible and report.total == 3


def test_prize_reduction_cost_exact_both_ways():
    for seed in range(60):
        inst = generate_uniform(seed, jobs=7, resources=5, timeslots=10, penalties=True)
        smfc = pc_to_smfc(inst)
        res = smfc_solve_exact(smfc)
        ora = oracle_prize(inst)
        assert res.cost == ora.total
        sol = lift_smfc(res, smfc)
        report = verify_prize(inst, sol)
        assert report.feasible and report.total == res.cost
