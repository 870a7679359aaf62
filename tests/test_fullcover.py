"""Exact full cover against an unpruned enumeration oracle and against
the one-shot search it replaced."""

import itertools
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from intervalcover.core import INFEASIBLE, BudgetExceeded, Job, Resource, job_profile
from intervalcover.fullcover import INFEASIBLE_COVER, MAX_LEVELS, FullCoverResult
from intervalcover.fullcover import CoverPlan, full_cover


def cover_over(demand, plan, cutoff=INFEASIBLE):
    """One full cover of a per-slot demand, reduced through the plan."""
    return full_cover(plan.segment_demand(demand), plan, cutoff)


def cover(demand, resources, cutoff=INFEASIBLE):
    """One full cover through a plan built for it alone."""
    return cover_over(demand, CoverPlan(resources, len(demand)), cutoff)


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
    res = cover((0, 0, 0), (Resource(0, 1, 3, 1, 5),))
    assert res.cost == 0 and res.counts == {}


def test_single_candidate():
    res = cover((2, 2), (Resource(0, 1, 2, 2, 5),))
    assert res.cost == 5 and res.counts == {0: 1}


def test_mixed_capacities_prefers_cheap_units():
    resources = (Resource(0, 1, 1, 2, 3), Resource(1, 1, 1, 1, 1))
    expected_cost, expected_vec = brute_force_cover((3,), resources)
    assert expected_cost == 3 and expected_vec == (0, 3)
    res = cover((3,), resources)
    assert res.cost == 3 and res.counts == {1: 3}


def test_infeasible_uncovered_slot():
    res = cover((0, 1), (Resource(0, 1, 1, 5, 0),))
    assert res.cost == INFEASIBLE and not res.feasible


def test_matches_unpruned_enumeration():
    rnd = random.Random("fullcover-oracle")
    for _ in range(120):
        demand, resources = _random_case(rnd)
        got = cover(demand, resources)
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
            got = cover(demand, resources, cutoff)
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
        res = cover(demand, resources, cutoff)
        assert res.cost == want_cost
        assert tuple(res.counts.get(r.id, 0) for r in resources) == want_vec
    assert not cover(demand, resources, want_cost).feasible


def test_per_slot_exact_match():
    # one resource per slot, each sized to its slot's demand
    demand = (2, 1, 3)
    resources = tuple(Resource(i, i + 1, i + 1, demand[i], i + 1) for i in range(3))
    res = cover(demand, resources)
    assert res.cost == 1 + 2 + 3


def test_monotone_in_demand():
    rnd = random.Random("fullcover-monotone")
    for _ in range(40):
        demand, resources = _random_case(rnd, max_T=6)
        base = cover(demand, resources)
        t = rnd.randrange(len(demand))
        bumped = tuple(d + (1 if i == t else 0) for i, d in enumerate(demand))
        higher = cover(bumped, resources)
        assert base.cost <= higher.cost


def test_copy_bound_respected():
    rnd = random.Random("fullcover-bounds")
    for _ in range(40):
        demand, resources = _random_case(rnd, max_T=6)
        res = cover(demand, resources)
        if not res.feasible:
            continue
        bounds = copy_upper_bounds(demand, resources)
        for rid, n in res.counts.items():
            assert 1 <= n <= bounds[rid]


def reference_full_cover(demand, resources, cutoff=INFEASIBLE):
    """The one-shot search that ``CoverPlan`` split up: every call builds
    its own order, ``suffix_best`` rows and greedy incumbent, and refuses
    dead slots with a separate mask. Kept as the reference the shared plan
    must match bit for bit."""
    T = len(demand)
    live = [False] * T
    for r in resources:
        live[r.s - 1:r.e] = [True] * (r.e - r.s + 1)
    for t in range(T):
        if demand[t] > 0 and not live[t]:
            return INFEASIBLE_COVER
    if all(d <= 0 for d in demand):
        return FullCoverResult({}, 0) if 0 < cutoff else INFEASIBLE_COVER

    m = len(resources)
    order = sorted(range(m), key=cmp_to_key(
        lambda a, b: resources[a].c * resources[b].w - resources[b].c * resources[a].w or a - b))
    suffix_best = [[None] * T]
    for pos in reversed(order):
        r = resources[pos]
        cur = suffix_best[-1][:]
        for t in range(r.s - 1, r.e):
            prev = cur[t]
            if prev is None or r.c * prev.w <= prev.c * r.w:
                cur[t] = r
        suffix_best.append(cur)
    suffix_best.reverse()

    residual = list(demand)
    greedy_cost = 0
    for t in range(T):
        if residual[t] > 0:
            r = suffix_best[0][t]
            need = -(-residual[t] // r.w)
            greedy_cost += need * r.c
            add = need * r.w
            for u in range(r.s - 1, r.e):
                residual[u] -= add

    residual = list(demand)
    counts = [0] * m
    best_cost = greedy_cost if greedy_cost < cutoff else cutoff - 1
    best_vec = None

    def lower_bound(i):
        lb = 0
        row = suffix_best[i]
        for t in range(T):
            rt = residual[t]
            if rt > 0:
                br = row[t]
                if br is None:
                    return INFEASIBLE
                est = -(-rt * br.c // br.w)
                if est > lb:
                    lb = est
        return lb

    def dfs(i, cost):
        nonlocal best_cost, best_vec
        lb = lower_bound(i)
        if cost + lb > best_cost:
            return
        if i == m:
            vec = tuple(counts)
            if cost < best_cost or best_vec is None or vec < best_vec:
                best_cost = cost
                best_vec = vec
            return
        pos = order[i]
        r = resources[pos]
        w = r.w
        later = suffix_best[i + 1]
        lo = hi = 0
        for t in range(r.s - 1, r.e):
            need = -(-residual[t] // w)
            if need > hi:
                hi = need
            if need > lo and later[t] is None:
                lo = need
        take = lo * w
        for n in range(lo, hi + 1):
            counts[pos] = n
            if take:
                for t in range(r.s - 1, r.e):
                    residual[t] -= take
            dfs(i + 1, cost + n * r.c)
            take = w
        counts[pos] = 0
        back = hi * w
        for t in range(r.s - 1, r.e):
            residual[t] += back

    dfs(0, 0)
    if best_vec is None:
        return INFEASIBLE_COVER
    picked = {resources[pos].id: n for pos, n in enumerate(best_vec) if n > 0}
    return FullCoverResult(picked, best_cost)


def _plan_case(rnd):
    """(T, resources) with endpoints often shared between resources and,
    half the time, a gap of slots no resource reaches between two that
    some resource may reach."""
    T = rnd.randint(1, 10)
    gap = None
    if T >= 3 and rnd.random() < 0.5:
        g = rnd.randint(2, T - 1)
        gap = (g, min(T - 1, g + rnd.randint(0, 2)))
    resources, points = [], []
    for i in range(rnd.randint(0, 6)):
        s = rnd.choice(points) if points and rnd.random() < 0.4 else rnd.randint(1, T)
        later = [p for p in points if p >= s]
        e = rnd.choice(later) if later and rnd.random() < 0.4 else \
            rnd.randint(s, min(T, s + rnd.randint(0, 4)))
        if gap and s <= gap[1] and gap[0] <= e:  # move it out of the gap
            if s < gap[0]:
                e = gap[0] - 1
            else:
                s, e = gap[1] + 1, max(e, gap[1] + 1)
        points += [s, e]
        resources.append(Resource(i, s, e, rnd.randint(1, 3), rnd.choice((0, 1, 2, 3, 5, 8))))
    return T, tuple(resources)


def _shares_a_cut(resources):
    """Two resources cut the timeline at the same place."""
    cuts = [c for r in resources for c in {r.s - 1, r.e}]
    return len(cuts) != len(set(cuts))


def _has_gap(resources, T):
    """An uncovered slot between two covered ones."""
    covered = [t for t in range(1, T + 1) if any(r.s <= t <= r.e for r in resources)]
    return bool(covered) and covered[-1] - covered[0] + 1 > len(covered)


def test_shared_plan_matches_reference():
    rnd = random.Random("fullcover-plan")
    seen = dict.fromkeys(("dead", "zero_demand", "zero_cost", "feasible", "cut", "shared_cut",
                          "gap"), 0)
    for _ in range(60):
        T, resources = _plan_case(rnd)
        plan = CoverPlan(resources, T)
        covered = [any(r.s <= t <= r.e for r in resources) for t in range(1, T + 1)]
        for j in range(25):
            if j == 0:
                demand = (0,) * T
            elif j % 3:  # positive demand only where some resource is active
                demand = tuple(rnd.randint(0, 4) if covered[t] else 0 for t in range(T))
            else:
                demand = tuple(rnd.randint(0, 4) for _ in range(T))
            opt = reference_full_cover(demand, resources).cost
            spread = 2 * opt + 2 if opt != INFEASIBLE else 40
            for cutoff in (INFEASIBLE, 0, 1, opt, opt + 1, rnd.randint(0, spread)):
                got = cover_over(demand, plan, cutoff)
                want = reference_full_cover(demand, resources, cutoff)
                assert (dict(got.counts), got.cost) == (dict(want.counts), want.cost), \
                    (demand, resources, cutoff)
                seen["cut"] += want.cost == INFEASIBLE and opt != INFEASIBLE
            seen["dead"] += any(d > 0 and not c for d, c in zip(demand, covered))
            seen["zero_demand"] += not any(demand)
            seen["zero_cost"] += opt != INFEASIBLE and any(
                r.c == 0 and r.s <= t + 1 <= r.e for r in resources for t in range(T) if demand[t])
            seen["feasible"] += opt != INFEASIBLE and any(demand)
            seen["shared_cut"] += _shares_a_cut(resources)
            seen["gap"] += _has_gap(resources, T)
        assert plan == CoverPlan(resources, T)  # reuse left the plan as built
    assert all(count >= 20 for count in seen.values()), seen


def test_adding_a_beaten_resource_changes_no_cover():
    # A resource r with o.s <= r.s, r.e <= o.e and ceil(r.w / o.w) * o.c <
    # r.c for some o is in no optimum, so adding it anywhere in the input
    # leaves the result the same under every cutoff, and the plan never
    # branches on it. The reference search keeps r, so it checks that
    # dropping r loses nothing.
    rnd = random.Random("fullcover-beaten")
    seen = dict.fromkeys(("feasible", "before_beater", "beater_beaten"), 0)
    for _ in range(60):
        T, resources = _plan_case(rnd)
        if not resources:
            continue
        o = rnd.choice(resources)
        s = rnd.randint(o.s, o.e)
        w = rnd.randint(1, 4)
        r = Resource(len(resources), s, rnd.randint(s, o.e), w,
                     -(-w // o.w) * o.c + rnd.randint(1, 3))
        at = rnd.randint(0, len(resources))
        grown = resources[:at] + (r,) + resources[at:]
        plan, grown_plan = CoverPlan(resources, T), CoverPlan(grown, T)
        assert at not in grown_plan.order
        covered = [any(x.s <= t <= x.e for x in resources) for t in range(1, T + 1)]
        for j in range(10):
            demand = tuple(rnd.randint(0, 4) if covered[t] or j % 3 == 0 else 0
                           for t in range(T))
            opt = cover_over(demand, plan).cost
            spread = 2 * opt + 2 if opt != INFEASIBLE else 40
            for cutoff in (INFEASIBLE, 0, 1, opt, opt + 1, rnd.randint(0, spread)):
                want = cover_over(demand, plan, cutoff)
                for got in (cover_over(demand, grown_plan, cutoff),
                            reference_full_cover(demand, grown, cutoff)):
                    assert (dict(got.counts), got.cost) == (dict(want.counts), want.cost), \
                        (demand, grown, cutoff)
            seen["feasible"] += opt not in (0, INFEASIBLE)
        seen["before_beater"] += at <= resources.index(o)
        seen["beater_beaten"] += resources.index(o) not in plan.order
    assert all(count >= 10 for count in seen.values()), seen


def test_wrong_length_demand_raises():
    # a per-slot demand needs T slots, a segment demand one entry per segment
    plan = CoverPlan((Resource(0, 1, 2, 1, 1),), 3)
    assert plan.segment_demand((1, 1, 0)) == (1,)
    for demand in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="slots"):
            plan.segment_demand(demand)
    for demand in ((), (1, 1)):
        with pytest.raises(ValueError, match="segments"):
            full_cover(demand, plan)


def test_search_deeper_than_the_level_cap_is_refused():
    # one-slot resources beat none of each other, so each is a level of
    # the search; a plan at the cap is still searched, one above refused
    for n in (MAX_LEVELS, MAX_LEVELS + 1):
        plan = CoverPlan(tuple(Resource(i, i + 1, i + 1, 1, 1) for i in range(n)), n)
        assert len(plan.levels) == n
        if n == MAX_LEVELS:
            assert full_cover((1,) * n, plan).cost == n
            continue
        assert full_cover((0,) * n, plan) == FullCoverResult({}, 0)  # no search needed
        with pytest.raises(BudgetExceeded, match=f"MAX_LEVELS={MAX_LEVELS}"):
            full_cover((1,) * n, plan)


def test_plan_rejects_bad_resources():
    for r in (Resource(0, 1, 3, 1, 1), Resource(0, 0, 1, 1, 1),
              Resource(0, 1, 2, 0, 1), Resource(0, 1, 2, 1, -1)):
        with pytest.raises(ValueError):
            CoverPlan((r,), 2)


def _beats(o, r):
    """ceil(r.w / o.w) copies of o replace a copy of r for strictly less."""
    return o.s <= r.s and r.e <= o.e and -(-r.w // o.w) * o.c < r.c


def test_plan_segments_partition_the_timeline():
    # The plan keeps the resources no other one beats, and the partition
    # is over those: a dropped resource lies inside a kept one, so it
    # cuts nothing and reaches no slot the kept ones miss.
    rnd = random.Random("fullcover-segments")
    dropped_cases = 0
    for _ in range(300):
        T, resources = _plan_case(rnd)
        plan = CoverPlan(resources, T)
        kept = [p for p, r in enumerate(resources) if not any(_beats(o, r) for o in resources)]
        assert sorted(plan.order) == kept
        for p, r in enumerate(resources):
            if p not in kept:
                assert any(_beats(resources[o], r) for o in kept)
        dropped_cases += len(kept) < len(resources)
        pieces = sorted(plan.segments + plan.gaps)
        assert len(pieces) <= 2 * len(kept) + 1
        assert [a for a, _ in pieces] + [T] == [0] + [b for _, b in pieces]
        for a, b in pieces:
            assert a < b
            active = {frozenset(p for p in kept if resources[p].s <= t + 1 <= resources[p].e)
                      for t in range(a, b)}
            assert len(active) == 1
            assert (active.pop() != frozenset()) == ((a, b) in plan.segments)
        for p, _, _, x, y, *_ in plan.levels:
            assert [t for a, b in plan.segments[x:y] for t in range(a, b)] == \
                list(range(resources[p].s - 1, resources[p].e))
        assert {t for a, b in plan.segments for t in range(a, b)} == \
            {t for r in resources for t in range(r.s - 1, r.e)}
    assert dropped_cases >= 100, dropped_cases


def _plan_fields_case(rnd):
    """(T, resources) built to hold zero-cost resources, resources with the
    cost per unit of another, resources nested inside another and
    resources over another's exact interval."""
    T = rnd.randint(1, 12)
    resources = []
    for i in range(rnd.randint(0, 7)):
        kind = rnd.choice(("fresh", "zero", "ratio", "nested", "duplicate")) if resources \
            else "fresh"
        o = rnd.choice(resources) if resources else None
        s = rnd.randint(1, T)
        e = rnd.randint(s, min(T, s + rnd.randint(0, 5)))
        w, c = rnd.randint(1, 4), rnd.choice((1, 2, 3, 5, 8))
        if kind == "zero":
            c = 0
        elif kind == "ratio":
            g = rnd.randint(1, 3)
            w, c = o.w * g, o.c * g
        elif kind == "nested":
            s = rnd.randint(o.s, o.e)
            e = rnd.randint(s, o.e)
        elif kind == "duplicate":
            s, e = o.s, o.e
        resources.append(Resource(i, s, e, w, c))
    return T, tuple(resources)


def test_plan_fields_match_a_slot_by_slot_reference():
    # Every field the search reads, rebuilt slot by slot from the kept
    # resources with exact ratios: the pieces are the maximal runs of
    # slots with one active kept set, the cheapest resource of a set is
    # its smallest (cost per unit, position) pair, and the branching order
    # puts the free resources after the priced ones.
    rnd = random.Random("fullcover-plan-fields")
    seen = dict.fromkeys(("zero_cost", "equal_ratio", "nested", "duplicate", "gap"), 0)
    for _ in range(400):
        T, resources = _plan_fields_case(rnd)
        plan = CoverPlan(resources, T)
        kept = [p for p, r in enumerate(resources) if not any(_beats(o, r) for o in resources)]

        def rank(p):
            return Fraction(resources[p].c, resources[p].w), p

        order = sorted(kept, key=lambda p: (resources[p].c == 0, *rank(p)))
        assert plan.order == tuple(order)
        active = [frozenset(p for p in kept if resources[p].s <= t + 1 <= resources[p].e)
                  for t in range(T)]
        pieces = []
        for t in range(T):
            if t and active[t] == active[t - 1]:
                pieces[-1] = (pieces[-1][0], t + 1)
            else:
                pieces.append((t, t + 1))
        assert plan.segments == tuple(p for p in pieces if active[p[0]])
        assert plan.gaps == tuple(p for p in pieces if not active[p[0]])
        assert plan.cheapest == tuple(resources[min(active[a], key=rank)]
                                      for a, _ in plan.segments)
        assert len(plan.levels) == len(order)
        for i, (pos, *fields) in enumerate(plan.levels):
            r = resources[pos]
            assert pos == order[i]
            span = [j for j, (a, b) in enumerate(plan.segments) if r.s - 1 <= a and b <= r.e]
            # slot by slot: the cheapest of the resources after level i,
            # the same on every slot of a segment
            after = set(order[i + 1:])
            per_slot = [min(active[t] & after, key=rank, default=None) for t in range(T)]
            later = []
            for a, b in plan.segments:
                assert len(set(per_slot[a:b])) == 1
                later.append(per_slot[a])
            priced = [(j, resources[q].c, resources[q].w) for j, q in enumerate(later)
                      if q is not None]
            assert fields == [
                r.w, r.c, span[0], span[-1] + 1,
                tuple(j for j in span if later[j] is None),
                tuple(x for x in priced if x[0] in span),
                tuple(x for x in priced if x[0] not in span)]
        live = [resources[p] for p in kept]
        seen["zero_cost"] += any(r.c == 0 for r in live)
        seen["equal_ratio"] += any(x is not y and x.c and x.c * y.w == y.c * x.w
                                   for x in live for y in live)
        seen["nested"] += any(x is not y and y.s <= x.s and x.e <= y.e and (x.s, x.e) != (y.s, y.e)
                              for x in live for y in live)
        seen["duplicate"] += any(x is not y and (x.s, x.e) == (y.s, y.e)
                                 for x in live for y in live)
        seen["gap"] += bool(plan.gaps) and bool(plan.segments)
    assert all(count >= 60 for count in seen.values()), seen


def test_demand_in_a_gap_is_refused_under_any_cutoff():
    resources = (Resource(0, 1, 2, 2, 1), Resource(1, 5, 6, 1, 0))
    plan = CoverPlan(resources, 8)
    assert cover([1, 1, 0, 0, 1, 0, 0, 0], resources).cost == 1
    for base in ([0] * 8, [1, 1, 0, 0, 1, 0, 0, 0]):
        for slot in (2, 3, 6, 7):  # between the two resources and after the last
            demand = base[:]
            demand[slot] = 1
            assert plan.segment_demand(demand) is None
            for cutoff in (INFEASIBLE, 0, 1, 2, 10**6):
                assert full_cover(None, plan, cutoff) == INFEASIBLE_COVER


def test_touches_gap_is_a_refused_job_profile():
    # a job touches a gap exactly when its own demand has no cover
    rnd = random.Random("fullcover-touches-gap")
    seen = dict.fromkeys(("touches", "clear", "inner_gap"), 0)
    for _ in range(300):
        T, resources = _plan_case(rnd)
        plan = CoverPlan(resources, T)
        for s in range(1, T + 1):
            for e in range(s, T + 1):
                want = plan.segment_demand(job_profile([Job(0, s, e)], T)) is None
                assert plan.touches_gap(s, e) == want, (resources, T, s, e)
                seen["touches"] += want
                seen["clear"] += not want
        seen["inner_gap"] += _has_gap(resources, T)
    assert all(count >= 50 for count in seen.values()), seen


def test_demand_at_or_below_zero_needs_no_capacity():
    # full_cover takes a demand at or below 0 as needing no capacity, so a
    # demand must cover like its copy clamped at 0
    rnd = random.Random("fullcover-negative")
    seen = dict.fromkeys(("negative_feasible", "negative_in_gap", "all_negative"), 0)
    for _ in range(400):
        T, resources = _plan_case(rnd)
        plan = CoverPlan(resources, T)
        demand = [rnd.randint(-3, 4) for _ in range(T)]
        if rnd.random() < 0.1:
            demand = [-rnd.randint(1, 3) for _ in range(T)]
        clamped = [max(d, 0) for d in demand]
        opt = cover_over(clamped, plan).cost
        cutoffs = [INFEASIBLE, 0, 1] + ([opt, opt + 1] if opt != INFEASIBLE else [])
        for cutoff in cutoffs:
            got, want = cover_over(demand, plan, cutoff), cover_over(clamped, plan, cutoff)
            assert (got.counts, got.cost) == (want.counts, want.cost)
        gap_slots = [t for a, b in plan.gaps for t in range(a, b)]
        seen["negative_feasible"] += opt not in (0, INFEASIBLE) and min(demand) < 0
        seen["negative_in_gap"] += any(demand[t] < 0 for t in gap_slots)
        seen["all_negative"] += max(demand) < 0
    assert all(count >= 20 for count in seen.values()), seen


def _free_case(rnd):
    """(demand, resources) with 2-4 free resources placed among 1-3 priced
    ones in input order, at least one free resource before a priced one,
    and the free intervals drawn near each other so that their copies can
    trade places."""
    T = rnd.randint(2, 7)
    demand = tuple(rnd.randint(0, 3) for _ in range(T))
    free = rnd.randint(2, 4)
    kinds = [True] * free + [False] * rnd.randint(1, min(3, 6 - free))
    rnd.shuffle(kinds)
    while kinds.index(True) > kinds.index(False) and all(kinds[kinds.index(True):]):
        rnd.shuffle(kinds)
    centre = rnd.randint(1, T)
    resources = []
    for i, is_free in enumerate(kinds):
        if is_free:
            s = max(1, centre - rnd.randint(0, 2))
            e = min(T, centre + rnd.randint(0, 2))
        else:
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
        resources.append(Resource(i, s, e, rnd.randint(1, 3), 0 if is_free else rnd.randint(1, 6)))
    return demand, tuple(resources)


def test_free_resources_keep_the_tie_break():
    # Free resources are decided at their fewest copies after every priced
    # one; the optimum must still be the lexicographically smallest copy
    # vector in input order, with and without a cutoff.
    rnd = random.Random("fullcover-free")
    seen = dict.fromkeys(("feasible", "free_used", "free_overlap", "cut"), 0)
    for _ in range(300):
        demand, resources = _free_case(rnd)
        want_cost, want_vec = brute_force_cover(demand, resources)
        cutoffs = [INFEASIBLE, 0, 1, rnd.randint(0, 12)]
        if want_vec is not None:
            cutoffs += [want_cost, want_cost + 1]
        for cutoff in cutoffs:
            got = cover(demand, resources, cutoff)
            if want_cost < cutoff:
                assert got.cost == want_cost, (demand, resources, cutoff)
                assert tuple(got.counts.get(r.id, 0) for r in resources) == want_vec, \
                    (demand, resources, cutoff)
            else:
                assert got == INFEASIBLE_COVER, (demand, resources, cutoff)
                seen["cut"] += want_vec is not None
        if want_vec is not None and any(demand):
            seen["feasible"] += 1
            used = [r for n, r in zip(want_vec, resources) if n and r.c == 0]
            seen["free_used"] += bool(used)
            # a free resource whose copies another free one could take
            seen["free_overlap"] += any(x is not y and x.s <= y.e and y.s <= x.e
                                    for x in used for y in resources if y.c == 0)
    assert all(count >= 100 for count in seen.values()), seen


def test_appending_a_free_resource_frees_its_span():
    # A free resource f appended to the input serves every slot of its
    # span at no cost, and it is last in input order, so the optimum keeps
    # the old resources' lexicographically smallest optimum on the demand
    # zeroed over f's span and adds the fewest copies of f that cover
    # what those counts leave, under every cutoff.
    rnd = random.Random("fullcover-append-free")
    seen = dict.fromkeys(("feasible", "f_used", "f_unused", "had_free", "cut"), 0)
    for _ in range(300):
        T, resources = _plan_case(rnd)
        s = rnd.randint(1, T)
        f = Resource(len(resources), s, rnd.randint(s, T), rnd.randint(1, 3), 0)
        plan, grown_plan = CoverPlan(resources, T), CoverPlan(resources + (f,), T)
        covered = [any(r.s <= t <= r.e for r in resources + (f,)) for t in range(1, T + 1)]
        demand = tuple(rnd.randint(0, 4) if covered[t] or rnd.random() < 0.2 else 0
                       for t in range(T))
        zeroed = tuple(0 if f.s <= t + 1 <= f.e else d for t, d in enumerate(demand))
        opt = cover_over(zeroed, plan).cost
        spread = 2 * opt + 2 if opt != INFEASIBLE else 40
        for cutoff in (INFEASIBLE, 0, 1, opt, opt + 1, rnd.randint(0, spread)):
            got = cover_over(demand, grown_plan, cutoff)
            want = cover_over(zeroed, plan, cutoff)
            if not want.feasible:
                assert got == INFEASIBLE_COVER, (demand, resources, f, cutoff)
                seen["cut"] += opt != INFEASIBLE
                continue
            old = {rid: n for rid, n in got.counts.items() if rid != f.id}
            assert (old, got.cost) == (dict(want.counts), want.cost), (demand, resources, f, cutoff)
            short = max(demand[t - 1] - sum(old.get(r.id, 0) * r.w for r in resources
                                            if r.s <= t <= r.e)
                        for t in range(f.s, f.e + 1))
            assert got.counts.get(f.id, 0) == max(0, -(-short // f.w)), (demand, resources, f)
        if opt != INFEASIBLE and any(demand):
            seen["feasible"] += 1
            used = f.id in cover_over(demand, grown_plan).counts
            seen["f_used"] += used
            seen["f_unused"] += not used
        seen["had_free"] += any(r.c == 0 for r in resources)
    assert all(count >= 20 for count in seen.values()), seen
