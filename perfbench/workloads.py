"""The benchmark's workloads: how instances are generated, solved and checked.

Every workload draws a set of instances from ``intervalcover.generate``:
instance ``i`` of base seed ``s`` uses generator seed ``s * SEED_STRIDE + i``,
so one base seed gives one fixed set and different base seeds give
disjoint sets. Slow instances are part of the set and are never skipped
or re-seeded. Instance times and costs are heavy-tailed, so each
workload takes 500 to 1100 instances per run; with fewer, the median
solve time and the mean cost swing from one base seed to the next.

The package is imported inside each function rather than at the top of
this module, so that every call sees the modules as they are now: after
the set-up measurement re-imported them, and while the tracer has
wrapped their attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

SEED_STRIDE = 1_000_000

# Generator keyword arguments per workload, sized so that one run solves
# its whole set in 20 to 30 s on one 2.1 GHz x86-64 core.
PARTIAL = dict(jobs=16, resources=8, timeslots=30, k=8)
PRIZE = dict(jobs=10, resources=4, timeslots=24, penalties=True)
LSPC = dict(timeslots=12, max_demand=6, shorts=30, longs=10, max_c=50)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], object]  # generator seed -> instance
    solve: Callable[[object], object]  # instance -> solver result
    check: Callable[[object, object], tuple]  # -> (verified cost or None, failure or None)
    instances: int  # size of the instance set of one run


def _coverable(jobs, resources) -> int:
    """Jobs whose every slot some resource is active at. Copies are
    unlimited, so any set of coverable jobs can be covered together."""
    return sum(1 for j in jobs
               if all(any(r.s <= t <= r.e for r in resources) for t in range(j.s, j.e + 1)))


def _generate_partial(seed: int):
    from intervalcover.generate import generate_uniform
    return generate_uniform(seed, **PARTIAL)


def _solve_partial(inst):
    from intervalcover import pipeline
    return pipeline.solve_partial(inst)


def _check_partial(inst, res):
    from intervalcover import core
    if res.solution is None:
        if _coverable(inst.jobs, inst.resources) < inst.k:
            return None, None
        return None, "claims infeasible, but k jobs are coverable"
    report = core.verify_partial(inst, res.solution)
    if not report.feasible:
        return None, f"verify_partial: {report.reason}"
    if report.cost != res.cost:
        return None, f"reported cost {res.cost}, recomputed {report.cost}"
    return res.cost, None


def _generate_prize(seed: int):
    from intervalcover.generate import generate_uniform
    return generate_uniform(seed, **PRIZE)


def _solve_prize(inst):
    from intervalcover import pipeline
    return pipeline.solve_prize(inst)


def _check_prize(inst, res):
    from intervalcover import core
    if res.solution is None:
        # Paying every penalty is always feasible.
        return None, "claims infeasible"
    report = core.verify_prize(inst, res.solution)
    if not report.feasible:
        return None, f"verify_prize: {report.reason}"
    if report.total != res.total:
        return None, f"reported total {res.total}, recomputed {report.total}"
    return res.total, None


def _generate_lspc(seed: int):
    from intervalcover.generate import generate_lspc
    inst = generate_lspc(seed, **LSPC)
    return replace(inst, k=sum(inst.d) // 2)


def _solve_lspc(inst):
    from intervalcover import lspc
    return lspc.LspcSolver(inst).solve()


def _check_lspc(inst, res):
    from intervalcover import lspc
    if res.solution is None:
        # A slot under some long can take its whole demand; otherwise its
        # widest short bounds it.
        reach = 0
        for t in range(1, inst.T + 1):
            if any(r.s <= t <= r.e for r in inst.longs):
                reach += inst.d[t - 1]
            else:
                reach += min(inst.d[t - 1], max((s.w for s in inst.shorts if s.t == t), default=0))
        if reach < inst.k:
            return None, None
        return None, "claims infeasible, but measure k is reachable"
    report = lspc.verify_lspc(inst, res.solution)
    if not report.feasible:
        return None, f"verify_lspc: {report.violated_clause} at slot {report.violated_slot}"
    if report.cost != res.cost:
        return None, f"reported cost {res.cost}, recomputed {report.cost}"
    return res.cost, None


WORKLOADS = {
    w.name: w for w in (
        Workload("partial-uniform", _generate_partial, _solve_partial, _check_partial, 1100),
        Workload("prize-enum", _generate_prize, _solve_prize, _check_prize, 500),
        Workload("lspc-dp", _generate_lspc, _solve_lspc, _check_lspc, 800),
    )
}
