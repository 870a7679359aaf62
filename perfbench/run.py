"""Benchmark for the intervalcover solvers.

    python3 perfbench/run.py --workload partial-uniform --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process, one thread, a closed loop: the workload's fixed
set of instances (see workloads.py) is solved one instance after
another. Every solution is checked with the package's verifiers outside
the timed region. A solve that raises, exceeds the per-instance timeout
or fails its check counts as failed, and the run carries on.

A shared host can run a third slower or more for seconds at a time.
Every timing is therefore taken between two runs of a fixed calibration
loop and divided by their mean (see ``timed``): the reported times are
what the host measures at the loop's reference speed, and the summary
line gives the loop's median so they can be converted back.

With ``--trace 0`` the whole set is solved once, then instances are
solved again, pass after pass, until ``--seconds`` have passed. Each
instance keeps its fastest time. Only instances within a factor two of
the current median are re-solved, since the others cannot move the
median. The last line reports the end-to-end metrics:

- ``solve_p50_ms``: median over the instances of one solver call.
  Instance times are heavy-tailed, so sums over a few hundred instances
  swing with the seed; the median does not.
- ``setup_s``: importing the package afresh and generating the
  instance set; the median of repetitions before and between passes.
- ``peak_rss_mb``: peak resident memory of the process.
- ``cost_mean``: mean verified cost over the instances that have a
  solution; ``null`` if any instance failed.

With ``--trace 1`` instances are solved for ``--seconds``, each twice:
untraced, then with the layer entry points wrapped (tracer.py). The
last line reports the per-layer metrics, and the spans are written to
``perfbench/out/``.

The exit code is 1 if any solution failed its check, 2 if the package
sources are missing, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import SEED_STRIDE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

INSTANCE_TIMEOUT_S = 45
# No instance starts after this, so a run ends within
# RUN_LIMIT_S + INSTANCE_TIMEOUT_S plus the checks.
RUN_LIMIT_S = 110
SETUP_REPEATS = 3
# Fastest time of calibrate() on a 2-core 2.1 GHz x86-64 host under
# CPython 3.11; times are reported as if each calibration took this long.
CALIBRATION_REF_S = 0.0004


class InstanceTimeout(Exception):
    pass


class CheckFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Tally:
    attempted: set = field(default_factory=set)  # indices into the instance set
    times: dict = field(default_factory=dict)  # index -> fastest untraced solve, reference s
    traced_times: dict = field(default_factory=dict)  # index -> traced solve, reference s
    costs: dict = field(default_factory=dict)  # index -> verified cost (None: verified infeasible)
    failures: dict = field(default_factory=dict)  # index -> reason
    mismatches: int = 0  # failures of the correctness check
    verify_s: float = 0.0
    calibrations: list = field(default_factory=list)  # calibrate() seconds, one per timing


def import_package() -> None:
    """Import intervalcover afresh from src/."""
    for name in [m for m in sys.modules if m == "intervalcover" or m.startswith("intervalcover.")]:
        del sys.modules[name]
    importlib.import_module("intervalcover")


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
        acc += (i * 7) // 3
    return perf_counter() - start


def timed(fn, tally: Tally):
    """Run ``fn()`` and return (reference seconds, its result).

    The host's slow phases stretch the calibration loop and the solver
    alike, so a time divided by the mean of the loop's times just before
    and just after it barely moves with them. On the host named at
    CALIBRATION_REF_S, a 13 ms partial solve repeated for 45 s correlated
    at 0.86 with the loop, and the spread of its one-second medians fell
    from 19 % to 2 % once divided. The ratio is reported in seconds at
    the loop's reference time.
    """
    before = calibrate()
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    loop = (before + calibrate()) / 2
    tally.calibrations.append(loop)
    return elapsed * CALIBRATION_REF_S / loop, result


def measure_setup(workload, seed: int, repeats: int, tally: Tally) -> tuple[list, list]:
    """Reference times to import the package afresh and generate the
    instance set, and the (generator seed, instance) pairs of the last
    repetition."""
    first = seed * SEED_STRIDE

    def setup():
        import_package()
        return [(s, workload.generate(s)) for s in range(first, first + workload.instances)]

    times = []
    for _ in range(repeats):
        gc.collect()  # earlier imports leave module cycles behind
        elapsed, pairs = timed(setup, tally)
        times.append(elapsed)
    return times, pairs


def _solve_once(workload, inst, tally: Tally) -> tuple[float, object]:
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_TIMEOUT_S)
    try:
        return timed(lambda: workload.solve(inst), tally)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _verified_cost(workload, tally: Tally, idx: int, inst, result):
    """The verified cost, or raise CheckFailed naming the problem."""
    start = perf_counter()
    cost, problem = workload.check(inst, result)
    tally.verify_s += perf_counter() - start
    if problem is None and tally.costs.get(idx, cost) != cost:
        problem = f"cost {cost} differs from the earlier solve's {tally.costs[idx]}"
    if problem is not None:
        tally.mismatches += 1
        raise CheckFailed(problem)
    return cost


def solve_pass(workload, pairs, indices, tally: Tally, stop: float, tracer=None) -> None:
    """Solve the instances at ``indices`` in order, at least one, until
    ``stop``. With a tracer, each is solved untraced and then again
    traced, so both timings see the same state of the machine."""
    for n, idx in enumerate(indices):
        if n and perf_counter() >= stop:
            return
        gen_seed, inst = pairs[idx]
        tally.attempted.add(idx)
        try:
            elapsed, result = _solve_once(workload, inst, tally)
            cost = _verified_cost(workload, tally, idx, inst, result)
            if tracer is not None:
                tracer.begin(gen_seed)
                with tracer:
                    traced_elapsed, result = _solve_once(workload, inst, tally)
                _verified_cost(workload, tally, idx, inst, result)
                tally.traced_times[idx] = traced_elapsed
        except InstanceTimeout:
            tally.failures[idx] = f"timeout after {INSTANCE_TIMEOUT_S} s"
        except CheckFailed as exc:
            tally.failures[idx] = str(exc)
        except Exception as exc:  # a failed instance is data; the run goes on
            tally.failures[idx] = f"{type(exc).__name__}: {exc}"
        else:
            tally.times[idx] = min(elapsed, tally.times.get(idx, elapsed))
            tally.costs[idx] = cost


def end_to_end(workload, tally: Tally, setup_s: float) -> dict:
    cost_mean = None
    if len(tally.costs) == workload.instances and not tally.failures:
        feasible = [c for c in tally.costs.values() if c is not None]
        cost_mean = statistics.fmean(feasible) if feasible else None
    return {
        "solve_p50_ms": {"value": statistics.median(tally.times.values()) * 1e3 if tally.times else None,
                         "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "cost_mean": {"value": cost_mean, "unit": "cost"},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, list]:
    """Metrics, tally and (generator seed, instance) pairs of one run."""
    workload = WORKLOADS[workload_name]
    signal.signal(signal.SIGALRM, _on_alarm)
    run_end = perf_counter() + RUN_LIMIT_S
    tally = Tally()
    setup_times, pairs = measure_setup(workload, seed, SETUP_REPEATS, tally)
    deadline = perf_counter() + seconds
    everything = range(len(pairs))
    if not trace:
        solve_pass(workload, pairs, everything, tally, run_end)
        while tally.times and perf_counter() < deadline:
            mid = statistics.median(tally.times.values())
            solve_pass(workload, pairs, [i for i, t in tally.times.items() if mid / 2 <= t <= 2 * mid],
                       tally, deadline)
            # Set-up is timed between passes too, so that its median
            # spans the same stretch of time as the solves.
            setup_times += measure_setup(workload, seed, 1, tally)[0]
        return end_to_end(workload, tally, statistics.median(setup_times)), tally, pairs

    from tracer import Tracer
    tracer = Tracer()
    solve_pass(workload, pairs, everything, tally, deadline, tracer)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload_name}-{seed}.jsonl"
    tracer.write(path)
    print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)})")
    if tracer.untraced:
        print(f"untraced layers: {', '.join(sorted(tracer.untraced))}")
    metrics = tracer.metrics(tally.verify_s, sum(tally.times[i] for i in tally.traced_times),
                             sum(tally.traced_times.values()), len(tally.traced_times))
    return metrics, tally, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intervalcover" / "__init__.py").is_file():
        print(f"no package sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    metrics, tally, pairs = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = len(tally.attempted), len(tally.failures)
    for idx, reason in sorted(tally.failures.items()):
        print(f"failed: generator seed {pairs[idx][0]}: {reason}")
    print(f"{args.workload} seed {args.seed}: {attempted} instances, {failed} failed, "
          f"failed_frac {failed / max(1, attempted)}, calibration loop median "
          f"{statistics.median(tally.calibrations) * 1e3:.4f} ms "
          f"(reference {CALIBRATION_REF_S * 1e3} ms)")
    print(json.dumps({"correct": tally.mismatches == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if tally.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
