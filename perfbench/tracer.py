"""Outside-in tracer for the solver pipeline.

The tracer replaces layer entry points with timing wrappers at the
place the pipeline looks them up (a module attribute or a class
method), so nothing under ``src/`` has to know about it. Each wrapped
call records a span ``(name, start, end, parent, instance)`` in memory;
the spans are written out once the run ends. A layer's self time is its
spans' durations minus the durations of their direct child spans; span
times are plain ``perf_counter`` seconds.

A target that no longer exists, or whose results lack a field a counter
reads (after a refactor renamed or removed it), is listed in
``Tracer.untraced`` and its metrics read ``None`` instead of failing
the run. Untraced timing never goes through this module:
wrappers exist only between ``install()`` and ``uninstall()`` (or
inside ``with tracer:``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute path inside the module). Several
# targets may share a span name; both look-up sites of full_cover do.
TARGETS = (
    ("pipeline.partial", "intervalcover.pipeline", "solve_partial"),
    ("pipeline.range_solve", "intervalcover.pipeline", "_RangePipeline.solve"),
    ("pipeline.prize", "intervalcover.pipeline", "solve_prize"),
    ("mountains.decompose", "intervalcover.pipeline", "decompose"),
    ("mountains.single_mountain", "intervalcover.reductions", "single_mountain_solve"),
    ("fullcover", "intervalcover.mountains", "full_cover"),
    ("fullcover", "intervalcover.reductions", "full_cover"),
    ("reductions.split", "intervalcover.pipeline", "split_narrow_wide"),
    ("reductions.build_lspc", "intervalcover.pipeline", "build_lspc"),
    ("reductions.lift", "intervalcover.pipeline", "lift_lspc"),
    ("reductions.lift", "intervalcover.pipeline", "lift_split"),
    ("reductions.pc_to_smfc", "intervalcover.pipeline", "pc_to_smfc"),
    ("reductions.smfc", "intervalcover.pipeline", "smfc_solve_exact"),
    ("lspc.init", "intervalcover.lspc", "LspcSolver.__init__"),
    ("lspc.solve_for", "intervalcover.lspc", "LspcSolver.solve_for"),
)

# Per-layer metric -> (unit, better, spans it needs, the end-to-end
# metric and workloads it should move). The last field is documentation
# that later changes cite; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "fullcover.self_s": ("s", "lower", ("fullcover",),
                         "solve_p50_ms on partial-uniform and prize-enum; never entered on lspc-dp"),
    "fullcover.calls": ("count", "lower", ("fullcover",), "as fullcover.self_s"),
    "fullcover.call_p50_ms": ("ms", "lower", ("fullcover",), "as fullcover.self_s"),
    "fullcover.infeasible_frac": ("ratio", "lower", ("fullcover",), "as fullcover.self_s"),
    "mountains.single_mountain_s": ("s", "lower", ("mountains.single_mountain",),
                                    "solve_p50_ms on partial-uniform"),
    "mountains.single_mountain_calls": ("count", "lower", ("mountains.single_mountain",),
                                        "solve_p50_ms on partial-uniform"),
    "mountains.candidates_per_call": ("ratio", "lower", ("mountains.single_mountain", "fullcover"),
                                      "solve_p50_ms on partial-uniform: full covers tried per winner"),
    "mountains.decompose_s": ("s", "lower", ("mountains.decompose",), "solve_p50_ms on partial-uniform"),
    "mountains.ranges": ("count", "lower", ("mountains.decompose",), "solve_p50_ms on partial-uniform"),
    "reductions.split_s": ("s", "lower", ("reductions.split",),
                           "none expected (<1% of partial-uniform); should-not-move check"),
    "reductions.derived_parts": ("count", "lower", ("reductions.split",), "as reductions.split_s"),
    "reductions.build_lspc_s": ("s", "lower", ("reductions.build_lspc",), "as reductions.split_s"),
    "reductions.shorts": ("count", "lower", ("reductions.build_lspc",), "as reductions.split_s"),
    "reductions.longs": ("count", "lower", ("reductions.build_lspc",), "as reductions.split_s"),
    "reductions.lift_s": ("s", "lower", ("reductions.lift",), "as reductions.split_s"),
    "reductions.smfc_s": ("s", "lower", ("reductions.smfc",), "solve_p50_ms on prize-enum"),
    "reductions.smfc_cover_calls": ("count", "lower", ("reductions.smfc", "fullcover"),
                                    "solve_p50_ms on prize-enum"),
    "reductions.pc_to_smfc_s": ("s", "lower", ("reductions.pc_to_smfc",), "solve_p50_ms on prize-enum"),
    "lspc.init_s": ("s", "lower", ("lspc.init",),
                    "solve_p50_ms and peak_rss_mb on lspc-dp; <1% of partial-uniform"),
    "lspc.solve_for_s": ("s", "lower", ("lspc.solve_for",), "as lspc.init_s"),
    "lspc.solve_for_calls": ("count", "lower", ("lspc.solve_for",), "as lspc.init_s"),
    "lspc.memo_a_entries": ("count", "lower", ("lspc.init", "lspc.solve_for"), "as lspc.init_s"),
    "lspc.memo_m_entries": ("count", "lower", ("lspc.init", "lspc.solve_for"), "as lspc.init_s"),
    "pipeline.partial_self_s": ("s", "lower", ("pipeline.partial", "pipeline.range_solve"),
                                "solve_p50_ms on partial-uniform (range DP plus glue)"),
    "pipeline.range_solves": ("count", "lower", ("pipeline.range_solve",),
                              "solve_p50_ms on partial-uniform"),
    "pipeline.bound_factor_max": ("factor", "lower", ("pipeline.partial",),
                                  "certificate quality on partial-uniform"),
    "pipeline.prize_self_s": ("s", "lower", ("pipeline.prize",), "solve_p50_ms on prize-enum"),
    "core.verify_s": ("s", "lower", (), "none: the correctness gate runs outside the timed region"),
    "trace.overhead_frac": ("ratio", "lower", (),
                            "none: traced over untraced solve time of the same instances, minus 1"),
    "trace.instances": ("count", "higher", (), "none: instances solved both untraced and traced"),
}


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, instance)
        self.instance = None  # set by begin() before each solve
        self.untraced: set[str] = set()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list = []
        self._memo_seen: dict[int, tuple[int, int]] = {}

    def begin(self, instance) -> None:
        """Mark the start of one instance's solve. A solve cut short by a
        timeout may leave spans open; they are dropped here."""
        self.instance = instance
        self._stack.clear()

    def install(self) -> None:
        for name, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.untraced.add(name)
                continue
            owner, attr, value = found
            setattr(owner, attr, self._wrap(name, value))
            self._installed.append((owner, attr, value))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            if on_return is not None:
                try:
                    on_return(args, result)
                except (AttributeError, TypeError):  # the result's shape changed
                    self.untraced.add(name)
            return result

        return wrapper

    # Counters read from the wrapped calls' arguments and results.

    def _on_fullcover(self, args, result) -> None:
        if not result.feasible:
            self.counts["fullcover.infeasible"] += 1

    def _on_mountains_decompose(self, args, result) -> None:
        self.counts["mountains.ranges"] += len(result.ranges)

    def _on_reductions_split(self, args, result) -> None:
        self.counts["reductions.derived_parts"] += len(result[0])

    def _on_reductions_build_lspc(self, args, result) -> None:
        self.counts["reductions.shorts"] += len(result.instance.shorts)
        self.counts["reductions.longs"] += len(result.instance.longs)

    def _on_pipeline_partial(self, args, result) -> None:
        self.counts["pipeline.bound_factor_max"] = max(
            self.counts["pipeline.bound_factor_max"], result.bound_factor)

    def _on_lspc_init(self, args, result) -> None:
        self._memo_seen[id(args[0])] = (0, 0)

    def _on_lspc_solve_for(self, args, result) -> None:
        # A solver's memo grows across solve_for calls; count the growth.
        solver = args[0]
        seen_a, seen_m = self._memo_seen.get(id(solver), (0, 0))
        size_a, size_m = len(solver.memo_a), len(solver.memo_m)
        self.counts["lspc.memo_a_entries"] += size_a - seen_a
        self.counts["lspc.memo_m_entries"] += size_m - seen_m
        self._memo_seen[id(solver)] = (size_a, size_m)

    def metrics(self, verify_s: float, untraced_s: float, traced_s: float,
                instances: int) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        child_time: dict[int, float] = defaultdict(float)
        child_names: dict[int, Counter] = defaultdict(Counter)
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_names[parent][name] += 1
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        durations: dict[str, list] = defaultdict(list)
        children_of: dict[str, Counter] = defaultdict(Counter)
        for idx, (name, start, end, _, _) in spans:
            self_s[name] += end - start - child_time[idx]
            calls[name] += 1
            durations[name].append(end - start)
            children_of[name].update(child_names[idx])

        def ratio(a, b):
            return a / b if b else 0.0

        fc_calls = calls["fullcover"]
        sm_calls = calls["mountains.single_mountain"]
        values = {
            "fullcover.self_s": self_s["fullcover"],
            "fullcover.calls": fc_calls,
            "fullcover.call_p50_ms": (statistics.median(durations["fullcover"]) * 1e3
                                      if fc_calls else 0.0),
            "fullcover.infeasible_frac": ratio(self.counts["fullcover.infeasible"], fc_calls),
            "mountains.single_mountain_s": self_s["mountains.single_mountain"],
            "mountains.single_mountain_calls": sm_calls,
            "mountains.candidates_per_call": ratio(
                children_of["mountains.single_mountain"]["fullcover"], sm_calls),
            "mountains.decompose_s": self_s["mountains.decompose"],
            "mountains.ranges": self.counts["mountains.ranges"],
            "reductions.split_s": self_s["reductions.split"],
            "reductions.derived_parts": self.counts["reductions.derived_parts"],
            "reductions.build_lspc_s": self_s["reductions.build_lspc"],
            "reductions.shorts": self.counts["reductions.shorts"],
            "reductions.longs": self.counts["reductions.longs"],
            "reductions.lift_s": self_s["reductions.lift"],
            "reductions.smfc_s": self_s["reductions.smfc"],
            "reductions.smfc_cover_calls": children_of["reductions.smfc"]["fullcover"],
            "reductions.pc_to_smfc_s": self_s["reductions.pc_to_smfc"],
            "lspc.init_s": self_s["lspc.init"],
            "lspc.solve_for_s": self_s["lspc.solve_for"],
            "lspc.solve_for_calls": calls["lspc.solve_for"],
            "lspc.memo_a_entries": self.counts["lspc.memo_a_entries"],
            "lspc.memo_m_entries": self.counts["lspc.memo_m_entries"],
            "pipeline.partial_self_s": self_s["pipeline.partial"] + self_s["pipeline.range_solve"],
            "pipeline.range_solves": calls["pipeline.range_solve"],
            "pipeline.bound_factor_max": self.counts["pipeline.bound_factor_max"],
            "pipeline.prize_self_s": self_s["pipeline.prize"],
            "core.verify_s": verify_s,
            "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
            "trace.instances": instances,
        }
        out = {}
        for name, (unit, _, needs, _) in LAYER_METRICS.items():
            value = None if self.untraced.intersection(needs) else values[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """One JSON line per span, in the order the calls began."""
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, instance = span
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")
