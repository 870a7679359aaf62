"""Self-tests of the benchmark at smoke size.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

import run
import tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(name: str, n: int = 2, **changes):
    """Patch a workload down to ``n`` instances."""
    return mock.patch.dict(WORKLOADS, {name: replace(WORKLOADS[name], instances=n, **changes)})


class EndToEnd(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for name in WORKLOADS:
            with self.subTest(workload=name), smoke(name):
                metrics, tally, _ = run.run(name, seed=0, seconds=0, trace=False)
                self.assertEqual(tally.attempted, {0, 1})
                self.assertEqual(tally.failures, {})
                self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["end_to_end"]})
                for spec in BENCHMARK["end_to_end"]:
                    got = metrics[spec["name"]]
                    self.assertEqual(got["unit"], spec["unit"])
                    self.assertIsInstance(got["value"], float)
                    self.assertGreater(got["value"], 0)

    def test_corrupted_solution_counts_as_failed(self):
        solve = WORKLOADS["prize-enum"].solve

        def solve_then_corrupt(inst):
            res = solve(inst)
            return replace(res, total=res.total + 1)

        with smoke("prize-enum", solve=solve_then_corrupt):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "prize-enum", "--seconds", "0"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 2))
        self.assertIsNone(result["metrics"]["cost_mean"]["value"])

    def test_exception_is_counted_and_run_goes_on(self):
        solve = WORKLOADS["lspc-dp"].solve
        calls = []

        def fail_first(inst):
            calls.append(inst)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return solve(inst)

        with smoke("lspc-dp", n=3, solve=fail_first):
            metrics, tally, pairs = run.run("lspc-dp", seed=5, seconds=0, trace=False)
        self.assertEqual(tally.attempted, {0, 1, 2})
        self.assertEqual(tally.failures, {0: "RuntimeError: boom"})
        self.assertEqual(pairs[0][0], 5 * run.SEED_STRIDE)
        self.assertEqual(tally.mismatches, 0)
        self.assertIsNone(metrics["cost_mean"]["value"])

    def test_timeout_is_counted(self):
        def sleep(inst):
            time.sleep(5)

        with smoke("lspc-dp", n=1, solve=sleep), mock.patch.object(run, "INSTANCE_TIMEOUT_S", 0.05):
            _, tally, _ = run.run("lspc-dp", seed=0, seconds=0, trace=False)
        self.assertEqual(tally.failures, {0: "timeout after 0.05 s"})

    def test_same_seed_same_instances(self):
        for name, w in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(w.generate(7), w.generate(7))
                self.assertNotEqual(w.generate(7), w.generate(8))


class Traced(unittest.TestCase):
    def traced(self, name: str):
        with smoke(name, n=1):
            metrics, tally, _ = run.run(name, seed=0, seconds=0, trace=True)
        self.assertEqual(tally.failures, {})
        return metrics

    def test_layers_entered_per_workload(self):
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = self.traced(name)
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, units)
                self.assertTrue(all(v["value"] is not None for v in metrics.values()))
                entered = metrics["fullcover.calls"]["value"] > 0
                self.assertEqual(entered, name != "lspc-dp")
                self.assertEqual(metrics["lspc.solve_for_calls"]["value"] > 0,
                                 name != "prize-enum")

    def test_wrappers_removed_after_run(self):
        self.traced("partial-uniform")
        from intervalcover import lspc, pipeline
        for fn in (pipeline.solve_partial, pipeline.build_lspc, lspc.LspcSolver.solve_for):
            self.assertFalse(hasattr(fn, "__wrapped__"))

    def test_missing_target_reported_untraced(self):
        targets = tuple(t if t[0] != "lspc.solve_for" else (t[0], t[1], "LspcSolver.gone")
                        for t in tracer.TARGETS)
        with mock.patch.object(tracer, "TARGETS", targets):
            metrics = self.traced("lspc-dp")
        self.assertIsNone(metrics["lspc.solve_for_s"]["value"])
        self.assertIsNone(metrics["lspc.memo_m_entries"]["value"])
        self.assertIsNotNone(metrics["lspc.init_s"]["value"])

    def test_self_times_add_up_to_root_spans(self):
        t = tracer.Tracer()
        t.spans[:] = [("pipeline.partial", 0.0, 10.0, -1, 1),
                      ("fullcover", 1.0, 4.0, 0, 1),
                      ("mountains.single_mountain", 5.0, 9.0, 0, 1),
                      ("fullcover", 6.0, 8.0, 2, 1)]
        m = t.metrics(verify_s=0.0, untraced_s=1.0, traced_s=1.0, instances=1)
        self.assertEqual(m["fullcover.self_s"]["value"], 5.0)
        self.assertEqual(m["mountains.single_mountain_s"]["value"], 2.0)
        self.assertEqual(m["pipeline.partial_self_s"]["value"], 3.0)
        self.assertEqual(m["mountains.candidates_per_call"]["value"], 1.0)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         {k: v[0] for k, v in tracer.LAYER_METRICS.items()})

    def test_refuses_without_package_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lspc-dp", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
