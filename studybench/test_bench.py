#!/usr/bin/env python3
"""Self-tests of the study benchmark at `tiny` scale.

    python3 studybench/test_bench.py

Each test runs `run.py` as its own process, exactly as one benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "studybench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)


RESULTS = {}


def result(workload, trace):
    """One run's result; each (workload, trace) pair runs once per test
    session."""
    if (workload, trace) not in RESULTS:
        proc = bench(workload, trace)
        if proc.returncode != 0:
            raise AssertionError(proc.stderr.decode(errors="replace")[-3000:])
        RESULTS[workload, trace] = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return RESULTS[workload, trace]


def traced_metrics(workload):
    return {k: v["value"] for k, v in result(workload, 1)["metrics"].items()}


class StudyBenchmark(unittest.TestCase):
    def check_declared(self, res, declared):
        self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            printed = res["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])

    def test_every_workload_runs_and_prints_every_declared_metric_with_its_unit(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                timed = result(w, 0)
                self.check_declared(timed, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(timed["metrics"][m["name"]]["value"], 0, m["name"])
                self.check_declared(result(w, 1), SPEC["per_layer"])

    def test_traced_tables_equal_the_cli_tables(self):
        # A traced run fails when its tables differ from the CLI run's or
        # from the reference; check that comparison directly as well.
        r = run.Run("study-small", "tiny")
        try:
            cli = r.study("cli")
            tables = os.path.join(r.work, "traced.tables")
            res = run.invoke([r.bench, "--scale", "tiny", "--artifacts", "all",
                              "--tables-out", tables], r.work, "traced")
            self.assertEqual(res["code"], 0)
            self.assertEqual(run.sha256_file(tables), run.sha256_file(cli["stdout"]))
            self.assertEqual(r.failed, 0)
        finally:
            r.close()

    def test_warm_store_restores_every_entry_and_captures_nothing(self):
        m = traced_metrics("warm-store")
        self.assertEqual(m["trace_cache.gpu_captures"], 0)
        self.assertEqual(m["trace_cache.cpu_captures"], 0)
        self.assertEqual(m["gpu_capture.calls"], 0)
        self.assertEqual(m["cpu_capture.calls"], 0)
        self.assertGreater(m["store.entries"], 0)
        self.assertEqual(
            m["trace_cache.gpu_restores"] + m["trace_cache.cpu_restores"], m["store.entries"])

    def test_warm_store_replays_less_than_study_small(self):
        # warm-store's PB sweep restores from its journal, so its traced
        # pass must not replay the design points that study-small does.
        warm, cold = traced_metrics("warm-store"), traced_metrics("study-small")
        self.assertLess(warm["gpu_replay.calls"], cold["gpu_replay.calls"])
        self.assertLess(warm["gpu_replay.warp_insts"], cold["gpu_replay.warp_insts"])

    def test_cpu_corpus_leaves_the_gpu_layers_idle(self):
        m = traced_metrics("cpu-corpus")
        for name in ("gpu_capture.calls", "gpu_replay.calls", "gpu_replay.warp_insts",
                     "trace_cache.gpu_captures", "store.entries"):
            self.assertEqual(m[name], 0, name)
        self.assertLess(m["gpu_replay.s"], 1e-3)
        self.assertEqual(m["cpu_replay.calls"], 24 * 8)

    def test_counter_check_names_every_differing_exact_counter(self):
        first = {"gpu_replay.calls": 5, "store.bytes": 10, "trace_cache.gpu_restores": 3,
                 "gpu_replay.s": 1.0}
        second = dict(first, **{"store.bytes": 11, "gpu_replay.s": 2.0})
        self.assertEqual(run.counter_differences(first, first), [])
        diffs = run.counter_differences(first, second)
        self.assertEqual(len(diffs), 1)
        self.assertIn("store.bytes", diffs[0])

    def test_fails_without_a_result_when_the_program_is_missing(self):
        bare = os.path.join(run.WORK, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "studybench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            proc = bench("cpu-corpus", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), b"")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
