#!/usr/bin/env python3
"""The study benchmark: `repro` end to end, and its layers from outside.

One run, one JSON result as the last line of stdout:

    python3 studybench/run.py --workload study-small --seed 1 --seconds 10 --trace 0

`--trace 0` times fresh release `repro` processes (wall, CPU, peak RSS,
set-up) and checks every run's tables against a reference digest.
`--trace 1` runs the same work once through `repro` and once in-process
through the `studybench` binary, which times each call into the layers,
and prints the per-layer metrics. A second `studybench` pass, without the
experiment drivers, must repeat every exact counter.

Any subset of the workloads, several runs each plus one traced run,
summarised per metric with unit, median, quartiles and sample count:

    python3 studybench/run.py report --workloads study-small,cpu-corpus --runs 5

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Scratch
files, including warm-store's 1.2 GB trace store, live under
`.bench_work/` in the checkout and are removed when the run ends.
METRICS.md in this directory defines every metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "studybench")
WORK = os.path.join(ROOT, ".bench_work")
# `repro --jobs`; the studybench binary runs the same number of workers.
JOBS = "2"
CORPUS = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]

# `store`: the workload runs against a trace store that its set-up
# populates with one cold `repro ... --store` run. `samples`: the fewest
# `repro` runs one timed run measures, however short `--seconds` is.
# study-small's single run takes about 26 s, and one such sample per run
# left its spread over runs at the mercy of the host; its median over two
# is steadier. cpu-corpus is not in BENCHMARK.json (the time budget of a
# full benchmark check fits two workloads); `report` and the self-tests
# run it.
WORKLOADS = {
    "study-small": {"artifacts": ["all"], "store": False, "samples": 2},
    "cpu-corpus": {"artifacts": CORPUS, "store": False, "samples": 1},
    "warm-store": {"artifacts": ["all"], "store": True, "samples": 1},
}

# sha256 of `repro <artifacts> <scale>`'s stdout, which is exactly the
# rendered tables. study-small and warm-store share the `all` digest.
REFERENCE_DIGESTS = {
    ("all", "small"): "c7c2f66d33029eadcf089fdd857c2e6a3c6b69f7f54a7e7354c3ecaf63936c88",
    ("corpus", "small"): "cdcc0231a0a051f9b68d019bb0d068027ebf276d93e1438293b380496668699d",
    ("all", "tiny"): "81cdb08b71b08706d3e479e8877989303ca989c78008942c6e932eb8b3b160fe",
    ("corpus", "tiny"): "137a503858945dc79252be8e38faa42c327257b68ab67b21dcefeab7dbfce267",
}

# Tiny-scale warm-up runs that make up a cold workload's set-up.
WARMUP_RUNS = 3

# Per-layer counters that must repeat exactly between two traced passes
# of one build.
EXACT_SUFFIXES = (".calls", ".warp_insts", ".sim_cycles", ".refs", ".trace_bytes", ".words")
EXACT_NAMES = ("store.entries", "store.bytes", "engine.jobs")


def log(msg):
    print(f"studybench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    """Stops without a result line, as a run that could not measure must."""
    log(msg)
    sys.exit(2)


def digest_key(workload):
    return "all" if WORKLOADS[workload]["artifacts"] == ["all"] else "corpus"


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build():
    """Builds `repro` and `studybench` in release mode; returns their paths."""
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        die(f"no Cargo.toml at {ROOT}; nothing to build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "repro"), os.path.join(release, "studybench")


def invoke(argv, work, name):
    """Runs one process to completion with stdout and stderr in files.

    Returns wall seconds from spawn to reaping, user+system CPU seconds,
    peak RSS in MB, the exit code, and the stdout path.
    """
    out = os.path.join(work, name + ".out")
    err = os.path.join(work, name + ".err")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t = time.perf_counter()
        p = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=work)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        with open(err, "rb") as f:
            log(f"{name}: exit {p.returncode}: {f.read()[-2000:].decode(errors='replace')}")
    return {
        "wall": wall,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
        "code": p.returncode,
        "stdout": out,
    }


def tables_ok(res, expected, name):
    """A study run is correct when it exits 0 and its tables digest-match."""
    if res["code"] != 0:
        return False
    got = sha256_file(res["stdout"])
    if got != expected:
        log(f"{name}: tables digest {got[:16]} differs from reference {expected[:16]}")
        return False
    return True


class Run:
    """One benchmark run's scratch directory and correctness tally."""

    def __init__(self, workload, scale):
        self.workload = workload
        self.scale = scale
        self.spec = WORKLOADS[workload]
        self.repro, self.bench = build()
        self.work = os.path.join(WORK, f"run-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.store = os.path.join(self.work, "store")
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def study_argv(self, scale=None):
        argv = [self.repro] + self.spec["artifacts"] + [scale or self.scale, "--jobs", JOBS]
        return argv + (["--store", self.store] if self.spec["store"] else [])

    def study(self, name, scale=None):
        scale = scale or self.scale
        res = invoke(self.study_argv(scale), self.work, name)
        self.attempted += 1
        if not tables_ok(res, REFERENCE_DIGESTS[(digest_key(self.workload), scale)], name):
            self.failed += 1
            self.correct = False
        return res

    def setup(self):
        """The workload's set-up stage; returns its seconds.

        warm-store: the cold run that populates the store. The cold
        workloads warm up instead: the same artifacts at tiny scale,
        which faults in the binary and the study's code paths before
        the timed runs; their median wall time is the set-up time.
        """
        if self.spec["store"]:
            return self.study("populate")["wall"]
        return statistics.median(
            self.study(f"warmup{i}", "tiny")["wall"] for i in range(WARMUP_RUNS))

    def timed(self, seconds):
        setup_s = self.setup()
        samples = []
        start = time.perf_counter()
        while (len(samples) < self.spec["samples"]
               or time.perf_counter() - start < seconds):
            samples.append(self.study(f"timed{len(samples)}"))
        return {
            "wall_s": statistics.median(s["wall"] for s in samples),
            "cpu_s": statistics.median(s["cpu"] for s in samples),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
            "setup_s": setup_s,
        }

    def traced_pass(self, name, extra):
        """Runs one `studybench` pass; returns its document or None."""
        argv = [self.bench, "--scale", self.scale,
                "--artifacts", ",".join(self.spec["artifacts"])] + extra
        if self.spec["store"]:
            argv += ["--store", self.store]
        res = invoke(argv, self.work, name)
        self.attempted += 1
        if res["code"] != 0:
            return None
        with open(res["stdout"]) as f:
            return json.loads(f.read().strip().splitlines()[-1])

    def traced(self):
        """The CLI run, the traced pass, and a second traced pass
        without the experiment drivers whose exact counters must equal
        the first's. Only warm-store needs its set-up here."""
        if self.spec["store"]:
            self.setup()
        cli = self.study("untraced")
        tables = os.path.join(self.work, "traced.tables")
        doc = self.traced_pass("traced", ["--tables-out", tables])
        again = self.traced_pass("retraced", []) if doc else None
        errors = list(doc["errors"]) if doc else ["traced pass failed"]
        if doc and not again:
            errors.append("second traced pass failed")
        if again:
            errors += again["errors"]
            errors += counter_differences(doc["metrics"], again["metrics"])
        if doc and sha256_file(tables) != sha256_file(cli["stdout"]):
            errors.append("traced tables differ from the CLI run's tables")
        expected = REFERENCE_DIGESTS[(digest_key(self.workload), self.scale)]
        if doc and not tables_ok({"code": 0, "stdout": tables}, expected, "traced"):
            errors.append("traced tables differ from the reference digest")
        metrics = dict(doc["metrics"]) if doc else {}
        if doc:
            metrics["obs.trace_overhead_pct"] = (
                100.0 * (metrics["traced_wall_s"] - cli["wall"]) / cli["wall"])
        for e in errors:
            log(e)
        if errors:
            self.failed += 1
            self.correct = False
        return metrics

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def counter_differences(first, second):
    """Names every exact counter on which two traced passes disagree."""
    exact = [k for k in first
             if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES or k.startswith("trace_cache.")]
    return [f"counter {k} is {first[k]} in the first traced pass but {second.get(k)} in the second"
            for k in sorted(exact) if second.get(k) != first[k]]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(args):
    spec = declared_metrics()
    run = Run(args.workload, args.scale)
    try:
        if args.trace:
            values, declared = run.traced(), spec["per_layer"]
        else:
            values, declared = run.timed(args.seconds), spec["end_to_end"]
    finally:
        run.close()
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            log(f"metric {m['name']} was not measured")
            run.correct = False
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": run.correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


def report(args):
    """Runs each workload `--runs` times plus one traced run, each as its
    own process exactly as a single benchmark run, and prints every metric
    with unit, median, quartiles and sample count. `--append-to` adds
    the summary as one point to a trajectory file."""
    seconds = declared_metrics()["run_seconds"]
    point = {"label": args.label, "nproc": os.cpu_count(), "profile": "release",
             "jobs": int(JOBS), "runs": args.runs, "seconds": seconds, "workloads": {}}
    for wl in args.workloads.split(","):
        if wl not in WORKLOADS:
            die(f"unknown workload {wl}")
        results = [self_invoke(wl, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        results.append(self_invoke(wl, 0, seconds, 1))
        values = {}
        for r in results:
            for name, m in r["metrics"].items():
                values.setdefault((name, m["unit"]), []).append(m["value"])
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{wl}: correct={correct} failed={failed}/{attempted}", flush=True)
        summary = {}
        for (name, unit), vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(vs),
                             "values": vs}
            spread = f"  iqr/median {(q3 - q1) / med:.2%}" if len(vs) > 1 and med else ""
            print(f"  {name:34} {unit:6} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} n={len(vs)}{spread}", flush=True)
        point["workloads"][wl] = {"correct": correct, "failed": failed,
                                  "attempted": attempted, "metrics": summary}
    if args.append_to:
        doc = {"points": []}
        if os.path.exists(args.append_to):
            with open(args.append_to) as f:
                doc = json.load(f)
        doc["points"].append(point)
        with open(args.append_to, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


def self_invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "report":
        p = argparse.ArgumentParser(prog="run.py report")
        p.add_argument("--workloads",
                   default=",".join(w["name"] for w in declared_metrics()["workloads"]))
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--append-to", help="trajectory file to add this summary to")
        p.add_argument("--label", default="", help="names the point in the trajectory")
        report(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # The study's inputs are fixed by its scale (`new(scale)`), and
    # `repro` takes no seed, so the seed is accepted and changes nothing.
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", default="small", choices=["tiny", "small"])
    one_run(p.parse_args())


if __name__ == "__main__":
    main()
