#!/usr/bin/env python3
"""Runs one workload of the FCMA benchmark and prints its result as JSON.

    python3 bench_fcma/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench_fcma/run.py --selftest

Run from the root of a checkout.  The script builds bench_fcma and the FCMA
libraries from source (CMake, into $CARGO_TARGET_DIR/bench_fcma, default
.bench_build/bench_fcma), generates the inputs of seed N into
.bench_work/seed-N (cached; the most recent few seeds are kept), runs the
workload in a process of its own, checks its outputs, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics, and also writes the spans to .bench_work/spans/.

It exits 1 when a correctness check fails (after printing the result), and
with 1 without printing a result when it cannot build or run the workload.

--selftest runs every workload at tiny sizes, untraced and traced, and checks
that each prints every metric of BENCHMARK.json with its unit, that every
correctness check passes and that the traced replay reproduces the untraced
results.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
KEEP_SEEDS = 3
# Every run must end within 180 s; leave room for the build check and the
# input generation before the child starts.
DEADLINE_S = 170.0
# The autotuner's timed probes pick a different kernel geometry in each
# process, which alone moves facescene-task by up to 25%; the fixed default
# geometry keeps runs comparable (README.md, findings).
CHILD_ENV = {"FCMA_TUNE": "off"}


class BenchError(Exception):
    pass


def log(msg):
    print(f"bench_fcma: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; raises BenchError on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]}: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} failed with exit code "
                         f"{proc.returncode}")


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "bench_fcma")
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen, timeout=300)
    run_quiet(["cmake", "--build", bdir, "--parallel", "4"], timeout=840)
    return os.path.join(bdir, "bench_fcma")


def prune_seeds():
    dirs = [os.path.join(WORK, d) for d in os.listdir(WORK)
            if d.startswith("seed-")]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_SEEDS:]:
        shutil.rmtree(d, ignore_errors=True)


def inputs(exe, name, extra):
    """Generates (once) and returns the input directory `name`."""
    d = os.path.join(WORK, name)
    done = os.path.join(d, "done")
    if not os.path.exists(done):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        start = time.monotonic()
        run_quiet([exe, "generate", "--dir", d] + extra, timeout=300)
        with open(done, "w") as f:
            f.write(f"{time.monotonic() - start:.3f}\n")
    os.utime(d)
    return d


def run_workload(exe, workload, data, seconds, trace, spans, tiny, timeout):
    cmd = [exe, "run", "--workload", workload, "--dir", data,
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", spans]
    if tiny:
        cmd += ["--tiny", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=dict(os.environ, **CHILD_ENV),
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish in {timeout:.0f} s") \
            from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} failed with exit code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def result_of(spec, raw, trace):
    """The benchmark's result line, after checking the metric set."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} missing or not in "
                             f"{m['unit']}")
        if not math.isfinite(got["value"]):
            raise BenchError(f"metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = set(raw["metrics"]) - set(metrics)
    if extra:
        raise BenchError(f"unlisted metrics: {sorted(extra)}")
    for c in raw["checks"]:
        log(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
            f"({c['detail']})")
    correct = all(c["ok"] for c in raw["checks"]) and raw["failed"] == 0
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def with_lock(fn):
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return fn()


def main_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    start = time.monotonic()

    def prepare():
        exe = build()
        data = inputs(exe, f"seed-{args.seed}", ["--seed", str(args.seed)])
        prune_seeds()
        return exe, data

    exe, data = with_lock(prepare)
    spans = None
    if args.trace:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        spans = os.path.join(WORK, "spans",
                             f"{args.workload}-seed{args.seed}.json")
    timeout = max(30.0, DEADLINE_S - (time.monotonic() - start))
    raw = run_workload(exe, args.workload, data, args.seconds, args.trace,
                       spans, False, timeout)
    result = result_of(spec, raw, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main_selftest(spec):
    def prepare():
        exe = build()
        return exe, inputs(exe, "tiny", ["--seed", "1", "--tiny", "1"])

    exe, data = with_lock(prepare)
    failures = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            raw = run_workload(exe, w["name"], data, 0.2, trace, None, True,
                               DEADLINE_S)
            try:
                result = result_of(spec, raw, trace)
                ok = result["correct"]
            except BenchError as e:
                log(str(e))
                ok = False
            if trace:
                ok = ok and any(c["name"] == "replay_identical"
                                for c in raw["checks"])
            log(f"selftest {w['name']} trace={int(trace)}: "
                f"{'ok' if ok else 'FAILED'}")
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.selftest:
            return main_selftest(spec)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return main_run(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
