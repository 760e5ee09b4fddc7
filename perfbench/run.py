#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0

Builds the library and the perfbench program from source into .bench_build
(CMake, Release), runs the workload for --seconds, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with --trace 1 they are its per-layer metrics, derived
from the spans the traced run writes. Exits non-zero when any operation or
check failed, or when the program cannot be built. perfbench/README.md
defines the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
STATE_FILE = os.path.join(ROOT, ".bench_state", "bytes.json")
WORKLOADS = ("serve-read", "serve-churn", "mesh-catchup")
# Workloads whose bytes_per_catchup is a pure function of the seed.
EXACT_BYTES = ("serve-read", "mesh-catchup")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "async_sync_server.h")):
        die("library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "3"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    return os.path.join(BUILD_DIR, "perfbench")


def percentile(values, q):
    """Linear interpolation between closest ranks; q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values):
    return statistics.fmean(values) if values else 0.0


def bytes_per_catchup(workload, result, problems):
    """Mean bytes of one catch-up, defined so that it is exact per seed.

    serve-*: the mean over the replica pool of each replica's mean sync
    bytes (on serve-read every sync of one replica moves the same bytes).
    mesh-catchup: the mean over the run's fixed prefix of cycles.
    """
    ops = result["ops"]
    if workload == "mesh-catchup":
        prefix = sorted(ops, key=lambda op: op[3])[:result["prefix_cycles"]]
        return mean([op[2] for op in prefix])
    per_replica = defaultdict(list)
    for op in ops:
        per_replica[op[3]].append(op[2])
    if workload == "serve-read":
        for replica, sizes in sorted(per_replica.items()):
            if len(set(sizes)) != 1:
                problems.append("replica %d synced with differing byte counts %s"
                                % (replica, sorted(set(sizes))))
    return mean([mean(sizes) for sizes in per_replica.values()])


def source_digest():
    """sha256 of every source file the perfbench program is built from."""
    digest = hashlib.sha256()
    files = [os.path.join(HERE, name) for name in os.listdir(HERE)
             if name.endswith((".cc", ".h")) or name == "CMakeLists.txt"]
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(dirpath, name) for name in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def check_repeat(workload, seed, value, problems):
    """bytes_per_catchup must repeat exactly across runs of one seed.

    The record is keyed by the source tree as well, so only runs of the
    same code are compared: a change that moves bytes starts a new record.
    """
    if workload not in EXACT_BYTES:
        return
    os.makedirs(os.path.dirname(STATE_FILE), exist_ok=True)
    state = {}
    if os.path.isfile(STATE_FILE):
        with open(STATE_FILE) as f:
            state = json.load(f)
    key = "%s:%s:%d" % (source_digest(), workload, seed)
    if key in state and state[key] != value:
        problems.append("bytes_per_catchup %r differs from %r measured by an "
                        "earlier run of seed %d of the same code"
                        % (value, state[key], seed))
    else:
        state[key] = value
        with open(STATE_FILE, "w") as f:
            json.dump(state, f, indent=0, sort_keys=True)


def end_to_end(workload, result, catchup_bytes):
    # The measured window only: not the warm-up before it, nor the cycles
    # a slow mesh run adds after it to complete its fixed prefix.
    ops = [op for op in result["ops"] if 0 <= op[0] < result["window_s"]]
    latencies = [op[1] for op in ops]
    if workload == "mesh-catchup":
        # Cycles per second of the library's own work: the writes and
        # rounds of each cycle, not the benchmark's checks between them.
        seconds = sum(op[5] for op in ops) / 1e3
    else:
        seconds = result["window_s"]
    return {
        # The upper quartile of the samples, i.e. the median of their slower
        # half: the builds in the slow mode, which every stretch of a run
        # has (see kServeSetupPeriodNs in perfbench.cc and the README).
        "setup_s": percentile(result["setup_s"], 75),
        "catchup_mean_ms": mean(latencies),
        "catchup_p90_ms": percentile(latencies, 90),
        "catchups_per_s": len(ops) / seconds,
        "bytes_per_catchup": catchup_bytes,
    }


def per_layer(workload, result, spans_path):
    spans, counters = [], {}
    with open(spans_path) as f:
        for line in f:
            record = json.loads(line)
            if "counter" in record:
                counters[record["counter"]] = record["value"]
            else:
                record["ms"] = (record["end_ns"] - record["start_ns"]) / 1e6
                spans.append(record)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def p(spans, q=50):
        return percentile([s["ms"] for s in spans], q)

    def avg(spans, field):
        return mean([s[field] for s in spans])

    rounds = by_name["replica.round"]
    tails = [s for s in rounds if s["tag"] == "tail"]
    repairs = [s for s in rounds if s["tag"].startswith("repair")]
    # A write's lateness: from when it was due (its load.write span's
    # start) to the start of the call it wraps.
    call_start = {s["parent"]: s["start_ns"] for s in spans if s["parent"]}
    lateness = [(call_start[s["id"]] - s["start_ns"]) / 1e6
                for s in by_name["load.write"] if s["id"] in call_start]

    # Tracing overhead: the traced operations' latency, rebuilt from their
    # spans, against the same run's untraced operations in the window. A
    # traced sync first probes snapshot(), which takes over the wait for the
    # store's mutex that an untraced sync spends inside it, so the probe
    # counts as part of the sync.
    traced = defaultdict(float)
    probes = by_name["store.snapshot"] if workload != "mesh-catchup" else []
    for span in by_name["sync"] + probes + rounds:
        traced[span["op"]] += span["ms"]
    untraced = [op[1] for op in result["ops"]
                if 0 <= op[0] < result["window_s"] and not op[4]]
    overhead = 0.0
    if traced and untraced:
        overhead = 100.0 * (statistics.median(traced.values())
                            / statistics.median(untraced) - 1.0)

    return {
        "net.connect_ms": p(by_name["net.connect"]),
        "recon.alice_sketch_ms": p(by_name["recon.alice_sketch"]),
        "recon.bob_cached_ms": p(by_name["recon.bob_cached"]),
        "recon.drive_ms": p(by_name["recon.drive"]),
        "recon.alice_bytes": avg(by_name["recon.alice_sketch"], "bytes"),
        "recon.result_bytes": avg(by_name["recon.drive"], "bytes"),
        "store.build_ms": p(by_name["store.build"]),
        "store.apply_p50_ms": p(by_name["store.apply"], 50),
        "store.apply_p90_ms": p(by_name["store.apply"], 90),
        "store.snapshot_us": 1e3 * avg(by_name["store.snapshot"], "ms"),
        "store.rebuilds": counters.get("store.rebuilds", 0),
        "load.write_p50_ms": p(by_name["load.write"], 50),
        "load.write_p90_ms": p(by_name["load.write"], 90),
        "load.writer_late_ms": mean(lateness),
        "replica.write_ms": p(by_name["replica.write"]),
        "replica.tail_round_ms": p(tails),
        "replica.repair_round_ms": p(repairs),
        "replica.tail_bytes": avg(tails, "bytes"),
        "replica.repair_bytes": avg(repairs, "bytes"),
        "replica.entries_per_tail": avg(tails, "items"),
        "replica.repair_exact_share": (
            sum(1 for s in repairs if s["tag"] == "repair-exact") / len(repairs)
            if repairs else 0.0),
        "trace.overhead_pct": overhead,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()

    out = os.path.join(OUT_DIR, "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out]
    try:
        status = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die("the %s run did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    if status != 0:
        die("perfbench exited with status %d" % status)
    with open(os.path.join(out, "result.json")) as f:
        result = json.load(f)

    problems = list(result["failures"])
    failed = result["failed"]
    catchup_bytes = bytes_per_catchup(args.workload, result, problems)
    check_repeat(args.workload, args.seed, catchup_bytes, problems)
    failed += len(problems) - len(result["failures"])

    if args.trace:
        values = per_layer(args.workload, result, os.path.join(out, "spans.jsonl"))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args.workload, result, catchup_bytes)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for problem in problems:
        print("perfbench: FAILED: " + problem, file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
