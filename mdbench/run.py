#!/usr/bin/env python3
"""Builds and runs the serving benchmark of this repository.

Run from the repository root:

  python3 mdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 mdbench/run.py --self-test

The first form builds the library from ../src together with the harness
(CMake, Release) into .bench_build/ and runs one workload; the last line of
its output is the result JSON. --trace 0 measures the end-to-end metrics,
--trace 1 the per-layer metrics of BENCHMARK.json. Spans of the run are
written to .bench_build/spans-<workload>-trace<0|1>.json.

--self-test runs every workload at toy size in both modes and checks that
every metric BENCHMARK.json names is printed with its unit, that every span
of the traced pass is closed, nested in its parent and leaves the parent
time to cover its children, and that the end-to-end pass records no span.
It also checks metrics.json, which records what each per-layer metric
should move and which layers are left unmeasured.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "mdbench")
BINARY = os.path.join(BUILD_DIR, "mdbench")
SPEC = "BENCHMARK.json"


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the Release binary; exits non-zero on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed")
            sys.exit(2)


def run_binary(args, timeout):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    """The result JSON on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def spans_path(workload, trace):
    return os.path.join(BUILD_ROOT, f"spans-{workload}-trace{trace}.json")


def check_spans(path, expect_empty):
    """Returns a list of problems with the span file at `path`."""
    with open(path) as f:
        spans = json.load(f)
    if expect_empty:
        return [f"{path}: end-to-end pass recorded {len(spans)} spans"] \
            if spans else []
    if not spans:
        return [f"{path}: traced pass recorded no spans"]
    problems = []
    covered = [0] * len(spans)
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"span {s['id']} ({s['name']}) is not closed")
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            if p >= s["id"]:
                problems.append(f"span {s['id']} opens before its parent")
            if s["start_ns"] < parent["start_ns"] or \
                    s["end_ns"] > parent["end_ns"]:
                problems.append(f"span {s['id']} ({s['name']}) is not nested "
                                f"in {parent['name']}")
            covered[p] += s["end_ns"] - s["start_ns"]
    for s, c in zip(spans, covered):
        if c > s["end_ns"] - s["start_ns"]:
            problems.append(f"children of span {s['id']} ({s['name']}) sum "
                            "to more than it")
    return problems[:20]


def check_moves(spec):
    """Checks metrics.json against BENCHMARK.json."""
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        doc = json.load(f)
    problems = []
    layers = {m["name"] for m in spec["per_layer"]}
    ends = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    if set(doc["moves"]) != layers:
        problems.append("metrics.json moves do not list exactly the "
                        "per-layer metrics")
    for layer, pairs in doc["moves"].items():
        for pair in pairs:
            if pair["metric"] not in ends or pair["workload"] not in workloads:
                problems.append(f"metrics.json: {layer} moves unknown {pair}")
    if not doc.get("unmeasured"):
        problems.append("metrics.json lists no unmeasured layers")
    return problems


def self_test():
    with open(SPEC) as f:
        spec = json.load(f)
    problems = check_moves(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            path = spans_path(workload, trace)
            if os.path.exists(path):
                os.remove(path)
            code, lines = run_binary(
                ["--workload", workload, "--seed", "1", "--seconds", "0.5",
                 "--trace", trace, "--toy", "--spans", path], timeout=170)
            result = result_of(lines)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, no result line")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: wrong results")
            printed = result["metrics"]
            for metric in spec[key]:
                got = printed.get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} not printed")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} has unit "
                                    f"{got.get('unit')}, not {metric['unit']}")
            extra = set(printed) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            if not os.path.exists(path):
                problems.append(f"{label}: no span file")
            else:
                problems += [f"{label}: {p}"
                             for p in check_spans(path, trace == "0")]
            log(f"self-test {label}: done")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    code, lines = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--spans", spans_path(args.workload, args.trace)],
        timeout=170)
    for line in lines:
        print(line)
    if code != 0 or result_of(lines) is None:
        log(f"harness exited {code} without a valid result")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
