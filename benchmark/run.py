#!/usr/bin/env python3
"""Builds and runs the BVF benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-check
    python3 benchmark/run.py --write-pins

The first form builds benchmark/ (which compiles the library from ../src)
into $CARGO_TARGET_DIR (default .bench_build) under the repository root, runs
one workload, checks its outputs against benchmark/pins.json and the metric
names and units against BENCHMARK.json, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 0 only when every check passed. --self-check runs every workload
in both modes on one input and checks names, units and pins. --write-pins
records the pins for every input of the pool (a results-changing change
must re-record them).
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINS = os.path.join(BENCH_DIR, "pins.json")
INPUT_POOL = range(1, 65)  # workloads.h: kInputPool
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds bvf_perf; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src: run from a full checkout" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "bvf_perf")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "bvf_perf", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "bvf_perf"), build_dir


def run_binary(binary, argv, echo=True):
    """Runs bvf_perf; returns (exit code, parsed last line or None)."""
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("bvf_perf did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def load_json(path):
    with open(path) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(workload, trace, code, result, spec, pins):
    """Returns (problems, cases lost to them) for one bvf_perf result."""
    if result is None:
        return ["bvf_perf printed no result (exit %d)" % code], 0
    problems = list(result["checks_failed"])
    if code != 0 and not problems:
        problems.append("bvf_perf exited %d" % code)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(spec, trace):
        problems.append("metric names/units differ from BENCHMARK.json: %s"
                        % sorted(set(got.items()) ^ set(expected_metrics(spec, trace).items())))
    lost = 0
    for item in result["inputs"]:
        pin = pins.get(workload, {}).get(str(item["seed"]))
        fields = {k: item[k] for k in ("digest", "bugs", "coverage")}
        if pin != fields:
            problems.append("%s input %d: got %s, pinned %s" % (workload, item["seed"], fields, pin))
            lost += item["cases"]
    return problems, lost


def report_host(result):
    host = result["host"]
    print("host: " + json.dumps(host, sort_keys=True))
    if not host["comparable"]:
        print("run.py: warning: unoptimised or sanitizer build; timings are not comparable",
              file=sys.stderr)


def run_workload(args, spec, pins):
    binary, build_dir = build()
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-out",
                 os.path.join(trace_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    code, result = run_binary(binary, argv)
    problems, lost = check(args.workload, args.trace, code, result, spec, pins)
    for problem in problems:
        print("CHECK FAILED: " + problem)
    if result is None:
        sys.exit(1)
    report_host(result)
    failed = min(result["attempted"], result["failed"] + lost)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    sys.exit(0 if correct else 1)


def self_check(spec, pins):
    """Every workload, both modes, one input each, at the smallest budget."""
    binary, _ = build()
    all_problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace), "--inputs", "1"]
            code, result = run_binary(binary, argv, echo=False)
            problems, _ = check(workload, trace, code, result, spec, pins)
            print("%-14s trace=%d  %s" % (workload, trace, "ok" if not problems else "FAILED"))
            all_problems += ["%s trace=%d: %s" % (workload, trace, p) for p in problems]
    for problem in all_problems:
        print("CHECK FAILED: " + problem)
    sys.exit(1 if all_problems else 0)


def write_pins(spec):
    """Records digest, bugs and coverage of every pool input, at --jobs 1."""
    binary, _ = build()
    pins = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        pins[workload] = {}
        for seed in INPUT_POOL:
            argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0",
                    "--inputs", str(seed), "--jobs", "1"]
            code, result = run_binary(binary, argv, echo=False)
            if code != 0 or result is None:
                fail("%s input %d failed while recording pins" % (workload, seed))
            for item in result["inputs"]:
                pins[workload][str(item["seed"])] = {
                    k: item[k] for k in ("digest", "bugs", "coverage")}
            print("%s %d %s" % (workload, seed, pins[workload][str(seed)]), flush=True)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("missing " + spec_path)
    spec = load_json(spec_path)
    if args.write_pins:
        write_pins(spec)
        return
    pins = load_json(PINS) if os.path.isfile(PINS) else {}
    if args.self_check:
        self_check(spec, pins)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("--workload must be one of " + ", ".join(w["name"] for w in spec["workloads"]))
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    run_workload(args, spec, pins)


if __name__ == "__main__":
    main()
