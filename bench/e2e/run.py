#!/usr/bin/env python3
"""Benchmark entry point named in BENCHMARK.json.

Builds bench_e2e from this checkout (bench/e2e/CMakeLists.txt, Release,
into $CARGO_TARGET_DIR or .bench_build at the checkout root), runs one
workload, and prints one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

--trace 0 runs fresh-process trials for about T seconds and reports the
end-to-end metrics as medians over those trials (setup_s over every cold
setup: each trial's and its setup-only processes'). --trace 1 runs one traced
trial and reports the per-layer metrics. `correct` is true when every trial
reproduced the pinned outputs for the seed (or, for a seed with none pinned,
agreed with the other trials). bench_e2e's own report goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}"]
    if args.trace:
        report_path = os.path.join(out_dir, f"trace-{args.workload}",
                                   "layers.json")
        cmd.append(f"--trace={os.path.dirname(report_path)}")
    else:
        report_path = os.path.join(out_dir, f"{args.workload}.json")
        cmd += [f"--seconds={args.seconds}", f"--json={report_path}"]
    if os.path.exists(report_path):
        os.remove(report_path)
    # Exit 1 (a trial failed) and 3 (trace reconciliation failed) still
    # leave a report to read; anything else did not finish.
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    if code not in (0, 1, 3) or not os.path.exists(report_path):
        fail(f"bench_e2e exited with status {code}")
    with open(report_path) as f:
        entry = json.load(f)["workloads"][args.workload]

    # Report exactly what BENCHMARK.json lists: end-to-end metrics as trial
    # medians, per-layer metrics from the traced trial (whose layers.json
    # also holds the layers only some workloads have).
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)
    if args.trace:
        attempted, failed = 1, 0 if entry["ok"] else 1
        source = entry.get("metrics", {})
        wanted = [m["name"] for m in listed["per_layer"]]
        value = lambda m: m["value"]
    else:
        attempted, failed = entry["trials"], entry["failed_trials"]
        source = entry["metrics"]
        wanted = [m["name"] for m in listed["end_to_end"]]
        value = lambda m: m["median"]
    if failed == attempted:
        fail("every trial failed")
    metrics = {}
    for name in wanted:
        if name not in source:
            fail(f"metric {name} missing from {report_path}")
        metrics[name] = {"value": value(source[name]),
                         "unit": source[name]["unit"]}
    # bench_e2e flags unstable workloads with its own copy of each bound;
    # it must be the bound BENCHMARK.json gives the metric.
    for m in listed["end_to_end"] if not args.trace else []:
        if source[m["name"]]["bound"] != m["bound"]:
            fail(f"bound of {m['name']} differs between BENCHMARK.json "
                 f"({m['bound']}) and bench_e2e "
                 f"({source[m['name']]['bound']})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
