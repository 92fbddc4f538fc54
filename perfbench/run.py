#!/usr/bin/env python3
"""Build and run the apuzc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The first call configures and builds perfbench/ (and with it the apuzc
library) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only bring that build up to date. Build output goes to standard
error. --trace 0 runs the untraced binary and prints the end-to-end metrics;
--trace 1 runs the traced binary, prints the per-layer metrics and writes
the first traced pass's spans as a Chrome trace next to the build. The last
line of standard output is one JSON object.

--workload all runs every workload untraced and traced and prints, per
workload, the tracing overhead: the traced run's median traced pass host_s
minus its median untraced pass host_s (passes alternate within the run).
Extra flags (--plant <factor>) pass through to the benchmark binary.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["qmcpack_copy", "qmcpack_zerocopy", "specaccel", "service",
             "service_copy"]


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build both benchmark binaries; False on failure."""
    out = build_dir()
    steps = []
    generated = [os.path.join(out, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", "perfbench", "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_binary(workload, seed, seconds, trace, extra):
    """Run one workload; returns (exit code, parsed last JSON line or None)."""
    name = "apuzc_perfbench_traced" if trace else "apuzc_perfbench"
    cmd = [os.path.join(build_dir(), name), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--chrome",
                os.path.join(build_dir(), "trace-%s.json" % workload)]
    proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def run_all(seed, seconds, extra):
    """Every workload, untraced then traced; one merged JSON result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_binary(workload, seed, seconds, trace, extra)
            if code != 0 or result is None:
                return code or 1
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"]["%s/%s" % (workload, name)] = metric
            if trace:
                overhead[workload] = result["metrics"]["trace.overhead_s"][
                    "value"]
    print("tracing overhead (traced host_s - untraced host_s):")
    for workload, seconds_over in overhead.items():
        print("  %-18s %.4f s" % (workload, seconds_over))
    print(json.dumps(merged))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds, extra)
    code, _ = run_binary(args.workload, args.seed, args.seconds,
                         args.trace == 1, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
