#!/usr/bin/env python3
"""Repository benchmark: build fxcpp from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
libraries and the benchmark binary into .bench_build/ (CMake, Release); later runs
rebuild incrementally. Each run first executes the helpers' self-test, then
the binary, whose last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. The
traced run also writes chrome://tracing files to .bench_build/traces/.

Workloads (see BENCHMARK.json for why each exists) and their gated a/b/c:
  serve_mlp       request latency serving the A11 MLP: p50 at a = 8k req/s
                  and b = 20k req/s (open loop), p90 at c = 64 outstanding
  resnet50_infer  p90 of a = planned forward at batch 8, b = TRTSim at
                  batch 8, c = planned forward at batch 1 (ResNet-50 w16)
  compile_shapes  p90 of a = trace+fuse+recompile+compile_planned of
                  ResNet-50, b = transformer call at a new shape, c = at a
                  hot shape
The binary also prints p10/p50/p90 of every path and throughputs by name.

The kernel tier is pinned to AVX2 through FXCPP_KERNEL_ISA unless the caller
sets it (the library clamps it to what the CPU supports). Exit status is
non-zero when the build, the self-test or a correctness check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("serve_mlp", "resnet50_infer", "compile_shapes")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no fxcpp sources next to the benchmark (src/CMakeLists.txt missing)")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def git_sha():
    # The benchmark may run from an export that is not a repository; never
    # let git search the directories above the checkout.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")

    if not build():
        log("build failed")
        return 1
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode != 0:
        log("self-test failed")
        return 1

    env = dict(os.environ)
    env.setdefault("FXCPP_KERNEL_ISA", "avx2")
    env["PERFBENCH_GIT_SHA"] = git_sha()
    os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", TRACES]
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        result, got = None, None
    if r.returncode not in (0, 1) or result is None:
        sys.stderr.write(r.stdout)
        log(f"perfbench exited {r.returncode} without a result")
        return 1
    want = expected_metrics(args.trace)
    if sorted(got) != sorted(want):
        sys.stderr.write(r.stdout)
        log(f"metrics {sorted(set(got) ^ set(want))} disagree with BENCHMARK.json")
        return 1
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
