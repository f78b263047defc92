#!/usr/bin/env bash
# Tier-1 verification, three ways: a normal Release build+ctest, the same
# suite under AddressSanitizer+UBSan (FXCPP_SANITIZE=ON), and the
# concurrency suite (task groups, thread pool, profiler hooks, hardened
# runtime, plan cache, inference serving, TRTSim engines) under
# ThreadSanitizer (FXCPP_SANITIZE=thread).
# The ASan step covers the fault-injection differential fuzz (every fault
# kind at every node must leak nothing and double-free nothing) and the
# memory-planner fuzz (arena reuse / in-place aliasing must never read or
# write out of a live slot's bounds); the TSan step covers concurrent
# planned runs over one shared module and the per-thread pack cache. Each sanitizer gets
# its own build tree. The normal and ASan steps also smoke the fxprof CLI on
# a traced ResNet-18 (trace + summary must be written and the profiled
# output must bit-match the unprofiled run — fxprof exits nonzero if not).
# The normal step also builds the repository benchmark (perfbench/) and runs
# each of its workloads once. Fails on the first red step.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"

fxprof_smoke() {
  local build="$1"
  local out
  out="$(mktemp -d)"
  "$build/examples/fxprof" resnet18 --engine all --runs 1 \
    --trace "$out/trace.json" --summary "$out/summary.json"
  test -s "$out/trace.json"
  test -s "$out/summary.json"
  grep -q '"traceEvents"' "$out/trace.json"
  grep -q '"node_seconds"' "$out/summary.json"
  rm -rf "$out"
}

echo "== [1/3] normal build + ctest (build/) =="
cmake -B "$repo/build" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"
echo "-- fxprof smoke (build/) --"
fxprof_smoke "$repo/build"
# Paper shape checks as gates: E3 (Conv-BN fusion, incl. the TRTSim
# simulated-accelerator row) and E4 (TRTSim lowering vs eager) compare
# interleaved-trial medians and exit non-zero when a check is VIOLATED.
echo "-- E3/E4 shape checks (build/) --"
"$repo/build/bench/bench_fusion"
"$repo/build/bench/bench_tensorrt"
# E1 (fx < jit.trace < jit.script IR sizes, Figure 5), E2 (int8 beats fp32
# at every batch with a shrinking advantage, Figure 6) and A10 (plan-cache
# hit rate, hit-path overhead, bit-equality) exit non-zero on VIOLATED too.
# Run from the build tree so A10's BENCH_plan_cache.json lands there.
echo "-- E1/E2/A10 gates (build/) --"
(cd "$repo/build" && ./bench/bench_ir_complexity &&
  ./bench/bench_quantization && ./bench/bench_plan_cache)
# The repository benchmark (perfbench/) compiles against the planner and
# plan-cache APIs: build it from this tree, run its self-test, then each
# workload once. A build break or a wrong output exits non-zero.
echo "-- perfbench build + smoke (build/perfbench) --"
cmake -S "$repo/perfbench" -B "$repo/build/perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "$repo/build/perfbench" -j "$jobs"
"$repo/build/perfbench/perfbench_selftest"
for workload in serve_mlp resnet50_infer compile_shapes; do
  "$repo/build/perfbench/perfbench" --workload "$workload" --seed 1 \
    --seconds 2 --trace 0
done

# clang-tidy (bugprone / performance / concurrency, config in .clang-tidy)
# over the analysis + passes layers. Gated: the CI container does not ship
# clang-tidy; run it locally when available.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "-- clang-tidy (src/analysis src/passes src/serve src/resilience src/kernels src/core/plan_cache) --"
  { find "$repo/src/analysis" "$repo/src/passes" "$repo/src/serve" \
      "$repo/src/resilience" "$repo/src/kernels" -name '*.cc' -print0
    printf '%s\0' "$repo/src/core/plan_cache.cc"; } |
    xargs -0 -n 4 -P "$jobs" clang-tidy -p "$repo/build" --quiet
else
  echo "-- clang-tidy not installed; skipping static-analysis lint --"
fi

# Scalar-fallback regression: the full suite with the kernel dispatch pinned
# to the portable tier (the env knob every SIMD bug report starts from).
echo "-- ctest with FXCPP_KERNEL_ISA=scalar (build/) --"
FXCPP_KERNEL_ISA=scalar ctest --test-dir "$repo/build" \
  --output-on-failure -j "$jobs" -L kernels

echo "== [2/3] sanitized build + ctest (build-asan/) =="
cmake -B "$repo/build-asan" -S "$repo" -DFXCPP_SANITIZE=ON
cmake --build "$repo/build-asan" -j "$jobs"
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"
echo "-- fxprof smoke (build-asan/) --"
fxprof_smoke "$repo/build-asan"

echo "== [3/3] TSan build + concurrency suite (build-tsan/) =="
cmake -B "$repo/build-tsan" -S "$repo" -DFXCPP_SANITIZE=thread
cmake --build "$repo/build-tsan" -j "$jobs" \
  --target test_runtime --target test_profile --target test_resilience \
  --target test_memory_plan --target test_dataflow --target test_constant_fold \
  --target test_plan_cache --target test_serving --target test_resilience_serve \
  --target test_kernels --target test_trt
# test_runtime includes the repeated short parallel_for calls at 4 threads
# that catch a worker touching the caller's completion mutex after return,
# and the task-group and thread-pool shutdown contracts.
"$repo/build-tsan/tests/test_runtime"
"$repo/build-tsan/tests/test_profile"
# Hardened runtime under TSan: the differential fault fuzz drives the hook
# seam through both engines.
"$repo/build-tsan/tests/test_resilience"
# Planner + pack cache under TSan: the pack-cache concurrency test packs one
# shared weight from many threads at once.
"$repo/build-tsan/tests/test_memory_plan"
# Dataflow analyses and the folded-graph fuzz under TSan: both run the
# intra-op kernel pool underneath the engines.
"$repo/build-tsan/tests/test_dataflow"
"$repo/build-tsan/tests/test_constant_fold"
# Multi-plan cache under TSan: mixed-shape planned runs race LRU eviction,
# capacity churn, and clear() on the shared cache, and concurrent misses at
# two shapes race a guard-checked run at the compile shape.
"$repo/build-tsan/tests/test_plan_cache"
# Serving layer under TSan: the batcher thread races client submitters,
# cancellation flags, and the watchdog's mid-run deadline/cancel sweeps;
# the fuzz test runs two
# sessions sharing one GraphModule's weights and plan cache.
"$repo/build-tsan/tests/test_serving"
# Resilience-in-serving under TSan: circuit-breaker trips, half-open probes,
# retry rescues, and health rung changes all race client submitters and a
# mid-flight shutdown.
"$repo/build-tsan/tests/test_resilience_serve"
# Micro-kernel layer under TSan: sgemm/qgemm drivers share thread-local
# pack workspaces across intra-op workers; the differential fuzz forces
# every ISA tier while rt worker threads execute strips concurrently.
# Run twice: dispatched tier, then the forced scalar fallback.
"$repo/build-tsan/tests/test_kernels"
FXCPP_KERNEL_ISA=scalar "$repo/build-tsan/tests/test_kernels"
# TRTSim under TSan: engines run on the shared planned tape, so concurrent
# Engine::run calls must each lease their own arena.
"$repo/build-tsan/tests/test_trt"

echo "== check.sh: all suites green =="
