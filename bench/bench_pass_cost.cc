// A2 — ablation: cost of capture and the transform library on a real
// topology (ResNet-50). Supports the paper's "high developer productivity"
// claim quantitatively: whole-model capture and each pass run in
// milliseconds, so the interactive workflow the paper describes is cheap.
#include <benchmark/benchmark.h>

#include "core/tracer.h"
#include "jit/script.h"
#include "jit/trace.h"
#include "nn/models/resnet.h"
#include "passes/cleanup.h"
#include "passes/flops.h"
#include "passes/fuse_conv_bn.h"
#include "passes/memory_planner.h"
#include "passes/shape_prop.h"
#include "passes/symbolic_shapes.h"

using namespace fxcpp;

namespace {

void BM_SymbolicTraceResNet50(benchmark::State& state) {
  auto model = nn::models::resnet50(8, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx::symbolic_trace(model));
  }
}
BENCHMARK(BM_SymbolicTraceResNet50);

void BM_ShapePropResNet50(benchmark::State& state) {
  auto gm = fx::symbolic_trace(nn::models::resnet50(8, 10));
  Tensor x = Tensor::randn({1, 3, 32, 32});
  for (auto _ : state) {
    passes::shape_prop(*gm, {x});
  }
}
BENCHMARK(BM_ShapePropResNet50);

// The same meta as BM_ShapePropResNet50, from the transfer rules alone.
void BM_InferMetaResNet50(benchmark::State& state) {
  auto gm = fx::symbolic_trace(nn::models::resnet50(8, 10));
  Tensor x = Tensor::randn({1, 3, 32, 32});
  for (auto _ : state) {
    passes::infer_meta(*gm, {x});
  }
}
BENCHMARK(BM_InferMetaResNet50);

// Planned-mode setup: infer_meta + plan_tape + plan cache.
void BM_CompilePlannedResNet50(benchmark::State& state) {
  auto gm = fx::symbolic_trace(nn::models::resnet50(8, 10));
  gm->recompile();
  Tensor x = Tensor::randn({1, 3, 32, 32});
  for (auto _ : state) {
    benchmark::DoNotOptimize(&passes::compile_planned(*gm, {x}));
  }
}
BENCHMARK(BM_CompilePlannedResNet50);

void BM_FlopsEstimate(benchmark::State& state) {
  auto gm = fx::symbolic_trace(nn::models::resnet50(8, 10));
  passes::shape_prop(*gm, {Tensor::randn({1, 3, 32, 32})});
  for (auto _ : state) {
    benchmark::DoNotOptimize(passes::estimate_cost(*gm));
  }
}
BENCHMARK(BM_FlopsEstimate);

void BM_FuseConvBn(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto gm = fx::symbolic_trace(nn::models::resnet50(8, 10));
    state.ResumeTiming();
    benchmark::DoNotOptimize(passes::fuse_conv_bn(*gm));
  }
}
BENCHMARK(BM_FuseConvBn);

void BM_DceCse(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto gm = fx::symbolic_trace(nn::models::resnet50(8, 10));
    state.ResumeTiming();
    passes::dead_code_elimination(*gm);
    benchmark::DoNotOptimize(passes::common_subexpression_elimination(*gm));
  }
}
BENCHMARK(BM_DceCse);

void BM_JitScriptEmission(benchmark::State& state) {
  auto model = nn::models::resnet50(8, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jit::script(*model));
  }
}
BENCHMARK(BM_JitScriptEmission);

void BM_JitTraceExpansion(benchmark::State& state) {
  auto gm = fx::symbolic_trace(nn::models::resnet50(8, 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(jit::trace(*gm));
  }
}
BENCHMARK(BM_JitTraceExpansion);

}  // namespace

BENCHMARK_MAIN();
