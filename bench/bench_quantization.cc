// E2 — Figure 6 / Appendix B: DeepRecommender inference runtime, fp32 vs
// fx-graph-mode int8 quantization, across batch sizes.
//
// Paper (Xeon Gold 6138 + FBGEMM): speedups 3.5x / 3.1x / 1.55x / 1.25x /
// 1.10x at batch 1 / 16 / 64 / 128 / 256 — large wins at small batch
// (weight-bandwidth-bound) shrinking as batch grows (compute-bound). The
// reproduced claim is that shape; this container's CPU sets the absolute
// numbers. Model dims are scaled (DESIGN.md). fp32 and int8 trials are
// interleaved and compared by median, so host drift hits both arms alike;
// the exit code is non-zero when the shape check is VIOLATED.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/tracer.h"
#include "nn/models/deep_recommender.h"
#include "quant/quantize.h"

using namespace fxcpp;

int main() {
  nn::models::DeepRecommenderConfig cfg;
  cfg.item_dim = 2048;
  cfg.hidden = {512, 512, 1024};
  auto model = nn::models::deep_recommender(cfg);

  // fp32 baseline: the traced GraphModule (same execution machinery).
  auto fp32 = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));

  // PTQ: prepare -> calibrate -> convert (Section 6.2.1's three phases).
  std::vector<Tensor> calibration;
  for (int i = 0; i < 4; ++i) calibration.push_back(Tensor::rand({8, cfg.item_dim}));
  auto int8 = quant::quantize_model(model, calibration);

  bench::print_header(
      "E2: DeepRecommender runtime (sec), fp32 vs int8 (paper Appendix B)",
      {"batch", "fp32 median", "fp32 stdev", "int8 median", "int8 stdev",
       "speedup", "paper speedup"});

  const double paper_speedup[] = {3.5, 3.1, 1.55, 1.25, 1.10};
  const std::int64_t batches[] = {1, 16, 64, 128, 256};
  bool shape_holds = true;
  double prev_speedup = 1e9;
  for (int bi = 0; bi < 5; ++bi) {
    const std::int64_t b = batches[bi];
    Tensor x = Tensor::rand({b, cfg.item_dim});
    const int trials = b <= 16 ? 10 : 5;
    const auto t = bench::time_interleaved([&] { fp32->run(x); },
                                           [&] { int8->run(x); }, trials);
    const double speedup = t.median_a / t.median_b;
    bench::print_row({std::to_string(b), bench::fmt(t.median_a),
                      bench::fmt(t.a.stdev), bench::fmt(t.median_b),
                      bench::fmt(t.b.stdev), bench::fmt(speedup, 2),
                      bench::fmt(paper_speedup[bi], 2)});
    if (speedup < 1.0) shape_holds = false;  // quantized must win everywhere
    // Gap should (weakly) narrow as batch grows; allow noise via margin.
    if (speedup > prev_speedup * 1.35) shape_holds = false;
    prev_speedup = speedup;
  }
  std::printf(
      "\nshape check: int8 faster at every batch, advantage shrinking with "
      "batch size : %s\n",
      shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
