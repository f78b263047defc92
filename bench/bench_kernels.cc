// A13 — MLAS-style micro-kernel layer (perf_opt PR): single-thread GEMM
// GFLOP/s of the packed, register-tiled kernels::sgemm against the naive
// loops it replaced (reproduced verbatim below as the baseline), swept over
// sizes and over every ISA tier the machine supports; plus traced ResNet-18
// end-to-end run_planned speedup of the dispatched tier over the forced
// scalar fallback, a roofline-ratio before/after on the 512^3 GEMM, and
// bit-equality of every engine (Interpreter / tape / planned /
// serving) at the pinned tier; and a report-only conv row: ops::conv2d
// GFLOP/s on the ResNet-50 w16 conv shapes at batch 8 and 1 next to the
// same-sized GEMM through ops::linear. Acceptance — >=2.5x GFLOP/s over
// the old gemm_nt at 512^3 on the best tier, measurable (>=1.15x)
// end-to-end speedup, roofline ratio strictly improved, per-tier
// bit-determinism, all engines bit-equal — is enforced by the exit code;
// the conv row has no gate.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/interpreter.h"
#include "core/tracer.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet.h"
#include "passes/memory_planner.h"
#include "runtime/rng.h"
#include "runtime/thread_pool.h"
#include "serve/loadgen.h"
#include "serve/session.h"
#include "tensor/ops.h"

using namespace fxcpp;
using fx::RtValue;

namespace {

// The pre-PR y = x @ w^T + bias kernel from src/tensor/ops_linear.cc,
// reproduced verbatim (minus the outer parallel_for; this bench pins one
// thread anyway) so the before/after numbers keep meaning after the naive
// code is gone from the tree.
void naive_gemm_nt(const float* x, const float* w, const float* bias, float* y,
                   std::int64_t m, std::int64_t k, std::int64_t o) {
  constexpr std::int64_t kRowBlock = 8;
  for (std::int64_t r0 = 0; r0 < m; r0 += kRowBlock) {
    const std::int64_t rows = std::min(kRowBlock, m - r0);
    for (std::int64_t j = 0; j < o; ++j) {
      const float* wrow = w + j * k;
      const float base = bias ? bias[j] : 0.f;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* xrow = x + (r0 + r) * k;
        float acc = 0.f;
        for (std::int64_t kk = 0; kk < k; ++kk) acc += xrow[kk] * wrow[kk];
        y[(r0 + r) * o + j] = acc + base;
      }
    }
  }
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous(), bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

double gflops(std::int64_t m, std::int64_t n, std::int64_t k, double sec) {
  return sec > 0 ? 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k) / sec / 1e9
                 : 0.0;
}

// Roofline estimate with the profiler's default device model
// (profile::ProfileOptions: 5 GFLOP/s compute, 10 GB/s memory).
double roofline_est_sec(std::int64_t m, std::int64_t n, std::int64_t k) {
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  const double bytes =
      4.0 * (static_cast<double>(m) * static_cast<double>(k) +
             static_cast<double>(k) * static_cast<double>(n) +
             static_cast<double>(m) * static_cast<double>(n));
  return std::max(flops / 5e9, bytes / 10e9);
}

}  // namespace

int main() {
  rt::set_num_threads(1);  // single-thread kernel quality is the claim

  const kernels::Isa best = kernels::active_isa();

  // --- GEMM sweep: naive gemm_nt vs packed sgemm at the active tier --------
  struct SweepRow {
    std::int64_t size;
    double naive_gf, packed_gf, speedup;
  };
  std::vector<SweepRow> sweep;
  double naive512_sec = 0, packed512_sec = 0;
  bench::print_header(
      "A13: single-thread fp32 GEMM y=x@w^T (+bias), GFLOP/s, isa=" +
          std::string(kernels::isa_name(best)),
      {"size", "naive gemm_nt", "packed sgemm", "speedup"});
  for (const std::int64_t s : {128LL, 256LL, 512LL}) {
    const std::int64_t m = s, n = s, k = s;
    Tensor x = Tensor::randn({m, k}), w = Tensor::randn({n, k});
    Tensor bias = Tensor::randn({n});
    Tensor y0(Shape{m, n}, DType::Float32), y1(Shape{m, n}, DType::Float32);
    std::vector<float> pb(kernels::packed_b_f32_size(k, n));
    kernels::pack_b_f32_nt(w.data<float>(), k, k, n, pb.data());
    const int trials = s >= 512 ? 5 : 9;
    const auto r = bench::time_interleaved(
        [&] {
          naive_gemm_nt(x.data<float>(), w.data<float>(), bias.data<float>(),
                        y0.data<float>(), m, k, n);
        },
        [&] {
          kernels::sgemm(m, n, k, x.data<float>(), k, pb.data(),
                         y1.data<float>(), n, bias.data<float>(), nullptr,
                         /*relu=*/false);
        },
        trials);
    SweepRow row{s, gflops(m, n, k, r.median_a), gflops(m, n, k, r.median_b),
                 r.median_a > 0 && r.median_b > 0 ? r.median_a / r.median_b
                                                  : 0.0};
    if (s == 512) {
      naive512_sec = r.median_a;
      packed512_sec = r.median_b;
    }
    sweep.push_back(row);
    bench::print_row({std::to_string(s) + "^3", bench::fmt(row.naive_gf, 2),
                      bench::fmt(row.packed_gf, 2),
                      bench::fmt(row.speedup, 2) + "x"});
  }
  const double gemm_speedup = sweep.back().speedup;
  const bool gemm_ok = gemm_speedup >= 2.5;

  // --- roofline ratio (measured / device-model estimate) at 512^3 ----------
  const double est512 = roofline_est_sec(512, 512, 512);
  const double roofline_naive = est512 > 0 ? naive512_sec / est512 : 0;
  const double roofline_packed = est512 > 0 ? packed512_sec / est512 : 0;
  const bool roofline_ok =
      roofline_packed > 0 && roofline_packed < roofline_naive;
  std::printf(
      "\nroofline ratio at 512^3 (measured/est, lower is better): "
      "naive %.2f -> packed %.2f  %s\n",
      roofline_naive, roofline_packed,
      roofline_ok ? "IMPROVED" : "NOT IMPROVED");

  // --- per-tier GFLOP/s + bit-determinism ----------------------------------
  struct TierRow {
    std::string name;
    double gf;
    bool deterministic;
  };
  std::vector<TierRow> tiers;
  bool tiers_deterministic = true;
  {
    const std::int64_t m = 256, n = 256, k = 256;
    Tensor x = Tensor::randn({m, k}), w = Tensor::randn({n, k});
    std::vector<float> pb(kernels::packed_b_f32_size(k, n));
    kernels::pack_b_f32_nt(w.data<float>(), k, k, n, pb.data());
    Tensor ya(Shape{m, n}, DType::Float32), yb(Shape{m, n}, DType::Float32);
    bench::print_header("A13: ISA tier sweep at 256^3 (forced via dispatch)",
                        {"tier", "GFLOP/s", "run-to-run"});
    for (const kernels::Isa isa :
         {kernels::Isa::Scalar, kernels::Isa::Sse2, kernels::Isa::Avx2,
          kernels::Isa::Avx512, kernels::Isa::Neon}) {
      kernels::force_isa(isa);
      // force_isa clamps to what this CPU can run; a clamped-away tier
      // would just re-measure another row.
      if (kernels::active_isa() != isa) continue;
      auto run = [&](Tensor& y) {
        kernels::sgemm(m, n, k, x.data<float>(), k, pb.data(), y.data<float>(),
                       n, nullptr, nullptr, false);
      };
      std::vector<double> samples;
      for (int i = 0; i < 7; ++i) {
        rt::Timer timer;
        run(ya);
        samples.push_back(timer.seconds());
      }
      run(ya);
      run(yb);
      const bool det = bit_equal(ya, yb);
      tiers_deterministic = tiers_deterministic && det;
      tiers.push_back({kernels::isa_name(isa),
                       gflops(m, n, k, bench::median_of(samples)), det});
      bench::print_row({kernels::isa_name(isa),
                        bench::fmt(tiers.back().gf, 2),
                        det ? "bit-stable" : "DIFFERS"});
    }
    kernels::force_isa(std::nullopt);
  }

  // --- conv layer row: ops::conv2d vs the same GEMM through ops::linear ----
  // Report-only. The conv's GEMM is M = O, K = C*kh*kw, N = n*oh*ow; the
  // linear does the same FLOPs as x[n*oh*ow, K] @ w[O, K]^T.
  struct ConvShape {
    const char* name;
    std::int64_t c, hw, o, kernel, stride, pad;
  };
  // ResNet-50 w16 at 64x64: stem, then one of each distinct shape per stage.
  const ConvShape conv_shapes[] = {
      {"stem 7x7/2 3->16", 3, 64, 16, 7, 2, 3},
      {"l1 1x1 64->16", 64, 16, 16, 1, 1, 0},
      {"l1 3x3 16->16", 16, 16, 16, 3, 1, 1},
      {"l1 1x1 16->64", 16, 16, 64, 1, 1, 0},
      {"l2 3x3/2 32->32", 32, 16, 32, 3, 2, 1},
      {"l2 1x1 32->128", 32, 8, 128, 1, 1, 0},
      {"l2 1x1/2 64->128", 64, 16, 128, 1, 2, 0},
      {"l3 3x3 64->64", 64, 4, 64, 3, 1, 1},
      {"l3 1x1 64->256", 64, 4, 256, 1, 1, 0},
      {"l4 3x3 128->128", 128, 2, 128, 3, 1, 1},
      {"l4 1x1 128->512", 128, 2, 512, 1, 1, 0},
      {"l4 1x1 512->128", 512, 2, 128, 1, 1, 0},
  };
  struct ConvRow {
    std::string shape;
    std::int64_t batch;
    double conv_gf, linear_gf;
  };
  std::vector<ConvRow> conv_rows;
  bench::print_header(
      "A13: conv2d vs same-sized GEMM via linear, GFLOP/s, isa=" +
          std::string(kernels::isa_name(best)),
      {"shape", "batch", "conv2d", "linear", "conv/linear"});
  for (const std::int64_t n : {8LL, 1LL}) {
    for (const ConvShape& cs : conv_shapes) {
      const std::int64_t out_hw =
          (cs.hw + 2 * cs.pad - cs.kernel) / cs.stride + 1;
      const std::int64_t k = cs.c * cs.kernel * cs.kernel;
      const std::int64_t cols = n * out_hw * out_hw;
      const Tensor x = Tensor::randn({n, cs.c, cs.hw, cs.hw});
      const Tensor w = Tensor::randn({cs.o, cs.c, cs.kernel, cs.kernel});
      const Tensor b = Tensor::randn({cs.o});
      const Tensor lx = Tensor::randn({cols, k});
      const Tensor lw = w.reshape({cs.o, k});
      const auto r = bench::time_interleaved(
          [&] {
            ops::conv2d(x, w, b, {cs.stride, cs.stride}, {cs.pad, cs.pad});
          },
          [&] { ops::linear(lx, lw, b); }, 15);
      conv_rows.push_back({cs.name, n, gflops(cs.o, cols, k, r.median_a),
                           gflops(cs.o, cols, k, r.median_b)});
      const ConvRow& row = conv_rows.back();
      const double ratio =
          row.linear_gf > 0 ? row.conv_gf / row.linear_gf : 0.0;
      bench::print_row({row.shape, std::to_string(n),
                        bench::fmt(row.conv_gf, 2),
                        bench::fmt(row.linear_gf, 2), bench::fmt(ratio, 2)});
    }
  }

  // --- end-to-end: traced ResNet-18 run_planned, scalar vs dispatched ------
  auto model = nn::models::resnet18(/*width=*/16, /*num_classes=*/64);
  model->train(false);
  auto rn = fx::symbolic_trace(model);
  rn->recompile();
  const Tensor img = Tensor::randn({1, 3, 32, 32});
  const std::vector<RtValue> in{RtValue(img)};
  passes::compile_planned(*rn, {img});
  rn->run_planned(in);  // warm plan + pack/panel caches
  const auto e2e = bench::time_interleaved(
      [&] {
        kernels::force_isa(kernels::Isa::Scalar);
        rn->run_planned(in);
        kernels::force_isa(std::nullopt);
      },
      [&] { rn->run_planned(in); }, 7);
  const double e2e_speedup =
      e2e.median_b > 0 ? e2e.median_a / e2e.median_b : 0.0;
  const bool e2e_ok = e2e_speedup >= 1.15;
  bench::print_header("A13: traced ResNet-18 (w=16, 32x32) run_planned (sec)",
                      {"tier", "median", "stdev", "speedup"});
  bench::print_row({"scalar (forced)", bench::fmt(e2e.median_a),
                    bench::fmt(e2e.a.stdev), "1.00"});
  bench::print_row({std::string(kernels::isa_name(best)) + " (dispatched)",
                    bench::fmt(e2e.median_b), bench::fmt(e2e.b.stdev),
                    bench::fmt(e2e_speedup, 2) + "x"});

  // --- bit-equality across engines at the pinned (dispatched) tier ---------
  bool engines_equal = true;
  {
    const Tensor ref = fx::rt_tensor(fx::Interpreter(*rn).run(in));
    auto check = [&](const char* name, const Tensor& got) {
      const bool ok = bit_equal(ref, got);
      engines_equal = engines_equal && ok;
      std::printf("  %-24s %s\n", name, ok ? "bit-equal" : "DIFFERS");
    };
    std::printf("\nbit-equality vs Interpreter (isa=%s):\n",
                kernels::isa_name(best));
    check("tape", std::get<Tensor>(rn->compiled_graph().run(in).front()));
    check("planned", std::get<Tensor>(rn->run_planned(in).front()));
  }

  // --- serving engine bit-equality (batched session over an MLP) -----------
  bool serving_equal = true;
  {
    constexpr std::int64_t kFeat = 64;
    auto gm = fx::symbolic_trace(nn::models::mlp({kFeat, 64, 64, 64}));
    fx::PlanCacheOptions po;
    po.bucket_batch_dim = true;
    passes::compile_planned(*gm, {serve::request_input(0, 4, kFeat)}, po);
    serve::ServeOptions so;
    so.batching = true;
    serve::LoadOptions lo;
    lo.clients = 2;
    lo.requests_per_client = 20;
    lo.feature_dim = kFeat;
    lo.seed = 7;
    serve::InferenceSession session(gm, so);
    const serve::LoadReport rep = serve::run_closed_loop(session, lo);
    serving_equal = rep.failed == 0;
    for (const serve::LoadOutcome& o : rep.outcomes) {
      if (!o.response.ok) continue;
      const Tensor r = fx::rt_tensor(fx::Interpreter(*gm).run(o.input));
      serving_equal = serving_equal && bit_equal(r, o.response.output);
    }
    std::printf("  %-24s %s\n", "serving (batched)",
                serving_equal ? "bit-equal" : "DIFFERS");
  }

  const bool pass = gemm_ok && roofline_ok && e2e_ok && tiers_deterministic &&
                    engines_equal && serving_equal;
  std::printf(
      "\nacceptance (>=2.5x GEMM @512^3 [got %.2fx], roofline improved, "
      ">=1.15x e2e [got %.2fx], tiers bit-stable, engines bit-equal) : %s\n",
      gemm_speedup, e2e_speedup, pass ? "HOLDS" : "VIOLATED");

  {
    std::ofstream f("BENCH_kernels.json");
    f << "{\n"
      << "  \"isa\": \"" << kernels::isa_name(best) << "\",\n"
      << "  \"int8_vnni\": "
      << (kernels::detected_int8_vnni() ? "true" : "false") << ",\n"
      << "  \"gemm_sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      f << (i ? "," : "") << "\n    {\"size\": " << sweep[i].size
        << ", \"naive_gflops\": " << bench::fmt(sweep[i].naive_gf, 2)
        << ", \"packed_gflops\": " << bench::fmt(sweep[i].packed_gf, 2)
        << ", \"speedup\": " << bench::fmt(sweep[i].speedup, 2) << "}";
    }
    f << "\n  ],\n"
      << "  \"tiers\": [";
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      f << (i ? "," : "") << "\n    {\"tier\": \"" << tiers[i].name
        << "\", \"gflops\": " << bench::fmt(tiers[i].gf, 2)
        << ", \"deterministic\": " << (tiers[i].deterministic ? "true" : "false")
        << "}";
    }
    f << "\n  ],\n"
      << "  \"conv_vs_linear\": [";
    for (std::size_t i = 0; i < conv_rows.size(); ++i) {
      f << (i ? "," : "") << "\n    {\"shape\": \"" << conv_rows[i].shape
        << "\", \"batch\": " << conv_rows[i].batch
        << ", \"conv2d_gflops\": " << bench::fmt(conv_rows[i].conv_gf, 2)
        << ", \"linear_gflops\": " << bench::fmt(conv_rows[i].linear_gf, 2)
        << "}";
    }
    f << "\n  ],\n"
      << "  \"roofline_ratio_naive\": " << bench::fmt(roofline_naive, 3)
      << ",\n"
      << "  \"roofline_ratio_packed\": " << bench::fmt(roofline_packed, 3)
      << ",\n"
      << "  \"resnet18_scalar_sec\": " << bench::fmt(e2e.median_a, 6) << ",\n"
      << "  \"resnet18_best_sec\": " << bench::fmt(e2e.median_b, 6) << ",\n"
      << "  \"resnet18_speedup\": " << bench::fmt(e2e_speedup, 3) << ",\n"
      << "  \"gemm_speedup_512\": " << bench::fmt(gemm_speedup, 3) << ",\n"
      << "  \"tiers_deterministic\": "
      << (tiers_deterministic ? "true" : "false") << ",\n"
      << "  \"engines_bit_equal\": " << (engines_equal ? "true" : "false")
      << ",\n"
      << "  \"serving_bit_equal\": " << (serving_equal ? "true" : "false")
      << "\n}\n";
  }
  std::printf("wrote BENCH_kernels.json\n");
  return pass ? 0 : 1;
}
