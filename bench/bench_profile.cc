// A6 — profiler overhead and attribution coverage on a traced ResNet-18
// (the ISSUE's acceptance workload): per-node self times must sum to within
// 20% of the *unhooked* tape wall time (the hooks are two clock reads and a
// mutex per node, cheap next to any conv), profiled outputs must stay
// bit-identical to unprofiled ones on both engines, and the cost-model
// join must cover every costed node. Timing is interleaved (hooked/unhooked
// alternating) and summarized by medians so container drift hits both arms;
// coverage outside the 20% band is reported but only bit-equality failures
// fail the binary — wall-clock ratios on a shared machine are advisory.
#include <cstdio>
#include <fstream>

#include "bench/bench_common.h"
#include "core/tracer.h"
#include "nn/models/resnet.h"
#include "profile/profiler.h"
#include "runtime/thread_pool.h"

using namespace fxcpp;
using fx::RtValue;

int main() {
  rt::set_num_threads(1);  // serial kernels: node self times are CPU times
  auto model = nn::models::resnet18(/*width=*/16, /*num_classes=*/64);
  model->train(false);
  auto gm = fx::symbolic_trace(model);
  gm->recompile();
  const Tensor img = Tensor::randn({1, 3, 32, 32});
  const std::vector<RtValue> in{RtValue(img)};

  // --- overhead: unhooked tape vs profiled tape, interleaved ---------------
  profile::Profiler prof(*gm);
  const auto t = bench::time_interleaved(
      [&] { gm->compiled_graph().run(in); },
      [&] { prof.run_tape(in); },
      /*trials=*/9);
  const double unhooked = t.median_a;
  const double hooked = t.median_b;
  const double node_s_per_run =
      prof.runs() ? prof.node_seconds() / static_cast<double>(prof.runs()) : 0;
  const double coverage = unhooked > 0 ? node_s_per_run / unhooked : 0;
  const bool coverage_ok = coverage >= 0.8 && coverage <= 1.2;

  bench::print_header(
      "A6: traced ResNet-18 (w=16, 32x32), profiler overhead (sec)",
      {"engine", "median", "stdev", "overhead"});
  bench::print_row({"tape (unhooked)", bench::fmt(unhooked),
                    bench::fmt(t.a.stdev), "1.00"});
  bench::print_row({"tape (profiled)", bench::fmt(hooked),
                    bench::fmt(t.b.stdev),
                    bench::fmt(unhooked > 0 ? hooked / unhooked : 0, 2)});
  std::printf(
      "\nper-node self time sum      : %s s/run\n"
      "coverage vs unhooked wall   : %.1f%%  (acceptance band 80-120%%) %s\n",
      bench::fmt(node_s_per_run).c_str(), 100.0 * coverage,
      coverage_ok ? "OK" : "OUTSIDE BAND (advisory)");

  // Cost-model join coverage: nodes with shape meta that got FLOPs/bytes.
  std::size_t measured = 0, total = 0;
  for (const auto& np : prof.node_profiles()) {
    ++total;
    if (np.measured) ++measured;
  }
  std::printf("cost-model coverage         : %zu/%zu nodes measured\n",
              measured, total);
  std::printf("allocator peak during runs  : %lld bytes\n",
              static_cast<long long>(prof.memory().peak));

  // --- bit-equality across engines, profiled vs unprofiled -----------------
  const Tensor ref = std::get<Tensor>(gm->compiled_graph().run(in).front());
  profile::Profiler eq(*gm);
  const Tensor o_interp = std::get<Tensor>(eq.run_interpreter(in));
  const Tensor o_tape = std::get<Tensor>(eq.run_tape(in).front());
  const bool bit_equal = max_abs_diff(ref, o_interp) == 0.0 &&
                         max_abs_diff(ref, o_tape) == 0.0;
  std::printf("profiled == unprofiled (interp/tape) : %s\n",
              bit_equal ? "HOLDS" : "VIOLATED");

  {
    std::ofstream f("BENCH_profile.json");
    f << "{\n  \"workload\": \"resnet18_w16_32x32\",\n  \"nodes\": " << total
      << ",\n  \"unhooked_median_s\": " << unhooked
      << ",\n  \"profiled_median_s\": " << hooked
      << ",\n  \"overhead_x\": " << (unhooked > 0 ? hooked / unhooked : 0)
      << ",\n  \"node_seconds_per_run_s\": " << node_s_per_run
      << ",\n  \"coverage_vs_unhooked\": " << coverage
      << ",\n  \"coverage_in_band\": " << (coverage_ok ? "true" : "false")
      << ",\n  \"cost_model_measured_nodes\": " << measured
      << ",\n  \"allocator_peak_bytes\": " << prof.memory().peak
      << ",\n  \"bit_equal\": " << (bit_equal ? "true" : "false") << "\n}\n";
  }
  std::printf("wrote BENCH_profile.json\n");
  return bit_equal ? 0 : 1;
}
