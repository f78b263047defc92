// A7 — hardened-runtime overhead on a traced ResNet-18 (the acceptance
// workload): a fully guarded + anomaly-scanned tape run vs the bare tape.
// The guard check is O(placeholders) string/shape compares per run; the
// anomaly observer re-reads every node output once (O(total activation
// elements)), which is the dominant term and must stay within the 5%
// acceptance band against the conv-heavy kernels. run_resilient's happy
// path (guards + the tape rung succeeding) is timed as a third arm.
// Timing is interleaved and summarized by medians; only bit-equality
// failures fail the binary — wall-clock ratios on a shared machine are
// advisory, matching A6.
#include <cstdio>
#include <fstream>

#include "bench/bench_common.h"
#include "core/tracer.h"
#include "nn/models/resnet.h"
#include "passes/shape_prop.h"
#include "resilience/anomaly.h"
#include "resilience/guards.h"
#include "runtime/thread_pool.h"

using namespace fxcpp;
using fx::RtValue;

int main() {
  rt::set_num_threads(1);
  auto model = nn::models::resnet18(/*width=*/16, /*num_classes=*/64);
  model->train(false);
  auto gm = fx::symbolic_trace(model);
  gm->recompile();
  const Tensor img = Tensor::randn({1, 3, 32, 32});
  const std::vector<RtValue> in{RtValue(img)};

  // Install guards from the traced shapes.
  passes::shape_prop(*gm, {img});
  const std::size_t n_guards = resilience::generate_guards(*gm);

  // --- overhead: bare tape vs guarded + anomaly-scanned tape ---------------
  resilience::AnomalyDetector det(*gm, resilience::AnomalyAction::Record);
  const auto t = bench::time_interleaved(
      [&] { gm->compiled_graph().run(in); },
      [&] {
        fx::check_guards_strict(*gm, in);
        gm->compiled_graph().run(in, &det);
      },
      /*trials=*/9);
  const double bare = t.median_a;
  const double hardened = t.median_b;
  const double overhead = bare > 0 ? hardened / bare : 0;
  const bool overhead_ok = overhead <= 1.05;

  // --- run_resilient happy path (guards + tape rung) -----------------------
  const fx::ResilientOptions ropts;
  double resilient_s = 0;
  {
    const auto rt_timed = bench::time_interleaved(
        [&] { gm->compiled_graph().run(in); },
        [&] { gm->run_resilient(in, ropts); },
        /*trials=*/5);
    resilient_s = rt_timed.median_b;
  }

  bench::print_header(
      "A7: traced ResNet-18 (w=16, 32x32), hardened-runtime overhead (sec)",
      {"configuration", "median", "stdev", "overhead"});
  bench::print_row({"tape (bare)", bench::fmt(bare), bench::fmt(t.a.stdev),
                    "1.00"});
  bench::print_row({"tape (guards+anomaly)", bench::fmt(hardened),
                    bench::fmt(t.b.stdev), bench::fmt(overhead, 3)});
  bench::print_row({"run_resilient (happy)", bench::fmt(resilient_s), "-",
                    bench::fmt(bare > 0 ? resilient_s / bare : 0, 3)});
  std::printf(
      "\nguard specs installed       : %zu placeholders\n"
      "anomaly findings (clean run): %zu\n"
      "guard+anomaly overhead      : %.1f%%  (acceptance band <= 5%%) %s\n",
      n_guards, det.findings().size(), 100.0 * (overhead - 1.0),
      overhead_ok ? "OK" : "OUTSIDE BAND (advisory)");

  // --- bit-equality: hardened and resilient outputs match the bare tape ----
  const Tensor ref = std::get<Tensor>(gm->compiled_graph().run(in).front());
  resilience::AnomalyDetector det2(*gm, resilience::AnomalyAction::Record);
  const Tensor o_hard =
      std::get<Tensor>(gm->compiled_graph().run(in, &det2).front());
  const Tensor o_res = std::get<Tensor>(gm->run_resilient(in, ropts).front());
  const bool bit_equal =
      max_abs_diff(ref, o_hard) == 0.0 && max_abs_diff(ref, o_res) == 0.0;
  std::printf("hardened == bare (tape/run_resilient) : %s\n",
              bit_equal ? "HOLDS" : "VIOLATED");

  {
    std::ofstream f("BENCH_resilience.json");
    f << "{\n  \"workload\": \"resnet18_w16_32x32\",\n  \"guard_specs\": "
      << n_guards << ",\n  \"bare_median_s\": " << bare
      << ",\n  \"hardened_median_s\": " << hardened
      << ",\n  \"overhead_x\": " << overhead
      << ",\n  \"overhead_in_band\": " << (overhead_ok ? "true" : "false")
      << ",\n  \"run_resilient_median_s\": " << resilient_s
      << ",\n  \"anomaly_findings_clean\": " << det.findings().size()
      << ",\n  \"bit_equal\": " << (bit_equal ? "true" : "false") << "\n}\n";
  }
  std::printf("wrote BENCH_resilience.json\n");
  return bit_equal ? 0 : 1;
}
