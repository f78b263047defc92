// fxprof — drop-in per-node profiler CLI (the paper's Section 6.3 profiler
// use case, over both execution engines).
//
//   fxprof resnet18                          profile the traced model (tape)
//   fxprof resnet18 --engine interp --trace trace.json
//   fxprof mlp --engine all --summary summary.json
//
// Prints the aggregated text report (top-k nodes by self time with achieved
// FLOP/s and roofline ratios), optionally writes a chrome://tracing JSON
// (open in chrome://tracing or ui.perfetto.dev) and a machine-readable
// summary. Always cross-checks that the profiled output is bit-identical to
// an unprofiled run; exit code 1 if not, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet.h"
#include "profile/profiler.h"

using namespace fxcpp;
using fx::RtValue;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fxprof <mlp|resnet18|resnet50> [options]\n"
               "  --engine interp|tape|all   execution engine "
               "(default tape)\n"
               "  --runs N       profiled runs to aggregate (default 3)\n"
               "  --topk N       rows in the text report (default 15)\n"
               "  --trace FILE   write chrome://tracing JSON\n"
               "  --summary FILE write machine-readable summary JSON\n");
  return 2;
}

bool bit_equal(const RtValue& a, const RtValue& b) {
  if (!fx::rt_is_tensor(a) || !fx::rt_is_tensor(b)) return false;
  return max_abs_diff(fx::rt_tensor(a), fx::rt_tensor(b)) == 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string model_name = argv[1];
  std::string engine = "tape";
  std::string trace_path, summary_path;
  int runs = 3;
  std::size_t topk = 15;
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fxprof: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--engine") == 0) engine = next("--engine");
    else if (std::strcmp(argv[i], "--runs") == 0) runs = std::atoi(next("--runs"));
    else if (std::strcmp(argv[i], "--topk") == 0) topk = static_cast<std::size_t>(std::atoi(next("--topk")));
    else if (std::strcmp(argv[i], "--trace") == 0) trace_path = next("--trace");
    else if (std::strcmp(argv[i], "--summary") == 0) summary_path = next("--summary");
    else {
      std::fprintf(stderr, "fxprof: unknown flag '%s'\n", argv[i]);
      return usage();
    }
  }
  if (engine != "interp" && engine != "tape" && engine != "all") {
    return usage();
  }

  std::shared_ptr<nn::Module> model;
  Tensor input;
  if (model_name == "mlp") {
    model = nn::models::mlp({64, 256, 256, 10});
    input = Tensor::randn({32, 64});
  } else if (model_name == "resnet18") {
    model = nn::models::resnet18(/*width=*/16, /*num_classes=*/64);
    input = Tensor::randn({1, 3, 32, 32});
  } else if (model_name == "resnet50") {
    model = nn::models::resnet50(/*width=*/8, /*num_classes=*/64);
    input = Tensor::randn({1, 3, 32, 32});
  } else {
    std::fprintf(stderr, "fxprof: unknown model '%s'\n", model_name.c_str());
    return usage();
  }
  model->train(false);
  auto gm = fx::symbolic_trace(model);
  gm->recompile();

  // Unprofiled reference output (serial tape) for the bit-equality check.
  const std::vector<RtValue> in{RtValue(input)};
  const RtValue reference = gm->compiled_graph().run(in).front();

  profile::Profiler prof(*gm);
  bool ok = true;
  auto check = [&](const char* name, const RtValue& out) {
    const bool eq = bit_equal(reference, out);
    ok = ok && eq;
    std::printf("profiled %-8s output bit-identical to unprofiled : %s\n",
                name, eq ? "yes" : "NO");
  };
  for (int r = 0; r < runs; ++r) {
    if (engine == "interp" || engine == "all") {
      const RtValue out = prof.run_interpreter(in);
      if (r == 0) check("interp", out);
    }
    if (engine == "tape" || engine == "all") {
      const RtValue out = prof.run_tape(in).front();
      if (r == 0) check("tape", out);
    }
  }

  std::printf("\n%s", prof.text_report(topk).c_str());

  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    if (!f) {
      std::fprintf(stderr, "fxprof: cannot write '%s'\n", trace_path.c_str());
      return 2;
    }
    f << prof.chrome_trace_json();
    std::printf("\nwrote chrome trace to %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }
  if (!summary_path.empty()) {
    std::ofstream f(summary_path);
    if (!f) {
      std::fprintf(stderr, "fxprof: cannot write '%s'\n", summary_path.c_str());
      return 2;
    }
    f << prof.summary_json();
    std::printf("wrote summary to %s\n", summary_path.c_str());
  }
  return ok ? 0 : 1;
}
