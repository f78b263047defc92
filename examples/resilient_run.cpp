// The hardened execution runtime end to end: generate input guards from
// traced shape meta, reject and then permissively refresh an off-shape
// input, inject a fault and watch run_resilient's engine ladder recover
// bit-identically, and trace a NaN back to the node that introduced it with
// anomaly mode.
#include <cstdio>

#include "core/functional.h"
#include "core/tracer.h"
#include "passes/shape_prop.h"
#include "resilience/anomaly.h"
#include "resilience/exec_error.h"
#include "resilience/fault_injection.h"
#include "resilience/guards.h"

using namespace fxcpp;
using fx::RtValue;
using fx::Value;
namespace fn = fx::fn;

int main() {
  auto net = [](Value x) {
    Value h = fn::relu(fn::matmul(x, x));
    return fn::add(fn::tanh(h), fn::neg(h));
  };
  auto gm = fx::symbolic_trace(std::function<Value(Value)>(net));
  gm->recompile();

  // --- 1. guards: the traced shapes become a checkable contract ------------
  const Tensor example = Tensor::randn({16, 16});
  passes::shape_prop(*gm, {example});
  const std::size_t n = resilience::generate_guards(*gm);
  std::printf("installed %zu guard spec(s) from traced meta\n", n);

  const std::vector<RtValue> off_shape{RtValue(Tensor::randn({8, 8}))};
  try {
    resilience::check_inputs(*gm, off_shape, resilience::GuardMode::Strict);
  } catch (const ExecError& e) {
    std::printf("strict mode rejects : %s\n", e.what());
  }
  if (resilience::check_inputs(*gm, off_shape,
                               resilience::GuardMode::Permissive)) {
    std::printf("permissive mode re-propagated shapes and refreshed guards; "
                "new guard shape [%lld, %lld]\n",
                static_cast<long long>(gm->guards()[0].shape[0]),
                static_cast<long long>(gm->guards()[0].shape[1]));
  }

  // --- 2. fault injection + the run_resilient fallback ladder --------------
  // Make one compute node fail exactly once: the first (tape) rung absorbs
  // the fault and the interpreter rung recovers the run.
  const Tensor input = Tensor::randn({8, 8});
  fx::Node* victim = nullptr;
  for (fx::Node* node : gm->graph().nodes()) {
    if (node->op() == fx::Opcode::CallFunction) victim = node;
  }
  resilience::FaultInjector inject(victim, resilience::FaultKind::Throw,
                                   /*max_fires=*/1);
  fx::ResilientOptions opts;
  opts.hooks = &inject;
  fx::ResilientReport report;
  const Tensor recovered = gm->run_resilient(input, opts, &report);

  std::printf("\nfallback ladder (fault injected at '%s'):\n",
              victim->name().c_str());
  for (const auto& attempt : report.attempts) {
    std::printf("  %-12s %s%s\n", engine_name(attempt.engine),
                attempt.ok ? "ok" : "failed: ",
                attempt.ok ? "" : attempt.error.c_str());
  }
  const Tensor clean = gm->run(input);
  std::printf("recovered == fault-free : %s\n",
              max_abs_diff(recovered, clean) == 0.0 ? "HOLDS" : "VIOLATED");

  // --- 3. anomaly mode: NaN provenance -------------------------------------
  resilience::FaultInjector poison(victim, resilience::FaultKind::PoisonNaN);
  resilience::AnomalyDetector detect(*gm, resilience::AnomalyAction::Record);
  fx::MultiHooks hooks;
  hooks.add(&poison);
  hooks.add(&detect);
  gm->compiled_graph().run({RtValue(input)}, &hooks);
  std::printf("\n%s", detect.report().c_str());
  return 0;
}
