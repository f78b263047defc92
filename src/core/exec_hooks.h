// ExecHooks — the per-node begin/end instrumentation seam shared by both
// execution engines (Interpreter::run and the compiled tape's
// CompiledGraph::run).
//
// The paper's flagship Interpreter use case (Section 6.3) is a drop-in
// profiler that attributes wall time to individual graph nodes; in this
// reproduction the same seam also instruments the compiled tape (planned
// and unplanned), so one observer covers every engine. profile::Profiler is
// the canonical implementation; future schedulers / lowering passes attach
// their own observers here instead of patching each engine.
//
// Contract:
//   * on_run_begin / on_run_end bracket one full graph execution.
//   * on_node_begin / on_node_end bracket one node (Interpreter) or one
//     tape instruction (placeholders are register fills there, not
//     instructions, so they produce no events).
//   * `out` in on_node_end is the node's result, observed before it is
//     moved into the environment/register file. Hooks must not mutate it.
//   * on_node_output is the one *mutation* point: it fires after the node
//     computes and before on_node_end / before the value enters the
//     environment, and the hook may replace `out` (the resilience
//     FaultInjector uses this for NaN/Inf poisoning). The default is a
//     no-op, so plain observers keep the bit-identical guarantee.
//   * One hook object may observe concurrent runs (serving sessions that
//     share a module, callers running run_planned from several threads), so
//     implementations must be thread-safe. Observing hooks leave engines
//     bit-identical with or without them.
//   * A node that throws produces no on_node_output/on_node_end, but
//     on_run_end still fires before the exception propagates out of the
//     engine, so run-level bookkeeping always closes. A hook that throws
//     from on_node_begin/on_node_output/on_node_end is treated as that
//     node failing (the engines wrap it with the node's provenance).
#pragma once

#include <cstddef>
#include <vector>

#include "core/node.h"
#include "core/rt_value.h"

namespace fxcpp::fx {

class ExecHooks {
 public:
  virtual ~ExecHooks() = default;

  virtual void on_run_begin(std::size_t num_nodes) { (void)num_nodes; }
  virtual void on_node_begin(const Node& n) { (void)n; }
  // May mutate `out` in place (fault injection); fires before on_node_end.
  virtual void on_node_output(const Node& n, RtValue& out) {
    (void)n;
    (void)out;
  }
  virtual void on_node_end(const Node& n, const RtValue& out) {
    (void)n;
    (void)out;
  }
  virtual void on_run_end() {}
};

// Fans every event out to a list of hooks in order, so a fault injector and
// an anomaly detector (or a profiler) can observe the same run. Does not own
// the hooks; callers keep them alive for the run. Null entries are skipped.
class MultiHooks : public ExecHooks {
 public:
  MultiHooks() = default;
  explicit MultiHooks(std::vector<ExecHooks*> hooks)
      : hooks_(std::move(hooks)) {}

  void add(ExecHooks* h) { hooks_.push_back(h); }

  void on_run_begin(std::size_t num_nodes) override {
    for (auto* h : hooks_)
      if (h) h->on_run_begin(num_nodes);
  }
  void on_node_begin(const Node& n) override {
    for (auto* h : hooks_)
      if (h) h->on_node_begin(n);
  }
  void on_node_output(const Node& n, RtValue& out) override {
    for (auto* h : hooks_)
      if (h) h->on_node_output(n, out);
  }
  void on_node_end(const Node& n, const RtValue& out) override {
    for (auto* h : hooks_)
      if (h) h->on_node_end(n, out);
  }
  void on_run_end() override {
    for (auto* h : hooks_)
      if (h) h->on_run_end();
  }

 private:
  std::vector<ExecHooks*> hooks_;
};

}  // namespace fxcpp::fx
