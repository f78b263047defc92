// Profiler — per-node performance attribution over the fx IR, the paper's
// flagship Interpreter use case (Section 6.3's drop-in profiler) grown into
// a subsystem: one observer (core/exec_hooks.h) instruments both execution
// engines — Interpreter::run and the compiled tape — and reports
//
//   * wall time and call counts per node (self time; the IR has no nesting),
//   * achieved FLOP/s and bytes against the passes::flops cost model joined
//     through ShapeProp meta (roofline ratio vs CostReport::estimate_seconds),
//   * allocator traffic via the thread-safe counters in tensor/Storage
//     (live bytes, high-water mark, cumulative allocation volume).
//
// Three views:
//   text_report()      — aggregated top-k by self time, roofline ratios
//   chrome_trace_json()— chrome://tracing / Perfetto trace, one lane per
//                        executing thread (concurrent callers get own lanes)
//   summary_json()     — machine-readable; consumed by bench_profile and
//                        the examples/fxprof CLI
//
// Profiling is observation-only: profiled runs are bit-identical to
// unprofiled runs on every engine (pinned by tests/test_profile.cc).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/exec_hooks.h"
#include "core/graph_module.h"
#include "passes/flops.h"

namespace fxcpp::profile {

struct ProfileOptions {
  // Join passes::estimate_cost (running ShapeProp on the profiled inputs if
  // meta is missing) so the report can show achieved vs theoretical rates.
  bool with_cost_model = true;
  // Roofline device model used for the est-seconds column (defaults match
  // the modest single-core container this reproduction targets).
  double flops_per_sec = 5e9;
  double bytes_per_sec = 10e9;
  // Read tensor/Storage allocator counters around each node and run.
  bool track_memory = true;
};

// Aggregated per-node record (summed over calls and runs).
struct NodeProfile {
  const fx::Node* node = nullptr;
  std::string name;
  std::string op;      // opcode_name
  std::string target;
  std::size_t calls = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;      // slowest single call
  double out_bytes = 0.0;        // actual output bytes (last observed call)
  std::int64_t alloc_bytes = 0;  // summed allocator live delta (serial only)

  // Cost-model join; zeros with measured=false mean "unmeasured", not free.
  bool measured = false;
  double flops = 0.0;        // per call
  double bytes = 0.0;        // per call, read + written
  double est_seconds = 0.0;  // roofline estimate per call

  // Achieved compute rate: flops * calls / total_seconds (0 if unmeasured).
  double achieved_flops_per_sec() const;
  // Measured / roofline-predicted time; > 1 means slower than the device
  // model predicts (0 if unmeasured or immeasurably fast).
  double roofline_ratio() const;
};

// One completed node execution (a chrome-trace "X" slice).
struct TraceEvent {
  const fx::Node* node = nullptr;
  int lane = 0;           // per-thread lane, first-seen order; 0 = caller
  double start_us = 0.0;  // relative to the profiler's epoch
  double dur_us = 0.0;
};

struct MemoryStats {
  std::int64_t live_before = 0;  // live bytes entering the first run
  std::int64_t live_after = 0;   // live bytes after the last run
  std::int64_t peak = 0;         // high-water mark across runs
  std::int64_t traffic = 0;      // cumulative bytes allocated during runs
  std::int64_t allocations = 0;  // cumulative allocation count during runs
};

class Profiler : public fx::ExecHooks {
 public:
  explicit Profiler(fx::GraphModule& gm, ProfileOptions opts = {});

  // Profiled execution, one call per engine. Results are bit-identical to
  // the corresponding unprofiled engine. Multiple runs (and mixed engines)
  // accumulate into the same aggregate; reset() starts over.
  fx::RtValue run_interpreter(std::vector<fx::RtValue> inputs);
  std::vector<fx::RtValue> run_tape(std::vector<fx::RtValue> inputs);

  // ExecHooks implementation (thread-safe) — engines call these; attach
  // `this` to any future engine via its hooks seam to profile it too.
  void on_run_begin(std::size_t num_nodes) override;
  void on_node_begin(const fx::Node& n) override;
  void on_node_end(const fx::Node& n, const fx::RtValue& out) override;
  void on_run_end() override;

  void reset();

  // --- results ---------------------------------------------------------
  // Aggregates sorted by total self time, descending.
  std::vector<NodeProfile> node_profiles() const;
  const std::vector<TraceEvent>& events() const { return events_; }
  const MemoryStats& memory() const { return mem_; }
  std::size_t runs() const { return runs_; }
  double wall_seconds() const { return wall_seconds_; }
  // Sum of per-node self times across all runs (compare with wall_seconds
  // to see instrumentation coverage).
  double node_seconds() const;
  int num_lanes() const;

  // --- views -----------------------------------------------------------
  std::string text_report(std::size_t top_k = 20) const;
  std::string chrome_trace_json() const;
  std::string summary_json() const;

 private:
  struct OpenSlot {
    const fx::Node* node = nullptr;
    int lane = 0;
    std::chrono::steady_clock::time_point start;
    std::int64_t live_before = 0;
  };

  void ensure_cost_model(const std::vector<fx::RtValue>& inputs);
  int lane_of_locked(std::thread::id tid);
  double us_since_epoch(std::chrono::steady_clock::time_point tp) const;

  fx::GraphModule& gm_;
  ProfileOptions opts_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::unordered_map<std::thread::id, int> lanes_;
  std::unordered_map<std::thread::id, OpenSlot> open_;
  std::unordered_map<const fx::Node*, NodeProfile> agg_;
  std::vector<const fx::Node*> first_seen_;
  std::vector<TraceEvent> events_;

  // Cost-model join, built lazily on the first profiled run.
  bool cost_ready_ = false;
  std::unordered_map<const fx::Node*, passes::NodeCost> costs_;

  // Run bookkeeping (the engines' hook contract brackets runs serially).
  std::size_t runs_ = 0;
  double wall_seconds_ = 0.0;
  std::chrono::steady_clock::time_point run_start_;
  std::int64_t run_alloc_before_ = 0;
  std::int64_t run_alloc_count_before_ = 0;
  MemoryStats mem_;
};

}  // namespace fxcpp::profile
