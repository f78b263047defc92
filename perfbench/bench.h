// Shared declarations of the repository benchmark (see run.py for the
// command line and the metric contract).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_hooks.h"
#include "core/graph_module.h"
#include "core/plan_cache.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds on the steady clock since an arbitrary process-wide epoch.
std::int64_t now_ns();

inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // chrome://tracing files of the traced run go here
};

// What a workload run measured. End-to-end and named metrics are taken with
// tracing off; `layer` is filled by the traced run (and partly by both).
struct Report {
  std::map<std::string, double> e2e;    // BENCHMARK.json end_to_end names
  std::vector<std::pair<std::string, std::pair<double, std::string>>> named;
  std::map<std::string, double> layer;  // per-layer names, see main.cc
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;     // outputs that differ from a reference
  std::vector<std::string> errors;  // mismatches, failures, invalid phases

  void add_named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, {value, unit}});
  }
  // Adds <prefix>p10_ms<suffix>, ..p50.. and ..p90.. of `ms` to the named
  // metrics.
  void add_latency(const std::string& prefix, const std::string& suffix,
                   const std::vector<double>& ms) {
    for (const int q : {10, 50, 90}) {
      add_named(prefix + "p" + std::to_string(q) + "_ms" + suffix, percentile(ms, q / 100.0), "ms");
    }
  }
  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    errors.push_back(why);
  }
  void mismatch(std::uint64_t n, const std::string& why) {
    mismatched += n;
    fail(n, why);
  }
};

Report run_serve_mlp(const Options& opt);
Report run_resnet50_infer(const Options& opt);
Report run_compile_shapes(const Options& opt);

bool bit_equal(const fxcpp::Tensor& a, const fxcpp::Tensor& b);

// Operator families whose per-forward self time the traced run reports.
enum class OpKind : std::uint8_t {
  Conv2d, Linear, Add, Relu, Pool, Matmul, Softmax, Other, Count
};
const char* op_kind_name(OpKind k);
OpKind op_kind(const fxcpp::fx::GraphModule& gm, const fxcpp::fx::Node& n);

// Process-wide allocator and pack-cache counters (Storage, PackCache),
// snapshotted around a measured stretch of runs.
struct Counters {
  std::int64_t allocs = 0, bytes = 0, served_bytes = 0;
  std::int64_t panel_hits = 0, panel_misses = 0;
  static Counters now();
};

// Fills the tensor.storage.* and tensor.pack_cache.* layer metrics from the
// counter deltas over `runs` engine runs serving `requests` requests.
void add_counter_layers(Report& rep, const Counters& before,
                        const Counters& after, double runs, double requests);

// Fills the core.plan_cache.* layer metrics (hit rate, misses, replans,
// evictions) from two PlanCache::stats() snapshots.
void add_plan_cache_layers(Report& rep, const fxcpp::fx::PlanCacheStats& before,
                           const fxcpp::fx::PlanCacheStats& after);

// ExecHooks observer for the traced run: records every engine run and the
// node spans inside it. Attached through ServeOptions::hooks or
// GraphModule::run_planned(inputs, hooks); runs must not overlap (the
// serving session executes batches on one worker).
class RunTracer : public fxcpp::fx::ExecHooks {
 public:
  struct NodeSpan {
    OpKind kind = OpKind::Other;
    std::int64_t start = 0, end = 0;
  };
  struct Run {
    std::int64_t start = 0, end = 0;
    std::vector<NodeSpan> nodes;
  };

  explicit RunTracer(const fxcpp::fx::GraphModule& gm);

  void on_run_begin(std::size_t num_nodes) override;
  void on_node_begin(const fxcpp::fx::Node& n) override;
  void on_node_end(const fxcpp::fx::Node& n,
                   const fxcpp::fx::RtValue& out) override;
  void on_run_end() override;

  // Moves out the runs recorded so far, ordered by start.
  std::vector<Run> take_runs();

 private:
  std::unordered_map<const fxcpp::fx::Node*, OpKind> kinds_;
  Run cur_;
  std::int64_t node_start_ = 0;
  std::mutex mu_;
  std::vector<Run> runs_;
};

// Appends the spans of one traced engine run under `parent` (request or
// call span index), tagging them with `id`.
void append_run_spans(std::vector<Span>& spans, const RunTracer::Run& run,
                      int parent, std::uint64_t id);

// Fills core.engine_run_us (median run) and core.node.<op>_ms (self time
// per forward) from traced runs.
void add_run_layers(Report& rep, const std::vector<RunTracer::Run>& runs);

// Writes the first `max_calls` traced runs, each under a root span named
// `call`, as a chrome://tracing file.
void write_call_trace(const std::string& path, const char* call,
                      const std::vector<RunTracer::Run>& runs, std::size_t max_calls);

// A tensor of standard-normal values drawn from a generator seeded by `seed`.
fxcpp::Tensor seeded_input(std::uint64_t seed, fxcpp::Shape shape);

// Writes spans as chrome://tracing JSON (the "X"-event layout of
// profile::Profiler::chrome_trace_json), one lane per span id.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
