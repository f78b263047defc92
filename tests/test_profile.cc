// Profiling subsystem: hook ordering on both engines, observation-only
// bit-equality, chrome-trace schema, cost-model join,
// allocator counters, and the Interpreter's last-use intermediate release.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/interpreter.h"
#include "core/op_registry.h"
#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "profile/profiler.h"
#include "tensor/ops.h"

namespace fxcpp {
namespace {

using fx::Argument;
using fx::Graph;
using fx::GraphModule;
using fx::Node;
using fx::RtValue;

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

// A diamond with enough arithmetic that every engine exercises real kernels.
std::shared_ptr<GraphModule> diamond_gm() {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* a = g->call_function("matmul", {x, x});
  Node* b = g->call_function("relu", {x});
  Node* c = g->call_function("sigmoid", {b});
  Node* j = g->call_function("add", {a, c});
  g->output(j);
  auto gm = std::make_shared<GraphModule>(nullptr, std::move(g), "Diamond");
  gm->recompile();
  return gm;
}

// --------------------------------------------------------------------------
// ExecHooks contract: strict begin/end bracketing, tracked per thread.
// --------------------------------------------------------------------------

class RecordingHooks : public fx::ExecHooks {
 public:
  void on_run_begin(std::size_t num_nodes) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++run_begins_;
    announced_nodes_ = num_nodes;
  }
  void on_node_begin(const fx::Node& n) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& open = open_[std::this_thread::get_id()];
    // Engines never nest node execution on one thread.
    EXPECT_EQ(open, nullptr) << "nested on_node_begin";
    open = &n;
    ++begins_;
  }
  void on_node_end(const fx::Node& n, const fx::RtValue& out) override {
    (void)out;
    std::lock_guard<std::mutex> lock(mu_);
    auto& open = open_[std::this_thread::get_id()];
    EXPECT_EQ(open, &n) << "on_node_end without matching begin on this thread";
    open = nullptr;
    ++ends_;
    ++per_node_[&n];
  }
  void on_run_end() override {
    std::lock_guard<std::mutex> lock(mu_);
    ++run_ends_;
    // A throwing node legitimately leaves its slot open (no on_node_end);
    // record instead of asserting so exception tests can check it too.
    for (auto& [tid, open] : open_) {
      if (open != nullptr) ++open_at_run_end_;
      open = nullptr;
    }
  }

  int run_begins() const { return run_begins_; }
  int run_ends() const { return run_ends_; }
  int begins() const { return begins_; }
  int ends() const { return ends_; }
  int open_at_run_end() const { return open_at_run_end_; }
  std::size_t announced_nodes() const { return announced_nodes_; }
  const std::map<const fx::Node*, int>& per_node() const { return per_node_; }

 private:
  mutable std::mutex mu_;
  int run_begins_ = 0, run_ends_ = 0, begins_ = 0, ends_ = 0;
  int open_at_run_end_ = 0;
  std::size_t announced_nodes_ = 0;
  std::map<std::thread::id, const fx::Node*> open_;
  std::map<const fx::Node*, int> per_node_;
};

TEST(ExecHooks, InterpreterBracketsEveryNode) {
  auto gm = diamond_gm();
  RecordingHooks rec;
  fx::Interpreter interp(*gm);
  interp.set_hooks(&rec);
  interp.run(Tensor::randn({8, 8}));
  // The Interpreter walks every node, placeholders and output included.
  const std::size_t n = gm->graph().nodes().size();
  EXPECT_EQ(rec.announced_nodes(), n);
  EXPECT_EQ(rec.run_begins(), 1);
  EXPECT_EQ(rec.run_ends(), 1);
  EXPECT_EQ(rec.begins(), static_cast<int>(n));
  EXPECT_EQ(rec.ends(), static_cast<int>(n));
  EXPECT_EQ(rec.open_at_run_end(), 0);
  for (const auto& [node, calls] : rec.per_node()) EXPECT_EQ(calls, 1);
}

TEST(ExecHooks, TapeBracketsEveryInstruction) {
  auto gm = diamond_gm();
  RecordingHooks rec;
  const std::vector<RtValue> in{RtValue(Tensor::randn({8, 8}))};
  gm->compiled_graph().run(in, &rec);
  // Tape: placeholders are register fills, so 4 instrs + output = 5 events.
  const std::size_t n = gm->compiled_graph().instrs().size();
  EXPECT_EQ(rec.announced_nodes(), n);
  EXPECT_EQ(rec.begins(), static_cast<int>(n));
  EXPECT_EQ(rec.ends(), static_cast<int>(n));
  EXPECT_EQ(rec.run_begins(), 1);
  EXPECT_EQ(rec.run_ends(), 1);
}

TEST(ExecHooks, TapeHookSeesExceptionRunsEnd) {
  // Even when a node throws, on_run_end still fires and no brackets nest.
  static bool once = [] {
    fx::OpRegistry::functions().add(
        {"fxprof_throw", {"x"}, [](const std::vector<RtValue>&) -> RtValue {
           throw std::runtime_error("fxprof_throw fired");
         }});
    return true;
  }();
  (void)once;
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* boom = g->call_function("fxprof_throw", {x});
  g->output(boom);
  GraphModule gm(nullptr, std::move(g), "Boom");
  gm.recompile();
  RecordingHooks rec;
  EXPECT_THROW(gm.compiled_graph().run({RtValue(Tensor::randn({4, 4}))}, &rec),
               std::runtime_error);
  EXPECT_EQ(rec.run_begins(), 1);
  EXPECT_EQ(rec.run_ends(), 1) << "on_run_end must fire for aborted runs";
  // The throwing node opened but never closed.
  EXPECT_EQ(rec.open_at_run_end(), 1);
  EXPECT_EQ(rec.begins(), rec.ends() + 1);
}

// --------------------------------------------------------------------------
// Profiling is observation-only: bit-identical outputs on every engine.
// --------------------------------------------------------------------------

TEST(Profiler, OutputsBitIdenticalToUnprofiledOnAllEngines) {
  auto model = nn::models::mlp({16, 32, 8});
  model->train(false);
  auto gm = fx::symbolic_trace(model);
  gm->recompile();
  const Tensor x = Tensor::randn({4, 16});
  const std::vector<RtValue> in{RtValue(x)};

  const Tensor ref =
      fx::rt_tensor(gm->compiled_graph().run(in).front());
  ASSERT_TRUE(bit_equal(ref, fx::rt_tensor(fx::Interpreter(*gm).run(in))));

  profile::Profiler prof(*gm);
  EXPECT_TRUE(bit_equal(ref, fx::rt_tensor(prof.run_interpreter(in))));
  EXPECT_TRUE(bit_equal(ref, fx::rt_tensor(prof.run_tape(in).front())));
  EXPECT_EQ(prof.runs(), 2u);
}

// --------------------------------------------------------------------------
// Aggregation, cost-model join, memory counters.
// --------------------------------------------------------------------------

TEST(Profiler, AggregatesCallsAcrossRunsAndSortsBySelfTime) {
  auto gm = diamond_gm();
  profile::Profiler prof(*gm);
  const std::vector<RtValue> in{RtValue(Tensor::randn({32, 32}))};
  for (int i = 0; i < 4; ++i) prof.run_tape(in);

  const auto profiles = prof.node_profiles();
  ASSERT_EQ(profiles.size(), gm->compiled_graph().instrs().size());
  for (const auto& p : profiles) {
    EXPECT_EQ(p.calls, 4u) << p.name;
    EXPECT_GE(p.total_seconds, 0.0);
    EXPECT_GE(p.max_seconds, 0.0);
    EXPECT_LE(p.max_seconds, p.total_seconds + 1e-12);
  }
  for (std::size_t i = 1; i < profiles.size(); ++i) {
    EXPECT_GE(profiles[i - 1].total_seconds, profiles[i].total_seconds);
  }
  EXPECT_EQ(prof.runs(), 4u);
  EXPECT_GT(prof.wall_seconds(), 0.0);
  EXPECT_GT(prof.node_seconds(), 0.0);
  EXPECT_LE(prof.node_seconds(), prof.wall_seconds() + 1e-9);
}

TEST(Profiler, CostModelJoinMeasuresFlopsFromTensorInputs) {
  // The graph is freshly built (no ShapeProp meta); the profiler's Tensor
  // inputs let it auto-run ShapeProp through the estimate_cost overload.
  auto gm = diamond_gm();
  profile::Profiler prof(*gm);
  const std::vector<RtValue> in{RtValue(Tensor::randn({32, 32}))};
  prof.run_tape(in);

  bool any_measured = false;
  double matmul_flops = 0.0;
  for (const auto& p : prof.node_profiles()) {
    if (p.measured) any_measured = true;
    if (p.target == "matmul") matmul_flops = p.flops;
    EXPECT_GE(p.achieved_flops_per_sec(), 0.0);
    EXPECT_GE(p.roofline_ratio(), 0.0);
  }
  EXPECT_TRUE(any_measured);
  // 32x32 @ 32x32 matmul: 2 * 32^3 multiply-accumulate ops.
  EXPECT_DOUBLE_EQ(matmul_flops, 2.0 * 32 * 32 * 32);
}

TEST(Profiler, MemoryCountersObserveAllocatorTraffic) {
  auto gm = diamond_gm();
  profile::Profiler prof(*gm);
  const std::vector<RtValue> in{RtValue(Tensor::randn({64, 64}))};
  prof.run_tape(in);
  const profile::MemoryStats& m = prof.memory();
  // Four value-producing instructions each allocate at least one 64x64 fp32
  // buffer (16 KB padded).
  EXPECT_GE(m.allocations, 4);
  EXPECT_GE(m.traffic, 4 * 64 * 64 * 4);
  EXPECT_GE(m.peak, m.live_before);
}

TEST(Profiler, ResetClearsAggregates) {
  auto gm = diamond_gm();
  profile::Profiler prof(*gm);
  const std::vector<RtValue> in{RtValue(Tensor::randn({8, 8}))};
  prof.run_tape(in);
  ASSERT_GT(prof.node_profiles().size(), 0u);
  prof.reset();
  EXPECT_EQ(prof.node_profiles().size(), 0u);
  EXPECT_EQ(prof.events().size(), 0u);
  EXPECT_EQ(prof.runs(), 0u);
  EXPECT_EQ(prof.wall_seconds(), 0.0);
}

// --------------------------------------------------------------------------
// Chrome-trace schema: structurally valid JSON, one complete "X" slice per
// executed node, a thread-name metadata record per lane.
// --------------------------------------------------------------------------

// Minimal structural validator: balanced {}/[] outside strings, escape-aware.
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') stack.push_back(c);
    else if (c == '}') {
      if (stack.empty() || stack.back() != '{') return false;
      stack.pop_back();
    } else if (c == ']') {
      if (stack.empty() || stack.back() != '[') return false;
      stack.pop_back();
    }
  }
  return stack.empty() && !in_str;
}

std::size_t count_occurrences(const std::string& s, const std::string& sub) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(sub); pos != std::string::npos;
       pos = s.find(sub, pos + sub.size())) {
    ++n;
  }
  return n;
}

TEST(ChromeTrace, SchemaHoldsAcrossRuns) {
  auto gm = diamond_gm();
  profile::Profiler prof(*gm);
  const std::vector<RtValue> in{RtValue(Tensor::randn({16, 16}))};
  prof.run_tape(in);
  prof.run_tape(in);

  const std::string json = prof.chrome_trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  const std::size_t instrs = gm->compiled_graph().instrs().size();
  // One complete slice per executed instruction (2 runs), one thread_name
  // metadata record per lane.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 2 * instrs);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"M\""),
            static_cast<std::size_t>(prof.num_lanes()));
  EXPECT_GE(prof.num_lanes(), 1);
  EXPECT_EQ(prof.events().size(), 2 * instrs);
  for (const auto& ev : prof.events()) {
    EXPECT_GE(ev.dur_us, 0.0);
    EXPECT_GE(ev.start_us, 0.0);
    EXPECT_GE(ev.lane, 0);
    EXPECT_LT(ev.lane, prof.num_lanes());
  }
}

TEST(ChromeTrace, EscapesHostileNodeNames) {
  // Node names flow into JSON strings; targets with quotes/backslashes in
  // attribute paths must not break the trace.
  static bool once = [] {
    fx::OpRegistry::functions().add(
        {"fxprof\"quote\\op", {"x"}, [](const std::vector<RtValue>& a) {
           return a.at(0);
         }});
    return true;
  }();
  (void)once;
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* y = g->call_function("fxprof\"quote\\op", {x});
  g->output(y);
  GraphModule gm(nullptr, std::move(g), "Hostile");
  gm.recompile();
  profile::Profiler prof(gm);
  prof.run_tape({RtValue(Tensor::randn({2, 2}))});
  const std::string json = prof.chrome_trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("fxprof\\\"quote\\\\op"), std::string::npos);
  EXPECT_TRUE(json_balanced(prof.summary_json()));
}

TEST(SummaryAndReport, ContainExpectedFieldsAndNodes) {
  auto gm = diamond_gm();
  profile::Profiler prof(*gm);
  const std::vector<RtValue> in{RtValue(Tensor::randn({16, 16}))};
  prof.run_tape(in);

  const std::string summary = prof.summary_json();
  EXPECT_TRUE(json_balanced(summary));
  for (const char* key : {"\"runs\"", "\"lanes\"", "\"wall_seconds\"",
                          "\"node_seconds\"", "\"memory\"", "\"nodes\"",
                          "\"calls\"", "\"measured\"", "\"flops\""}) {
    EXPECT_NE(summary.find(key), std::string::npos) << key;
  }

  const std::string report = prof.text_report();
  EXPECT_NE(report.find("fxprof"), std::string::npos);
  EXPECT_NE(report.find("cost model"), std::string::npos);
  EXPECT_NE(report.find("allocator"), std::string::npos);
  for (const auto& p : prof.node_profiles()) {
    EXPECT_NE(report.find(p.name), std::string::npos) << p.name;
  }
  // top_k truncation note appears when the graph is larger than top_k.
  EXPECT_NE(prof.text_report(2).find("top 2 of"), std::string::npos);
}

// --------------------------------------------------------------------------
// Interpreter lifetime fix: intermediates leave env_ at their last use, so
// a deep chain peaks at O(live set), not O(depth).
// --------------------------------------------------------------------------

TEST(InterpreterMemory, DeepChainPeaksAtLiveSetNotDepth) {
  constexpr int kDepth = 32;
  constexpr std::int64_t kBuf = 256 * 256 * 4;  // one fp32 intermediate
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* h = x;
  for (int i = 0; i < kDepth; ++i) h = g->call_function("relu", {h});
  g->output(h);
  GraphModule gm(nullptr, std::move(g), "DeepChain");
  gm.recompile();

  const Tensor in = Tensor::randn({256, 256});
  const Tensor want = fx::rt_tensor(
      gm.compiled_graph().run({RtValue(in)}).front());

  const std::int64_t live0 = Storage::live_bytes();
  Storage::reset_peak();
  fx::Interpreter interp(gm);
  const RtValue out = interp.run(in);
  const std::int64_t peak_delta = Storage::peak_bytes() - live0;

  // Before the fix env_ retained all 32 intermediates (~32 buffers); with
  // last-use release the live set is a handful regardless of depth.
  EXPECT_LT(peak_delta, 6 * kBuf)
      << "interpreter retained intermediates past their last use";
  EXPECT_TRUE(bit_equal(want, fx::rt_tensor(out)));
}

TEST(InterpreterMemory, UnusedValuesAreDroppedImmediately) {
  // A node with no users should not pin its buffer for the whole run.
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  g->call_function("matmul", {x, x});  // dead: never consumed
  Node* keep = g->call_function("relu", {x});
  g->output(keep);
  GraphModule gm(nullptr, std::move(g), "DeadValue");
  // No recompile: the tape would DCE differently; this pins Interpreter::run.
  const Tensor in = Tensor::randn({64, 64});
  fx::Interpreter interp(gm);
  const RtValue out = interp.run(in);
  EXPECT_TRUE(bit_equal(ops::relu(in), fx::rt_tensor(out)));
}

// --------------------------------------------------------------------------
// Storage allocator counters.
// --------------------------------------------------------------------------

TEST(StorageCounters, TrackLivePeakAndTraffic) {
  const std::int64_t live0 = Storage::live_bytes();
  const std::int64_t total0 = Storage::total_allocated_bytes();
  const std::int64_t count0 = Storage::allocation_count();
  Storage::reset_peak();
  {
    const Tensor a = Tensor::zeros({128, 128});  // 64 KB, already aligned
    EXPECT_EQ(Storage::live_bytes() - live0, 128 * 128 * 4);
    EXPECT_GE(Storage::peak_bytes() - live0, 128 * 128 * 4);
    {
      const Tensor b = Tensor::zeros({128, 128});
      EXPECT_EQ(Storage::live_bytes() - live0, 2 * 128 * 128 * 4);
    }
    EXPECT_EQ(Storage::live_bytes() - live0, 128 * 128 * 4)
        << "freeing a tensor must decrement live bytes";
    EXPECT_GE(Storage::peak_bytes() - live0, 2 * 128 * 128 * 4)
        << "peak keeps the high-water mark after the free";
  }
  EXPECT_EQ(Storage::live_bytes(), live0);
  EXPECT_EQ(Storage::total_allocated_bytes() - total0, 2 * 128 * 128 * 4);
  EXPECT_EQ(Storage::allocation_count() - count0, 2);
  Storage::reset_peak();
  EXPECT_EQ(Storage::peak_bytes(), Storage::live_bytes());
}

TEST(StorageCounters, SharedStorageCountsOnce) {
  const std::int64_t live0 = Storage::live_bytes();
  const Tensor a = Tensor::zeros({32, 32});
  const Tensor view = a.reshape({1024});  // shares storage
  EXPECT_EQ(Storage::live_bytes() - live0, 32 * 32 * 4);
}

}  // namespace
}  // namespace fxcpp
