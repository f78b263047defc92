// compile_shapes: the paper's capture-and-transform cost and the plan
// cache's write path.
//
// Phase (a) times a fresh capture and transform of ResNet-50 (width 16):
// symbolic_trace -> fuse_conv_bn -> fuse_linear_relu -> recompile ->
// compile_planned. Phase (b) drives a transformer encoder layer (dim 128,
// ffn 512) through run_planned with an exact-keyed plan cache of capacity
// 8: calls alternate between 4 hot sequence lengths and a cycle through
// every other length in [48, 80], which LRU always evicts, so the miss path
// (ShapeProp -> plan_tape -> insert/evict) runs beside the hit path. A
// change that speeds lookups by making inserts dearer shows here and not
// in serve_mlp.
#include <algorithm>

#include "bench.h"
#include "core/interpreter.h"
#include "core/plan_cache.h"
#include "core/tracer.h"
#include "nn/models/resnet.h"
#include "nn/models/transformer.h"
#include "passes/fuse_conv_bn.h"
#include "passes/fuse_linear_relu.h"
#include "passes/memory_planner.h"
#include "passes/shape_prop.h"
#include "runtime/thread_pool.h"

namespace perfbench {

using namespace fxcpp;

namespace {

constexpr int kIntraOpThreads = 1;
constexpr int kSetupReps = 15;
constexpr std::int64_t kDim = 128, kFfn = 512;
constexpr std::int64_t kHot[] = {40, 56, 72, 88};
constexpr std::int64_t kTailLo = 48, kTailHi = 80;
constexpr double kCompileShare = 0.4;  // of the run's seconds, phase (a)

struct Step {
  double trace = 0, fuse_cb = 0, fuse_lr = 0, recompile = 0, compile = 0;
  std::size_t nodes_traced = 0, nodes_after = 0;
  double total() const { return trace + fuse_cb + fuse_lr + recompile + compile; }
};

// One fresh capture and transform; model construction is not timed.
Step capture_and_transform(const Tensor& x) {
  Step s;
  auto model = nn::models::resnet50(16, 1000);
  std::int64_t t = now_ns();
  auto gm = fx::symbolic_trace(model);
  s.trace = ms_between(t, now_ns());
  s.nodes_traced = gm->graph().nodes().size();
  t = now_ns();
  passes::fuse_conv_bn(*gm);
  s.fuse_cb = ms_between(t, now_ns());
  t = now_ns();
  passes::fuse_linear_relu(*gm);
  s.fuse_lr = ms_between(t, now_ns());
  t = now_ns();
  gm->recompile();
  s.recompile = ms_between(t, now_ns());
  t = now_ns();
  passes::compile_planned(*gm, {x});
  s.compile = ms_between(t, now_ns());
  s.nodes_after = gm->graph().nodes().size();
  return s;
}

}  // namespace

Report run_compile_shapes(const Options& opt) {
  Report rep;
  rt::set_num_threads(kIntraOpThreads);

  // Sequence lengths and their seeded inputs; the seed also fixes the
  // order in which the hot and tail lengths are visited.
  rt::Rng order(opt.seed * 6364136223846793005ull + 1442695040888963407ull);
  std::vector<std::int64_t> hot(std::begin(kHot), std::end(kHot)), tail;
  for (std::int64_t l = kTailLo; l <= kTailHi; ++l) {
    if (std::find(hot.begin(), hot.end(), l) == hot.end()) tail.push_back(l);
  }
  auto shuffle = [&](std::vector<std::int64_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(order.randint(0, static_cast<std::int64_t>(i) - 1))]);
    }
  };
  shuffle(hot);
  shuffle(tail);
  std::map<std::int64_t, Tensor> x;
  for (std::int64_t l : hot) x[l] = seeded_input(opt.seed * 131 + static_cast<std::uint64_t>(l), {l, kDim});
  for (std::int64_t l : tail) x[l] = seeded_input(opt.seed * 131 + static_cast<std::uint64_t>(l), {l, kDim});

  // Set-up: transformer construction until every hot length is planned
  // and has run once.
  std::vector<double> setup_s;
  std::shared_ptr<fx::GraphModule> gm;
  std::size_t arena_bytes = 0;
  int planned_instrs = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::int64_t t = now_ns();
    gm = fx::symbolic_trace(nn::models::transformer_encoder_layer(kDim, kFfn));
    fx::PlanCacheOptions po;
    po.capacity = 8;
    const fx::TapePlan& plan = passes::compile_planned(*gm, {x[hot[0]]}, po);
    arena_bytes = plan.arena_bytes;
    planned_instrs = plan.planned_count;
    for (std::int64_t l : hot) gm->run_planned(x[l]);
    setup_s.push_back(ms_between(t, now_ns()) * 1e-3);
  }
  std::map<std::int64_t, Tensor> ref;
  for (const auto& [l, xi] : x) ref[l] = fx::rt_tensor(fx::Interpreter(*gm).run(xi));

  // ---- phase (a): capture and transform --------------------------------
  const Tensor img = seeded_input(opt.seed * 29, {8, 3, 64, 64});
  capture_and_transform(img);  // warm-up
  std::vector<Step> steps;
  const std::int64_t a_stop = now_ns() + static_cast<std::int64_t>(kCompileShare * opt.seconds * 1e9);
  while (now_ns() < a_stop || steps.size() < 5) steps.push_back(capture_and_transform(img));

  // ---- phase (b): hot and new shapes -----------------------------------
  RunTracer tracer(*gm);
  fx::PlanCache& cache = *gm->plan_cache();
  std::vector<double> hot_ms, new_ms, hot_traced_ms;
  std::uint64_t mismatched = 0, calls = 0;
  std::size_t hi = 0, ti = 0;
  auto call = [&](std::int64_t len, bool traced) {
    const std::uint64_t m0 = cache.stats().misses;
    const std::int64_t t = now_ns();
    Tensor y = fx::rt_tensor(gm->run_planned({x[len]}, traced ? &tracer : nullptr).at(0));
    const double ms = ms_between(t, now_ns());
    ++calls;
    if (!bit_equal(y, ref[len])) ++mismatched;
    return std::make_pair(ms, cache.stats().misses > m0);
  };
  for (int w = 0; w < 2 * static_cast<int>(tail.size()); ++w) {  // warm-up
    call(w % 2 ? tail[ti++ % tail.size()] : hot[hi++ % hot.size()], false);
  }
  const auto cache0 = cache.stats();
  const std::uint64_t calls0 = calls;
  const std::int64_t b_start = now_ns();
  const std::int64_t b_stop = b_start + static_cast<std::int64_t>((1.0 - kCompileShare) * opt.seconds * 1e9);
  for (std::size_t i = 0; now_ns() < b_stop; ++i) {
    const bool hot_turn = i % 2 == 0;
    // In the traced run every other cycle through the hot lengths is
    // traced; the untraced cycles are the baseline of trace.overhead_pct.
    const bool traced = opt.trace && hot_turn && (hi / hot.size()) % 2 == 1;
    const std::int64_t len = hot_turn ? hot[hi++ % hot.size()] : tail[ti++ % tail.size()];
    const auto [ms, missed] = call(len, traced);
    (missed ? new_ms : traced ? hot_traced_ms : hot_ms).push_back(ms);
  }
  const double b_seconds = ms_between(b_start, now_ns()) * 1e-3;
  const auto cache1 = cache.stats();
  rep.attempted = steps.size() + calls;
  if (mismatched) {
    rep.mismatch(mismatched, std::to_string(mismatched) +
                             " transformer outputs differ from the Interpreter reference");
  }

  std::vector<double> total, trace, fcb, flr, rc, cp;
  for (const Step& s : steps) {
    total.push_back(s.total());
    trace.push_back(s.trace);
    fcb.push_back(s.fuse_cb);
    flr.push_back(s.fuse_lr);
    rc.push_back(s.recompile);
    cp.push_back(s.compile);
  }
  rep.e2e["setup_s"] = median(setup_s);
  rep.add_named("setup_s", rep.e2e["setup_s"], "s");
  // Gated at p90, for the reason given in workload_resnet.cc.
  rep.e2e["a_ms"] = percentile(total, 0.9);
  rep.e2e["b_ms"] = percentile(new_ms, 0.9);
  rep.e2e["c_ms"] = percentile(hot_ms, 0.9);
  rep.add_latency("compile_", "", total);
  rep.add_latency("new_shape_", "", new_ms);
  rep.add_latency("hot_shape_", "", hot_ms);
  rep.add_named("shape_calls_per_s", static_cast<double>(calls - calls0) / b_seconds, "1/s");
  rep.add_named("compile_samples", static_cast<double>(steps.size()), "count");
  rep.add_named("new_shape_samples", static_cast<double>(new_ms.size()), "count");
  rep.add_named("hot_shape_samples", static_cast<double>(hot_ms.size()), "count");

  auto& L = rep.layer;
  add_plan_cache_layers(rep, cache0, cache1);
  L["core.tracer.trace_ms"] = median(trace);
  L["passes.fuse_conv_bn_ms"] = median(fcb);
  L["passes.fuse_linear_relu_ms"] = median(flr);
  L["core.recompile_ms"] = median(rc);
  L["passes.compile_planned_ms"] = median(cp);
  L["core.graph.nodes_traced"] = static_cast<double>(steps.back().nodes_traced);
  L["core.graph.nodes_after_fusion"] = static_cast<double>(steps.back().nodes_after);
  L["passes.memory_planner.arena_bytes"] = static_cast<double>(arena_bytes);
  L["passes.memory_planner.planned_instrs"] = planned_instrs;
  L["core.tape.instrs"] = static_cast<double>(gm->compiled_graph().instrs().size());

  if (opt.trace) {
    L["trace.overhead_pct"] = (median(hot_traced_ms) / median(hot_ms) - 1.0) * 100.0;
    const std::vector<RunTracer::Run> runs = tracer.take_runs();
    add_run_layers(rep, runs);

    // The two halves of the miss path, timed on a separate capture of the
    // same layer so the measured module's meta and cache stay untouched.
    auto probe = fx::symbolic_trace(nn::models::transformer_encoder_layer(kDim, kFfn));
    std::vector<double> sp_ms, pt_ms;
    for (std::size_t i = 0; i < tail.size(); ++i) {
      std::int64_t t = now_ns();
      passes::shape_prop(*probe, {x[tail[i]]});
      sp_ms.push_back(ms_between(t, now_ns()));
      t = now_ns();
      passes::plan_tape(*probe);
      pt_ms.push_back(ms_between(t, now_ns()));
    }
    L["passes.shape_prop_ms"] = median(sp_ms);
    L["passes.plan_tape_ms"] = median(pt_ms);

    // Allocator and pack-cache traffic over a stretch of hot calls.
    constexpr int kCounted = 20;
    const Counters c0 = Counters::now();
    for (int i = 0; i < kCounted; ++i) gm->run_planned(x[hot[static_cast<std::size_t>(i) % hot.size()]]);
    add_counter_layers(rep, c0, Counters::now(), kCounted, 0);

    if (!opt.trace_dir.empty()) {
      write_call_trace(opt.trace_dir + "/compile_shapes_seed" + std::to_string(opt.seed) + ".json",
                       "hot_call", runs, 50);
    }
  }
  return rep;
}

}  // namespace perfbench
