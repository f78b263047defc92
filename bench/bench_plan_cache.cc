// A10 — guard-keyed multi-plan cache under a Zipf shape trace (dynamic
// shapes PR): a shape-polymorphic elementwise graph is driven by a request
// stream with 3 hot batch sizes (probability mass 0.55 / 0.25 / 0.12) and an
// 8% long tail spread over 18 cold batch sizes — the "production traffic has
// a few hot shapes" distribution the cache is built for. Reports the
// steady-state hit rate, the hit-path overhead versus running the installed
// plan directly (lookup + guard check must cost almost nothing), the
// per-request speedup versus replanning on every request, and bit-equality
// against the interpreter at every distinct shape. Acceptance — steady-state
// hit rate >= 90%, hit-path overhead <= 5%, bit-identical outputs — is
// enforced by the exit code.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/interpreter.h"
#include "core/plan_cache.h"
#include "passes/memory_planner.h"
#include "runtime/rng.h"
#include "runtime/thread_pool.h"

using namespace fxcpp;
using fx::GraphModule;
using fx::RtValue;

namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous(), bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

// A fixed elementwise DAG (~40 ops, two reconverging branches) that runs at
// any batch size — the shape-polymorphic module the cache specializes per
// signature. Deterministic so the cached and always-replan legs can use two
// independent but identical modules.
std::shared_ptr<GraphModule> polymorphic_module() {
  auto g = std::make_unique<fx::Graph>();
  fx::Node* x = g->placeholder("x");
  fx::Node* a = x;
  fx::Node* b = x;
  static const char* kUnary[] = {"relu", "tanh", "sigmoid", "gelu", "neg"};
  for (int i = 0; i < 18; ++i) {
    a = g->call_function(kUnary[i % 5], {a});
    a = g->call_function("add", {a, fx::Argument(0.125 * (i + 1))});
    b = g->call_function(kUnary[(i + 2) % 5], {b});
  }
  fx::Node* out = g->call_function("mul", {a, b});
  out = g->call_function("add", {out, fx::Argument(1.0)});
  g->output(out);
  auto gm = std::make_shared<GraphModule>(nullptr, std::move(g), "ZipfEw");
  gm->recompile();
  return gm;
}

constexpr std::int64_t kFeat = 256;

Tensor input_for(std::int64_t batch) {
  // Deterministic per batch size so repeated requests for one shape carry
  // identical bits (bit-equality is checked per distinct shape).
  rt::Rng rng(0x5EEDu + static_cast<std::uint64_t>(batch));
  std::vector<float> v(static_cast<std::size_t>(batch * kFeat));
  for (auto& f : v) f = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, {batch, kFeat});
}

// Zipf-flavored batch-size trace: hot shapes 64/32/128 carry 92% of the
// mass, the rest spreads uniformly over 18 cold batch sizes (2..19).
std::vector<std::int64_t> zipf_trace(int n, rt::Rng& rng) {
  std::vector<std::int64_t> trace;
  trace.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double p = rng.uniform(0.0, 1.0);
    std::int64_t batch;
    if (p < 0.55) batch = 64;
    else if (p < 0.80) batch = 32;
    else if (p < 0.92) batch = 128;
    else batch = 2 + rng.randint(0, 17);
    trace.push_back(batch);
  }
  return trace;
}

}  // namespace

int main() {
  rt::set_num_threads(1);  // measure the cache, not intra-op overlap

  rt::Rng rng(7);
  const std::vector<std::int64_t> trace = zipf_trace(2000, rng);
  const std::int64_t kHot = 64;
  const std::vector<RtValue> hot_in{RtValue(input_for(kHot))};

  fx::PlanCacheOptions po;
  po.capacity = 8;

  // --- leg 1: steady-state hit rate over the full trace --------------------
  auto gm = polymorphic_module();
  passes::compile_planned(*gm, {input_for(kHot)}, po);
  const auto cache = gm->plan_cache();
  bool equal = true;
  std::vector<std::int64_t> seen;
  for (const std::int64_t batch : trace) {
    const std::vector<RtValue> in{RtValue(input_for(batch))};
    const Tensor got = std::get<Tensor>(gm->run_planned(in).front());
    // Each distinct shape's first serve is checked against the interpreter.
    if (std::find(seen.begin(), seen.end(), batch) == seen.end()) {
      seen.push_back(batch);
      const Tensor ref = std::get<Tensor>(fx::Interpreter(*gm).run(in));
      if (!bit_equal(ref, got)) {
        equal = false;
        std::printf("  batch %lld DIFFERS from interpreter\n",
                    static_cast<long long>(batch));
      }
    }
  }
  const fx::PlanCacheStats stats = cache->stats();
  const double hit_rate = stats.hit_rate();

  bench::print_header(
      "A10: Zipf shape trace (3 hot + 18 tail batches, capacity 8)",
      {"requests", "entries", "hits", "misses", "evictions", "hit rate"});
  bench::print_row({std::to_string(stats.hits + stats.misses),
                    std::to_string(stats.entries), std::to_string(stats.hits),
                    std::to_string(stats.misses),
                    std::to_string(stats.evictions), bench::fmt(hit_rate, 4)});

  // --- leg 2: hit-path overhead vs the raw cached plan ---------------------
  // Raw = the planned tape with the plan and a leased arena in hand (zero
  // lookup work); hit = the full run_planned path (signature render + LRU
  // touch + guard check + arena lease). The delta is the cache's toll.
  const auto entry = cache->lookup(hot_in);
  fx::ArenaLease lease(entry);
  const auto& cg = gm->compiled_graph();
  const auto raw_fn = [&] {
    cg.run_planned(hot_in, *entry->plan(), lease.base());
  };
  const auto hit_fn = [&] { gm->run_planned(hot_in); };
  const bench::InterleavedResult hit_vs_raw =
      bench::time_interleaved(raw_fn, hit_fn, 41, 5);
  const double hit_overhead =
      hit_vs_raw.median_a > 0
          ? hit_vs_raw.median_b / hit_vs_raw.median_a - 1.0
          : 0.0;

  bench::print_header("A10: hot-shape per-request wall clock (sec)",
                      {"path", "median", "stdev", "overhead"});
  bench::print_row({"raw cached plan", bench::fmt(hit_vs_raw.median_a, 6),
                    bench::fmt(hit_vs_raw.a.stdev, 6), "--"});
  bench::print_row({"cache hit", bench::fmt(hit_vs_raw.median_b, 6),
                    bench::fmt(hit_vs_raw.b.stdev, 6),
                    bench::fmt(hit_overhead * 100.0, 2) + "%"});

  // --- leg 3: trace replay, cached vs replan-every-request -----------------
  // Two identical independent modules so clearing one cache cannot poison
  // the other leg's entries mid-interleave.
  auto gm_replan = polymorphic_module();
  passes::compile_planned(*gm_replan, {input_for(kHot)}, po);
  const auto cache_replan = gm_replan->plan_cache();
  rt::Rng replay_rng(7);
  const std::vector<std::int64_t> replay = zipf_trace(200, replay_rng);
  std::vector<std::vector<RtValue>> replay_in;
  replay_in.reserve(replay.size());
  for (const std::int64_t batch : replay) {
    replay_in.push_back({RtValue(input_for(batch))});
  }
  const auto cached_fn = [&] {
    for (const auto& in : replay_in) gm->run_planned(in);
  };
  const auto replan_fn = [&] {
    for (const auto& in : replay_in) {
      cache_replan->clear();  // every request misses: plan from scratch
      gm_replan->run_planned(in);
    }
  };
  const bench::InterleavedResult replay_r =
      bench::time_interleaved(cached_fn, replan_fn, 9);
  const double per_req_cached = replay_r.median_a / replay.size();
  const double per_req_replan = replay_r.median_b / replay.size();
  const double replan_speedup =
      per_req_cached > 0 ? per_req_replan / per_req_cached : 0.0;

  bench::print_header("A10: 200-request trace replay, per-request (sec)",
                      {"policy", "per-request", "stdev/trace", "speedup"});
  bench::print_row({"multi-plan cache", bench::fmt(per_req_cached, 7),
                    bench::fmt(replay_r.a.stdev, 5), "1.00"});
  bench::print_row({"replan every request", bench::fmt(per_req_replan, 7),
                    bench::fmt(replay_r.b.stdev, 5),
                    "1/" + bench::fmt(replan_speedup, 2)});

  const bool pass = hit_rate >= 0.90 && hit_overhead <= 0.05 && equal;
  std::printf(
      "\nacceptance (hit rate >= 90%%, hit overhead <= 5%%, bit-equal) : %s\n",
      pass ? "HOLDS" : "VIOLATED");

  {
    std::ofstream f("BENCH_plan_cache.json");
    f << "{\n"
      << "  \"workload\": \"elementwise_dag_f" << kFeat << "_zipf\",\n"
      << "  \"requests\": " << (stats.hits + stats.misses) << ",\n"
      << "  \"capacity\": " << po.capacity << ",\n"
      << "  \"entries\": " << stats.entries << ",\n"
      << "  \"hits\": " << stats.hits << ",\n"
      << "  \"misses\": " << stats.misses << ",\n"
      << "  \"evictions\": " << stats.evictions << ",\n"
      << "  \"replans\": " << stats.replans << ",\n"
      << "  \"hit_rate\": " << bench::fmt(hit_rate, 4) << ",\n"
      << "  \"median_raw_sec\": " << bench::fmt(hit_vs_raw.median_a, 7)
      << ",\n"
      << "  \"median_hit_sec\": " << bench::fmt(hit_vs_raw.median_b, 7)
      << ",\n"
      << "  \"hit_overhead\": " << bench::fmt(hit_overhead, 4) << ",\n"
      << "  \"per_request_cached_sec\": " << bench::fmt(per_req_cached, 7)
      << ",\n"
      << "  \"per_request_replan_sec\": " << bench::fmt(per_req_replan, 7)
      << ",\n"
      << "  \"replan_speedup\": " << bench::fmt(replan_speedup, 3) << ",\n"
      << "  \"bit_equal\": " << (equal ? "true" : "false") << "\n"
      << "}\n";
  }
  std::printf("wrote BENCH_plan_cache.json\n");
  return pass ? 0 : 1;
}
