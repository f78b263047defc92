// A8 — static memory planning + packed-kernel caching (perf_opt PR): per-
// iteration allocator traffic of a traced ResNet-18 under the unplanned
// serial tape vs compile_planned() execution, plus arena high-water, planner
// hint-service counters, steady-state speedup, and bit-equality of the
// planned tape. The acceptance gate — at
// least 30% fewer per-iteration heap bytes, bit-identical outputs — is
// enforced by the exit code so CI fails loudly when the planner regresses.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/tracer.h"
#include "nn/models/resnet.h"
#include "passes/memory_planner.h"
#include "runtime/thread_pool.h"
#include "tensor/pack_cache.h"

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

struct Traffic {
  std::int64_t bytes = 0, count = 0;
};

// Allocator traffic of one invocation of `fn`, from the process-wide
// counters the profiler also reads.
Traffic traffic_of(const std::function<void()>& fn) {
  const std::int64_t b0 = Storage::total_allocated_bytes();
  const std::int64_t c0 = Storage::allocation_count();
  fn();
  return Traffic{Storage::total_allocated_bytes() - b0,
                 Storage::allocation_count() - c0};
}

}  // namespace

int main() {
  rt::set_num_threads(1);  // measure the planner, not intra-op overlap

  auto model = nn::models::resnet18(/*width=*/16, /*num_classes=*/64);
  model->train(false);
  auto rn = fx::symbolic_trace(model);
  rn->recompile();
  const Tensor img = Tensor::randn({1, 3, 32, 32});
  const std::vector<RtValue> in{RtValue(img)};

  // Steady state first: warm the pack cache (GEMM weight packs, im2col
  // workspace) so both sides measure run-to-run traffic, not first-touch.
  const Tensor ref = std::get<Tensor>(rn->compiled_graph().run(in).front());
  const Traffic unplanned =
      traffic_of([&] { rn->compiled_graph().run(in); });

  const fx::TapePlan& plan = passes::compile_planned(*rn, {img});
  rn->run_planned(in);  // adopt-path warmup
  const std::int64_t served0 = Storage::planner_served_count();
  const Traffic planned = traffic_of([&] { rn->run_planned(in); });
  const std::int64_t served_per_run = Storage::planner_served_count() - served0;

  const double reduction =
      unplanned.bytes == 0
          ? 0.0
          : 1.0 - static_cast<double>(planned.bytes) /
                      static_cast<double>(unplanned.bytes);

  bench::print_header(
      "A8: traced ResNet-18 (w=16, 32x32), per-iteration allocator traffic",
      {"engine", "bytes/run", "allocs/run", "reduction"});
  bench::print_row({"tape (unplanned)", std::to_string(unplanned.bytes),
                    std::to_string(unplanned.count), "--"});
  bench::print_row({"tape (planned)", std::to_string(planned.bytes),
                    std::to_string(planned.count),
                    bench::fmt(100.0 * reduction, 1) + "%"});

  std::printf(
      "\nplan: %d/%zu instructions planned (%d in-place), arena %lld KiB, "
      "%lld KiB/run absorbed (%.0f%% of fresh outputs), %lld hint adoptions"
      "/run\n",
      plan.planned_count, plan.intervals.size(), plan.aliased_count,
      static_cast<long long>(plan.arena_bytes / 1024),
      static_cast<long long>(plan.planned_bytes / 1024),
      100.0 * plan.planned_fraction(), static_cast<long long>(served_per_run));

  // --- steady-state speedup (interleaved; median) --------------------------
  const auto wall = bench::time_interleaved(
      [&] { rn->compiled_graph().run(in); }, [&] { rn->run_planned(in); }, 9);
  const double speedup = wall.median_b > 0 ? wall.median_a / wall.median_b : 0;
  bench::print_header("A8: steady-state wall clock (sec)",
                      {"engine", "median", "stdev", "speedup"});
  bench::print_row({"tape (unplanned)", bench::fmt(wall.median_a),
                    bench::fmt(wall.a.stdev), "1.00"});
  bench::print_row({"tape (planned)", bench::fmt(wall.median_b),
                    bench::fmt(wall.b.stdev), bench::fmt(speedup, 2)});

  // --- bit-equality of the planned tape ------------------------------------
  bool equal = true;
  auto check = [&](const char* name, const Tensor& got) {
    const bool ok = bit_equal(ref, got);
    equal = equal && ok;
    std::printf("  %-28s %s\n", name, ok ? "bit-equal" : "DIFFERS");
  };
  std::printf("\nbit-equality vs unplanned tape:\n");
  check("tape (planned)", std::get<Tensor>(rn->run_planned(in).front()));

  const bool pass = reduction >= 0.30 && equal;
  std::printf("\nacceptance (>=30%% traffic reduction, bit-equal) : %s\n",
              pass ? "HOLDS" : "VIOLATED");

  {
    std::ofstream f("BENCH_memory_plan.json");
    f << "{\n"
      << "  \"workload\": \"resnet18_w16_32x32\",\n"
      << "  \"instrs\": " << plan.intervals.size() << ",\n"
      << "  \"planned_count\": " << plan.planned_count << ",\n"
      << "  \"aliased_count\": " << plan.aliased_count << ",\n"
      << "  \"arena_bytes\": " << plan.arena_bytes << ",\n"
      << "  \"planned_bytes_per_run\": " << plan.planned_bytes << ",\n"
      << "  \"unplanned_tape\": {\"bytes\": " << unplanned.bytes
      << ", \"allocs\": " << unplanned.count << "},\n"
      << "  \"planned_tape\": {\"bytes\": " << planned.bytes
      << ", \"allocs\": " << planned.count << "},\n"
      << "  \"traffic_reduction\": " << bench::fmt(reduction, 4) << ",\n"
      << "  \"hint_adoptions_per_run\": " << served_per_run << ",\n"
      << "  \"median_unplanned_sec\": " << bench::fmt(wall.median_a, 6)
      << ",\n"
      << "  \"median_planned_sec\": " << bench::fmt(wall.median_b, 6) << ",\n"
      << "  \"speedup\": " << bench::fmt(speedup, 3) << ",\n"
      << "  \"pack_cache\": {\"hits\": " << PackCache::local().stats().hits
      << ", \"misses\": " << PackCache::local().stats().misses << "},\n"
      << "  \"bit_equal\": " << (equal ? "true" : "false") << "\n"
      << "}\n";
  }
  std::printf("wrote BENCH_memory_plan.json\n");
  return pass ? 0 : 1;
}
