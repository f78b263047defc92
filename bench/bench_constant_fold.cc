// A9 — constant folding over the constness analysis (static_analysis PR):
// a traced model that recomputes weight-preprocessing expressions every
// forward (tanh-rescaled weights, doubled biases) is folded once through the
// Interpreter; the bench reports instructions removed, per-iteration
// allocator traffic, steady-state wall clock, and bit-equality of the folded
// graph across interpreter and serial tape. The acceptance
// gate — something actually folded, fewer allocations per run, bit-identical
// outputs — is deterministic (allocator counters, not wall clock) so it
// holds on a noisy 1-core CI box.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/functional.h"
#include "core/interpreter.h"
#include "core/tracer.h"
#include "passes/constant_folding.h"
#include "runtime/thread_pool.h"

using namespace fxcpp;
using fx::GraphModule;
using fx::RtValue;
using fx::Value;

namespace {

constexpr int kLayers = 4;
constexpr std::int64_t kDim = 16;

// Every layer re-derives its effective weight (tanh(w) + 0.5 w) and bias
// (b + b) from frozen parameters — 4 constant call nodes per layer that
// constant_folding collapses to 2 baked get_attrs each.
class FoldNet : public nn::Module {
 public:
  FoldNet() : nn::Module("FoldNet") {
    for (int i = 0; i < kLayers; ++i) {
      register_parameter("w" + std::to_string(i), Tensor::randn({kDim, kDim}));
      register_parameter("b" + std::to_string(i), Tensor::randn({kDim}));
    }
  }
  Value forward(const std::vector<Value>& in) override {
    Value h = in.at(0);
    for (int i = 0; i < kLayers; ++i) {
      Value w = param_value("w" + std::to_string(i));
      Value b = param_value("b" + std::to_string(i));
      h = fx::fn::relu(fx::fn::matmul(h, fx::fn::tanh(w) + w * 0.5) + (b + b));
    }
    return h;
  }
};

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous(), bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

struct Traffic {
  std::int64_t bytes = 0, count = 0;
};

Traffic traffic_of(const std::function<void()>& fn) {
  const std::int64_t b0 = Storage::total_allocated_bytes();
  const std::int64_t c0 = Storage::allocation_count();
  fn();
  return Traffic{Storage::total_allocated_bytes() - b0,
                 Storage::allocation_count() - c0};
}

}  // namespace

int main() {
  rt::set_num_threads(1);  // measure the fold, not intra-op overlap

  // One parameter set, two traces: `base` stays unfolded, `folded` is
  // transformed — identical float inputs on both sides.
  auto model = std::make_shared<FoldNet>();
  auto base = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  auto folded = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  base->recompile();
  const std::size_t instrs_before = base->compiled_graph().instrs().size();

  const Tensor x = Tensor::randn({8, kDim});
  const std::vector<RtValue> in{RtValue(x)};
  const Tensor ref = std::get<Tensor>(base->compiled_graph().run(in).front());

  const passes::FoldStats stats = passes::constant_folding(*folded);
  const std::size_t instrs_after = folded->compiled_graph().instrs().size();

  // Warm both tapes, then measure run-to-run allocator traffic.
  base->compiled_graph().run(in);
  folded->compiled_graph().run(in);
  const Traffic unfolded_t = traffic_of([&] { base->compiled_graph().run(in); });
  const Traffic folded_t = traffic_of([&] { folded->compiled_graph().run(in); });

  const double alloc_reduction =
      unfolded_t.count == 0
          ? 0.0
          : 1.0 - static_cast<double>(folded_t.count) /
                      static_cast<double>(unfolded_t.count);

  bench::print_header(
      "A9: FoldNet (4 layers, dim 16), constant folding",
      {"graph", "instrs", "bytes/run", "allocs/run"});
  bench::print_row({"unfolded", std::to_string(instrs_before),
                    std::to_string(unfolded_t.bytes),
                    std::to_string(unfolded_t.count)});
  bench::print_row({"folded", std::to_string(instrs_after),
                    std::to_string(folded_t.bytes),
                    std::to_string(folded_t.count)});

  std::printf(
      "\nfold: %d cones baked (%d nodes erased, %zu bytes of baked "
      "parameters), %.1f%% fewer allocations per run\n",
      stats.folded, stats.erased, stats.baked_bytes, 100.0 * alloc_reduction);

  // --- steady-state wall clock (interleaved; median) ------------------------
  const auto wall = bench::time_interleaved(
      [&] { base->compiled_graph().run(in); },
      [&] { folded->compiled_graph().run(in); }, 9);
  const double speedup = wall.median_b > 0 ? wall.median_a / wall.median_b : 0;
  bench::print_header("A9: steady-state wall clock (sec)",
                      {"graph", "median", "stdev", "speedup"});
  bench::print_row({"unfolded", bench::fmt(wall.median_a),
                    bench::fmt(wall.a.stdev), "1.00"});
  bench::print_row({"folded", bench::fmt(wall.median_b),
                    bench::fmt(wall.b.stdev), bench::fmt(speedup, 2)});

  // --- bit-equality across engines -----------------------------------------
  bool equal = true;
  auto check = [&](const char* name, const Tensor& got) {
    const bool ok = bit_equal(ref, got);
    equal = equal && ok;
    std::printf("  %-24s %s\n", name, ok ? "bit-equal" : "DIFFERS");
  };
  std::printf("\nbit-equality vs unfolded tape:\n");
  {
    fx::Interpreter interp(*folded);
    check("interpreter", fx::rt_tensor(interp.run(in)));
  }
  check("serial tape", folded->run({x}));

  const bool pass = equal && stats.folded > 0 &&
                    folded_t.count < unfolded_t.count;
  std::printf(
      "\nacceptance (folded>0, fewer allocs/run, bit-equal) : %s\n",
      pass ? "HOLDS" : "VIOLATED");

  {
    std::ofstream f("BENCH_constant_fold.json");
    f << "{\n"
      << "  \"workload\": \"foldnet_l4_d16\",\n"
      << "  \"instrs_unfolded\": " << instrs_before << ",\n"
      << "  \"instrs_folded\": " << instrs_after << ",\n"
      << "  \"cones_folded\": " << stats.folded << ",\n"
      << "  \"nodes_erased\": " << stats.erased << ",\n"
      << "  \"baked_bytes\": " << stats.baked_bytes << ",\n"
      << "  \"unfolded\": {\"bytes\": " << unfolded_t.bytes
      << ", \"allocs\": " << unfolded_t.count << "},\n"
      << "  \"folded\": {\"bytes\": " << folded_t.bytes
      << ", \"allocs\": " << folded_t.count << "},\n"
      << "  \"alloc_reduction\": " << bench::fmt(alloc_reduction, 4) << ",\n"
      << "  \"median_unfolded_sec\": " << bench::fmt(wall.median_a, 6) << ",\n"
      << "  \"median_folded_sec\": " << bench::fmt(wall.median_b, 6) << ",\n"
      << "  \"speedup\": " << bench::fmt(speedup, 3) << ",\n"
      << "  \"bit_equal\": " << (equal ? "true" : "false") << "\n"
      << "}\n";
  }
  std::printf("wrote BENCH_constant_fold.json\n");
  return pass ? 0 : 1;
}
