// Static memory planner + pack cache: differential fuzzing of planned
// execution against the unplanned engines (bit-equal across interpreter /
// serial tape / parallel x{1,2,8}), first-fit packing semantics, shape-change
// re-planning, fault-injection interplay, the plan.aliasing verifier rule,
// and PackCache hit/repack/eviction/concurrency behavior. All randomness is
// seeded; the whole binary is run under ASan and TSan by scripts/check.sh.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "analysis/verifier.h"
#include "core/interpreter.h"
#include "core/memory_plan.h"
#include "core/parallel_executor.h"
#include "core/tracer.h"
#include "passes/memory_planner.h"
#include "resilience/exec_error.h"
#include "runtime/rng.h"
#include "tensor/ops.h"
#include "tensor/pack_cache.h"

namespace fxcpp {
namespace {

using fx::Argument;
using fx::Graph;
using fx::GraphModule;
using fx::Node;
using fx::RtValue;

// --------------------------------------------------------------------------
// Bit-level tensor equality (NaN-safe, unlike operator== / allclose).
// --------------------------------------------------------------------------

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

bool bit_equal(const RtValue& a, const RtValue& b) {
  if (a.index() != b.index()) return false;
  if (fx::rt_is_tensor(a)) return bit_equal(fx::rt_tensor(a), fx::rt_tensor(b));
  return true;  // fuzzed graphs only produce tensors
}

// --------------------------------------------------------------------------
// Seeded random-DAG generator — the PR 2 differential-fuzz corpus. SxS fp32
// everywhere so every op composes; sinks folded into one output.
// --------------------------------------------------------------------------

constexpr std::int64_t kSide = 4;

Tensor random_tensor(rt::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(kSide * kSide));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, {kSide, kSide});
}

struct FuzzCase {
  std::shared_ptr<GraphModule> gm;
  std::vector<RtValue> inputs;
};

FuzzCase random_dag(std::uint64_t seed) {
  rt::Rng rng(seed);
  auto g = std::make_unique<Graph>();
  std::vector<Node*> pool;

  const int n_inputs = 1 + static_cast<int>(rng.randint(0, 1));
  for (int i = 0; i < n_inputs; ++i) {
    pool.push_back(g->placeholder("x" + std::to_string(i)));
  }

  static const char* kBinary[] = {"add", "sub", "mul"};
  static const char* kUnary[] = {"relu", "neg", "sigmoid", "tanh", "gelu"};

  const int n_ops = 5 + static_cast<int>(rng.randint(0, 20));
  for (int i = 0; i < n_ops; ++i) {
    auto pick = [&]() -> Node* {
      return pool[static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(pool.size()) - 1))];
    };
    Node* n = nullptr;
    switch (rng.randint(0, 3)) {
      case 0:
        n = g->call_function(kBinary[rng.randint(0, 2)], {pick(), pick()});
        break;
      case 1:
        n = g->call_function(kUnary[rng.randint(0, 4)], {pick()});
        break;
      case 2:
        n = g->call_function(kBinary[rng.randint(0, 2)],
                             {pick(), Argument(rng.uniform(-2.0, 2.0))});
        break;
      default:
        n = g->call_function("matmul", {pick(), pick()});
        break;
    }
    pool.push_back(n);
  }

  std::vector<Node*> sinks;
  for (Node* n : pool) {
    if (n->op() != fx::Opcode::Placeholder && n->users().empty()) {
      sinks.push_back(n);
    }
  }
  Node* acc = sinks.empty() ? pool.back() : sinks[0];
  for (std::size_t i = 1; i < sinks.size(); ++i) {
    acc = g->call_function("add", {acc, sinks[i]});
  }
  g->output(acc);

  FuzzCase fc;
  fc.gm = std::make_shared<GraphModule>(nullptr, std::move(g), "Fuzz");
  fc.gm->recompile();
  for (int i = 0; i < n_inputs; ++i) fc.inputs.emplace_back(random_tensor(rng));
  return fc;
}

std::vector<Tensor> as_tensors(const std::vector<RtValue>& in) {
  std::vector<Tensor> ts;
  for (const auto& v : in) ts.push_back(fx::rt_tensor(v));
  return ts;
}

// A fixed alias-chain graph: matmul -> relu -> neg -> tanh. matmul/relu/neg
// are planned (relu and neg in place over the matmul slot); tanh escapes
// through Output and must stay on the heap.
FuzzCase chain_case() {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* m = g->call_function("matmul", {x, x});
  Node* r = g->call_function("relu", {m});
  Node* n = g->call_function("neg", {r});
  Node* t = g->call_function("tanh", {n});
  g->output(t);
  FuzzCase fc;
  fc.gm = std::make_shared<GraphModule>(nullptr, std::move(g), "Chain");
  fc.gm->recompile();
  rt::Rng rng(11);
  fc.inputs.emplace_back(random_tensor(rng));
  return fc;
}

// --------------------------------------------------------------------------
// first_fit_pack: the extracted TRT step semantics, pinned directly.
// --------------------------------------------------------------------------

TEST(FirstFitPack, TrtStepSemantics) {
  // input(def -1) -> a(def 0) -> b(def 1) -> c(def 2), input dies at step 0.
  const std::vector<passes::LiveRange> ranges = {
      {100, -1, 0},  // graph input: allocated before step 0, freed after it
      {40, 0, 1},
      {60, 1, 2},
      {40, 2, 3},
  };
  const auto p = passes::first_fit_pack(ranges, 4);
  ASSERT_EQ(p.offsets.size(), 4u);
  EXPECT_EQ(p.offsets[0], 0);    // pre-loop
  EXPECT_EQ(p.offsets[1], 100);  // input still live at step 0 (alloc first)
  EXPECT_EQ(p.offsets[2], 0);    // first-fit into the freed input block
  EXPECT_EQ(p.offsets[3], 60);   // exact-size reuse of the shrunken block
  EXPECT_EQ(p.high_water, 140);
}

TEST(FirstFitPack, NeverFreedRangesKeepTheirBlocks) {
  const std::vector<passes::LiveRange> ranges = {
      {32, 0, 5},  // last_use >= num_steps: kept (the TRT output buffer)
      {32, 1, 2},
      {32, 3, 4},
  };
  const auto p = passes::first_fit_pack(ranges, 5);
  EXPECT_EQ(p.offsets[0], 0);
  EXPECT_EQ(p.offsets[1], 32);
  EXPECT_EQ(p.offsets[2], 32);  // reuses range 1's block, never range 0's
  EXPECT_EQ(p.high_water, 64);
}

// --------------------------------------------------------------------------
// Plan structure on the fixed chain.
// --------------------------------------------------------------------------

TEST(MemoryPlan, ChainAliasesInPlaceAndDemotesEscapes) {
  FuzzCase fc = chain_case();
  const fx::TapePlan& plan =
      passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  // Tape: matmul, relu, neg, tanh, output.
  ASSERT_EQ(plan.intervals.size(), 5u);
  EXPECT_TRUE(plan.intervals[0].planned);   // matmul
  EXPECT_TRUE(plan.intervals[1].planned);   // relu, in place over matmul
  EXPECT_TRUE(plan.intervals[2].planned);   // neg, in place over relu
  EXPECT_FALSE(plan.intervals[3].planned);  // tanh escapes -> heap
  EXPECT_TRUE(plan.intervals[1].in_place);
  EXPECT_EQ(plan.intervals[1].alias_of, 0);
  EXPECT_TRUE(plan.intervals[2].in_place);
  EXPECT_EQ(plan.intervals[2].alias_of, 1);
  EXPECT_EQ(plan.planned_count, 3);
  EXPECT_EQ(plan.aliased_count, 2);
  // One 4x4 fp32 slot, 64-byte padded: the whole chain runs in 64 bytes.
  EXPECT_EQ(plan.arena_bytes, 64u);
  EXPECT_EQ(plan.intervals[0].offset, plan.intervals[1].offset);
  EXPECT_EQ(plan.intervals[1].offset, plan.intervals[2].offset);

  const RtValue ref = fx::Interpreter(*fc.gm).run(fc.inputs);
  EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned(fc.inputs).front()));
}

TEST(MemoryPlan, EscapedOutputsSurviveArenaReuse) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  const Tensor out1 = std::get<Tensor>(fc.gm->run_planned(fc.inputs).front());
  const Tensor saved = out1.clone();
  rt::Rng rng(77);
  const std::vector<RtValue> other{RtValue(random_tensor(rng))};
  fc.gm->run_planned(other);  // reuses the arena
  EXPECT_TRUE(bit_equal(out1, saved))
      << "a returned tensor was mutated by a later planned run";
}

// --------------------------------------------------------------------------
// Differential fuzz: planned execution bit-equals the unplanned engines
// across serial and parallel x{1,2,8}, over the PR 2 DAG corpus.
// --------------------------------------------------------------------------

TEST(MemoryPlanFuzz, PlannedMatchesUnplannedAcrossEngines) {
  constexpr int kCases = 150;
  for (int c = 0; c < kCases; ++c) {
    FuzzCase fc = random_dag(0xA11A5 + static_cast<std::uint64_t>(c));

    const RtValue ref = fx::Interpreter(*fc.gm).run(fc.inputs);
    const std::vector<RtValue> tape = fc.gm->compiled_graph().run(fc.inputs);
    ASSERT_TRUE(bit_equal(ref, tape[0])) << "tape diverges at seed " << c;

    const fx::TapePlan& plan =
        passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
    ASSERT_EQ(plan.intervals.size(), fc.gm->compiled_graph().instrs().size());

    // Two serial planned runs: the second reuses the warm arena.
    for (int rep = 0; rep < 2; ++rep) {
      const std::vector<RtValue> planned = fc.gm->run_planned(fc.inputs);
      ASSERT_EQ(planned.size(), 1u);
      ASSERT_TRUE(bit_equal(ref, planned[0]))
          << "planned tape diverges at seed " << c << " rep " << rep << ":\n"
          << fc.gm->graph().to_string();
    }

    for (int threads : {1, 2, 8}) {
      fx::ExecutorOptions eo;
      eo.num_threads = threads;
      eo.use_plan = true;
      fx::ParallelExecutor ex(*fc.gm, eo);
      for (int rep = 0; rep < 2; ++rep) {
        const std::vector<RtValue> par = ex.run(fc.inputs);
        ASSERT_EQ(par.size(), 1u);
        ASSERT_TRUE(bit_equal(ref, par[0]))
            << "planned parallel diverges at seed " << c << " threads "
            << threads << " rep " << rep << ":\n"
            << fc.gm->graph().to_string();
      }
    }

    // The installed plan must satisfy its own soundness rule.
    if (c < 25) {
      const auto rep = analysis::verify(*fc.gm);
      EXPECT_EQ(rep.count_rule("plan.aliasing"), 0)
          << "seed " << c << ":\n"
          << rep.to_string();
    }
  }
}

// --------------------------------------------------------------------------
// Shape change => transparent re-plan (guarded by the plan's input contract).
// --------------------------------------------------------------------------

TEST(MemoryPlan, ShapeChangeTriggersTransparentReplan) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* m = g->call_function("matmul", {x, x});
  Node* r = g->call_function("relu", {m});
  g->output(r);
  GraphModule gm(nullptr, std::move(g), "Poly");
  gm.recompile();

  const Tensor small = Tensor::randn({4, 4});
  passes::compile_planned(gm, {small});
  ASSERT_TRUE(gm.has_plan());
  const std::size_t small_arena = gm.plan()->arena_bytes;

  const Tensor big = Tensor::randn({16, 16});
  const std::vector<RtValue> big_in{RtValue(big)};
  const RtValue ref = fx::Interpreter(gm).run(big_in);
  EXPECT_TRUE(bit_equal(ref, gm.run_planned(big_in).front()));
  ASSERT_TRUE(gm.has_plan());
  EXPECT_EQ(gm.plan()->guards[0].shape, Shape({16, 16}))
      << "the replanner did not refresh the plan's input contract";
  EXPECT_GT(gm.plan()->arena_bytes, small_arena);

  // And back: the module is shape-polymorphic in both directions.
  const std::vector<RtValue> small_in{RtValue(small)};
  const RtValue sref = fx::Interpreter(gm).run(small_in);
  EXPECT_TRUE(bit_equal(sref, gm.run_planned(small_in).front()));
  EXPECT_TRUE(bit_equal(sref, gm.run_planned_parallel(small_in, 2).front()));
}

TEST(MemoryPlan, PlannedParallelExecutorRejectsContractViolations) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  fx::ExecutorOptions eo;
  eo.num_threads = 2;
  eo.use_plan = true;
  fx::ParallelExecutor ex(*fc.gm, eo);
  const std::vector<RtValue> wrong{RtValue(Tensor::randn({8, 8}))};
  try {
    ex.run(wrong);
    FAIL() << "expected ExecError{GuardViolation}";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::GuardViolation);
  }
  // The module-level entry point re-plans instead of throwing.
  const RtValue ref = fx::Interpreter(*fc.gm).run(wrong);
  EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned_parallel(wrong, 2).front()));
}

TEST(MemoryPlan, RecompileClearsPlanAndReplannerRestoresIt) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  ASSERT_TRUE(fc.gm->has_plan());
  fc.gm->recompile();  // tape rebuilt: the old plan's indices are meaningless
  EXPECT_FALSE(fc.gm->has_plan());
  const RtValue ref = fx::Interpreter(*fc.gm).run(fc.inputs);
  EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned(fc.inputs).front()));
  EXPECT_TRUE(fc.gm->has_plan()) << "the replanner should have re-planned";
}

// --------------------------------------------------------------------------
// Fault-injection interplay (PR 4): arena adoptions bypass the thread-local
// allocation ceiling (they do not allocate), heap allocations still trip it,
// and a tripped planned run leaves the module fully usable.
// --------------------------------------------------------------------------

TEST(MemoryPlan, AllocCeilingTripsHeapButNotArenaAdoptions) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  const RtValue ref = fx::Interpreter(*fc.gm).run(fc.inputs);
  fc.gm->run_planned(fc.inputs);  // warm: every planned slot adopts

  // A 1-byte ceiling fails the first *heap* allocation. The planned chain
  // (matmul/relu/neg) adopts arena slots and passes; the escaped tanh output
  // must heap-allocate and trips the ceiling.
  Storage::set_alloc_limit(1);
  try {
    fc.gm->run_planned(fc.inputs);
    FAIL() << "expected the escaped tanh output to trip the ceiling";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::AllocLimit);
    EXPECT_NE(std::string(e.what()).find("tanh"), std::string::npos)
        << "the planned chain should pass; only the escape allocates: "
        << e.what();
  }
  EXPECT_EQ(Storage::alloc_limit(), 0) << "ceiling should be single-shot";
  EXPECT_FALSE(Storage::placement_armed())
      << "an unwinding planned run leaked its placement hint";

  // Fully recovered: same bits as the reference.
  EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned(fc.inputs).front()));
}

// --------------------------------------------------------------------------
// plan.aliasing verifier rule: clean on planner output, fires on corruption.
// --------------------------------------------------------------------------

TEST(PlanAliasingRule, CleanOnPlannerOutput) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  const auto rep = analysis::verify(*fc.gm);
  EXPECT_EQ(rep.count_rule("plan.aliasing"), 0) << rep.to_string();
}

TEST(PlanAliasingRule, FlagsOverlappingLiveIntervals) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  auto bad = std::make_shared<fx::TapePlan>(*fc.gm->plan());
  // Pretend relu's slot is an independent buffer at matmul's offset: two
  // simultaneously-live planned intervals now share arena bytes.
  bad->intervals[1].in_place = false;
  bad->intervals[1].alias_of = -1;
  fc.gm->install_plan(bad);
  const auto rep = analysis::verify(*fc.gm);
  EXPECT_GT(rep.count_rule("plan.aliasing"), 0) << rep.to_string();
}

TEST(PlanAliasingRule, FlagsInPlaceReuseOfLiveInput) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  auto bad = std::make_shared<fx::TapePlan>(*fc.gm->plan());
  // Extend matmul's lifetime past relu's in-place write over it.
  bad->intervals[0].last_use = 3;
  fc.gm->install_plan(bad);
  const auto rep = analysis::verify(*fc.gm);
  EXPECT_GT(rep.count_rule("plan.aliasing"), 0) << rep.to_string();
}

// --------------------------------------------------------------------------
// PackCache: hit/miss/repack/eviction semantics, all per-thread.
// --------------------------------------------------------------------------

TEST(PackCacheTest, HitsOnRepeatedNonContiguousWeight) {
  auto& pc = PackCache::local();
  pc.clear();
  Tensor full = Tensor::randn({8, 10});
  const Tensor w = full.narrow(1, 0, 8);  // non-contiguous view
  ASSERT_FALSE(w.is_contiguous());

  const Tensor p1 = pc.packed_weight(w);
  EXPECT_TRUE(p1.is_contiguous());
  EXPECT_EQ(pc.stats().misses, 1);
  const Tensor p2 = pc.packed_weight(w);
  EXPECT_EQ(pc.stats().hits, 1);
  EXPECT_EQ(p1.storage_id(), p2.storage_id()) << "hit must reuse the pack";
  EXPECT_TRUE(bit_equal(p1, w.contiguous()));

  // Contiguous weights bypass the cache entirely.
  const Tensor c = Tensor::randn({4, 4});
  EXPECT_EQ(pc.packed_weight(c).storage_id(), c.storage_id());
}

TEST(PackCacheTest, RepacksWhenTheWeightMutates) {
  auto& pc = PackCache::local();
  pc.clear();
  Tensor full = Tensor::randn({6, 8});
  const Tensor w = full.narrow(1, 0, 6);
  const Tensor p1 = pc.packed_weight(w);
  full.fill_(0.25);  // bumps the storage version
  const Tensor p2 = pc.packed_weight(w);
  EXPECT_EQ(pc.stats().repacks, 1);
  EXPECT_TRUE(bit_equal(p2, w.contiguous()));
  EXPECT_FALSE(bit_equal(p1, p2));
}

TEST(PackCacheTest, EvictsFifoAtCapacity) {
  auto& pc = PackCache::local();
  pc.clear();
  pc.set_capacity(2);
  std::vector<Tensor> keep;  // pin sources so storages stay distinct
  for (int i = 0; i < 3; ++i) {
    keep.push_back(Tensor::randn({4, 6}));
    pc.packed_weight(keep.back().narrow(1, 0, 4));
  }
  EXPECT_LE(pc.size(), 2u);
  EXPECT_GE(pc.stats().evictions, 1);
  pc.set_capacity(PackCache::kDefaultCapacity);
  pc.clear();
}

TEST(PackCacheTest, WorkspaceGrowsMonotonically) {
  auto& pc = PackCache::local();
  pc.clear();
  float* p100 = pc.workspace(100);
  ASSERT_NE(p100, nullptr);
  EXPECT_EQ(pc.workspace(50), p100) << "shrinking requests must not realloc";
  pc.workspace(200);
  EXPECT_GE(pc.stats().workspace_floats, 200u);
}

// Per-thread isolation under concurrency: every thread packs the same shared
// weight and runs the same kernels; thread-local caches mean zero shared
// mutable state (the TSan job in scripts/check.sh watches this test).
TEST(PackCacheTest, ConcurrentThreadsUseIsolatedCaches) {
  Tensor full = Tensor::randn({8, 10});
  const Tensor w = full.narrow(1, 0, 8);
  const Tensor x = Tensor::randn({8, 8});
  const Tensor ref = ops::linear(x, w.contiguous(), Tensor());

  constexpr int kThreads = 4;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto& pc = PackCache::local();
      pc.clear();
      bool good = true;
      for (int i = 0; i < 16; ++i) {
        const Tensor p = pc.packed_weight(w);
        good = good && bit_equal(p, w.contiguous());
        good = good && bit_equal(ops::linear(x, w, Tensor()), ref);
        float* ws = pc.workspace(64 + static_cast<std::size_t>(i));
        ws[0] = static_cast<float>(t);  // private scratch, no races
      }
      good = good && pc.stats().hits >= 1;
      ok[static_cast<std::size_t>(t)] = good ? 1 : 0;
    });
  }
  for (auto& th : ts) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

}  // namespace
}  // namespace fxcpp
