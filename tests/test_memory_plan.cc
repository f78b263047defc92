// Static memory planner + pack cache: differential fuzzing of planned
// execution against the unplanned engines (bit-equal across interpreter and
// serial tape), first-fit packing semantics, shape-change
// re-planning into the plan cache (meta and guards stay at the compile
// shapes), fault-injection interplay, the plan.aliasing verifier rule,
// infer_meta fidelity against ShapeProp on every model, and PackCache
// hit/repack/eviction/dead-weight/concurrency behavior. All randomness is
// seeded; the whole binary is run under ASan and TSan by scripts/check.sh.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "analysis/verifier.h"
#include "core/custom_op.h"
#include "core/interpreter.h"
#include "core/memory_plan.h"
#include "core/tracer.h"
#include "nn/models/deep_recommender.h"
#include "nn/models/dlrm.h"
#include "nn/models/learning_to_paint.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet.h"
#include "nn/models/transformer.h"
#include "passes/fuse_conv_bn.h"
#include "passes/fuse_linear_relu.h"
#include "passes/memory_planner.h"
#include "passes/shape_prop.h"
#include "passes/symbolic_shapes.h"
#include "quant/quantize.h"
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

// The plan-cache entry planned runs use for `inputs` (nullptr when none).
std::shared_ptr<fx::PlanCacheEntry> entry_for(
    const GraphModule& gm, const std::vector<RtValue>& inputs) {
  const std::shared_ptr<fx::PlanCache> cache = gm.plan_cache();
  return cache ? cache->peek(cache->signature_of(inputs)) : nullptr;
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
// Differential fuzz: planned execution bit-equals the unplanned engines over
// a corpus of random DAGs.
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

    // Every cached plan must satisfy its own soundness rule.
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
  const std::vector<RtValue> small_in{RtValue(small)};
  passes::compile_planned(gm, {small});
  ASSERT_TRUE(entry_for(gm, small_in));
  const std::size_t small_arena = entry_for(gm, small_in)->plan()->arena_bytes;

  const Tensor big = Tensor::randn({16, 16});
  const std::vector<RtValue> big_in{RtValue(big)};
  const RtValue ref = fx::Interpreter(gm).run(big_in);
  EXPECT_TRUE(bit_equal(ref, gm.run_planned(big_in).front()));
  const auto big_entry = entry_for(gm, big_in);
  ASSERT_TRUE(big_entry);
  EXPECT_EQ(big_entry->plan()->guards[0].shape, Shape({16, 16}))
      << "the replanner did not plan at the new input contract";
  EXPECT_GT(big_entry->plan()->arena_bytes, small_arena);

  // And back: the module is shape-polymorphic in both directions.
  const RtValue sref = fx::Interpreter(gm).run(small_in);
  EXPECT_TRUE(bit_equal(sref, gm.run_planned(small_in).front()));
}

TEST(MemoryPlan, RecompileClearsPlanAndReplannerRestoresIt) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  ASSERT_TRUE(entry_for(*fc.gm, fc.inputs));
  fc.gm->recompile();  // tape rebuilt: the old plan's indices are meaningless
  EXPECT_FALSE(entry_for(*fc.gm, fc.inputs));
  const RtValue ref = fx::Interpreter(*fc.gm).run(fc.inputs);
  EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned(fc.inputs).front()));
  EXPECT_TRUE(entry_for(*fc.gm, fc.inputs))
      << "the replanner should have re-planned";
}

// The plan lives in the cache entry, and each run leases its arena from
// it: compile_planned pools exactly one arena, the one the first run at the
// example shape leases, and the module holds none of its own.
TEST(MemoryPlan, CompilePlannedPoolsTheOnlyArena) {
  FuzzCase fc = chain_case();
  const std::vector<Tensor> example = as_tensors(fc.inputs);
  const std::int64_t before = Storage::live_bytes();
  const fx::TapePlan& plan = passes::compile_planned(*fc.gm, example);
  ASSERT_GT(plan.arena_bytes, 0u);
  const std::int64_t compiled = Storage::live_bytes();
  EXPECT_EQ(compiled - before, static_cast<std::int64_t>(plan.arena_bytes));
  fc.gm->run_planned(fc.inputs);
  EXPECT_EQ(Storage::live_bytes(), compiled)
      << "the first run allocated a second arena; one sits idle";
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
  auto bad = std::make_shared<fx::TapePlan>(
      *entry_for(*fc.gm, fc.inputs)->plan());
  // Pretend relu's slot is an independent buffer at matmul's offset: two
  // simultaneously-live planned intervals now share arena bytes.
  bad->intervals[1].in_place = false;
  bad->intervals[1].alias_of = -1;
  fc.gm->plan_cache()->insert(fc.inputs, bad);
  const auto rep = analysis::verify(*fc.gm);
  EXPECT_GT(rep.count_rule("plan.aliasing"), 0) << rep.to_string();
}

TEST(PlanAliasingRule, FlagsInPlaceReuseOfLiveInput) {
  FuzzCase fc = chain_case();
  passes::compile_planned(*fc.gm, as_tensors(fc.inputs));
  auto bad = std::make_shared<fx::TapePlan>(
      *entry_for(*fc.gm, fc.inputs)->plan());
  // Extend matmul's lifetime past relu's in-place write over it.
  bad->intervals[0].last_use = 3;
  fc.gm->plan_cache()->insert(fc.inputs, bad);
  const auto rep = analysis::verify(*fc.gm);
  EXPECT_GT(rep.count_rule("plan.aliasing"), 0) << rep.to_string();
}

// --------------------------------------------------------------------------
// infer_meta: the planner's shape/dtype meta from the transfer rules, with
// ShapeProp (a forward pass) as the oracle. Every model in nn/models at two
// input shapes must get the same meta and a byte-identical plan.
// --------------------------------------------------------------------------

struct ModelCase {
  std::string name;
  std::shared_ptr<GraphModule> gm;
  std::vector<std::vector<Tensor>> inputs;  // >= 2 distinct input shapes
};

std::vector<Tensor> dlrm_inputs(const nn::models::DlrmConfig& cfg,
                                std::int64_t batch) {
  std::vector<Tensor> in{Tensor::randn({batch, cfg.dense_dim})};
  for (std::size_t t = 0; t < cfg.table_sizes.size(); ++t) {
    Tensor idx(Shape{batch}, DType::Int64);
    for (std::int64_t i = 0; i < batch; ++i) {
      idx.set_flat(i, static_cast<double>((i * 7 + static_cast<std::int64_t>(t)) %
                                          cfg.table_sizes[t]));
    }
    in.push_back(idx);
  }
  return in;
}

std::vector<ModelCase> model_zoo() {
  std::vector<ModelCase> zoo;
  auto img = [](std::int64_t n, std::int64_t c, std::int64_t hw) {
    return std::vector<Tensor>{Tensor::randn({n, c, hw, hw})};
  };
  zoo.push_back({"resnet18", fx::symbolic_trace(nn::models::resnet18(8, 10)),
                 {img(1, 3, 32), img(2, 3, 40)}});
  zoo.push_back({"resnet50", fx::symbolic_trace(nn::models::resnet50(8, 10)),
                 {img(1, 3, 32), img(3, 3, 48)}});
  auto fused = fx::symbolic_trace(nn::models::resnet50(8, 10));
  passes::fuse_conv_bn(*fused);
  passes::fuse_linear_relu(*fused);
  zoo.push_back({"resnet50_fused", fused, {img(2, 3, 32), img(1, 3, 64)}});
  zoo.push_back({"mlp", fx::symbolic_trace(nn::models::mlp({16, 32, 8})),
                 {{Tensor::randn({4, 16})}, {Tensor::randn({9, 16})}}});
  zoo.push_back(
      {"transformer",
       fx::symbolic_trace(std::static_pointer_cast<nn::Module>(
           nn::models::transformer_encoder_layer(16, 32))),
       {{Tensor::randn({12, 16})}, {Tensor::randn({20, 16})}}});
  zoo.push_back(
      {"learning_to_paint",
       fx::symbolic_trace(nn::models::learning_to_paint_actor({9, 65, 8})),
       {img(1, 9, 32), img(2, 9, 48)}});
  nn::models::DlrmConfig dcfg;
  fx::Tracer tracer;
  zoo.push_back({"dlrm",
                 tracer.trace(std::static_pointer_cast<nn::Module>(
                                  nn::models::dlrm(dcfg)),
                              {"dense", "idx0", "idx1", "idx2"}),
                 {dlrm_inputs(dcfg, 4), dlrm_inputs(dcfg, 7)}});
  nn::models::DeepRecommenderConfig rcfg;
  rcfg.item_dim = 64;
  rcfg.hidden = {32, 16};
  zoo.push_back({"deep_recommender",
                 fx::symbolic_trace(nn::models::deep_recommender(rcfg)),
                 {{Tensor::rand({4, 64})}, {Tensor::rand({11, 64})}}});
  std::vector<Tensor> calib;
  for (int i = 0; i < 3; ++i) calib.push_back(Tensor::randn({1, 3, 32, 32}));
  zoo.push_back({"quantized_resnet18",
                 quant::quantize_model(nn::models::resnet18(8, 10), calib),
                 {img(1, 3, 32), img(2, 3, 40)}});
  return zoo;
}

struct NodeMeta {
  bool has = false;
  Shape shape;
  DType dtype = DType::Float32;
  bool operator==(const NodeMeta& o) const {
    return has == o.has && (!has || (shape == o.shape && dtype == o.dtype));
  }
};

std::string meta_str(const NodeMeta& m) {
  return m.has ? shape_str(m.shape) + " " + dtype_name(m.dtype) : "<none>";
}

// Shape/dtype meta of every non-Output node, in graph order.
std::vector<NodeMeta> snapshot_meta(const GraphModule& gm) {
  std::vector<NodeMeta> out;
  for (const Node* n : gm.graph().nodes()) {
    if (n->op() == fx::Opcode::Output) continue;
    NodeMeta m;
    m.has = n->has_meta("shape") && n->has_meta("dtype");
    EXPECT_EQ(m.has, n->has_meta("shape") || n->has_meta("dtype"))
        << n->name() << ": partial meta";
    if (m.has) {
      m.shape = n->shape();
      m.dtype = n->dtype();
    }
    out.push_back(m);
  }
  return out;
}

void expect_same_plan(const fx::TapePlan& a, const fx::TapePlan& b,
                      const std::string& what) {
  EXPECT_EQ(a.arena_bytes, b.arena_bytes) << what;
  EXPECT_EQ(a.planned_bytes, b.planned_bytes) << what;
  EXPECT_EQ(a.unplanned_bytes, b.unplanned_bytes) << what;
  EXPECT_EQ(a.planned_count, b.planned_count) << what;
  EXPECT_EQ(a.aliased_count, b.aliased_count) << what;
  ASSERT_EQ(a.intervals.size(), b.intervals.size()) << what;
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    const fx::PlanInterval& x = a.intervals[i];
    const fx::PlanInterval& y = b.intervals[i];
    EXPECT_TRUE(x.def == y.def && x.last_use == y.last_use &&
                x.nbytes == y.nbytes && x.padded == y.padded &&
                x.offset == y.offset && x.planned == y.planned &&
                x.in_place == y.in_place && x.alias_of == y.alias_of)
        << what << ": interval " << i << " differs";
  }
  ASSERT_EQ(a.guards.size(), b.guards.size()) << what;
  for (std::size_t i = 0; i < a.guards.size(); ++i) {
    EXPECT_EQ(a.guards[i].placeholder, b.guards[i].placeholder) << what;
    EXPECT_EQ(a.guards[i].shape, b.guards[i].shape) << what;
    EXPECT_EQ(a.guards[i].dtype, b.guards[i].dtype) << what;
  }
}

TEST(InferMeta, MatchesShapePropAndPlansIdenticallyOnModelZoo) {
  for (ModelCase& mc : model_zoo()) {
    GraphModule& gm = *mc.gm;
    gm.recompile();
    for (const auto& in : mc.inputs) {
      const std::string what = mc.name + " @ " + shape_str(in[0].sizes());
      passes::shape_prop(gm, in);
      const std::vector<NodeMeta> oracle = snapshot_meta(gm);
      const auto oracle_plan = passes::plan_tape(gm);
      passes::infer_meta(gm, in);
      const std::vector<NodeMeta> inferred = snapshot_meta(gm);
      ASSERT_EQ(oracle.size(), inferred.size()) << what;
      std::size_t i = 0;
      for (const Node* n : gm.graph().nodes()) {
        if (n->op() == fx::Opcode::Output) continue;
        EXPECT_TRUE(oracle[i].has) << what << ": ShapeProp skipped " << n->name();
        EXPECT_TRUE(oracle[i] == inferred[i])
            << what << ": node " << n->name() << " ShapeProp "
            << meta_str(oracle[i]) << " vs infer_meta " << meta_str(inferred[i]);
        ++i;
      }
      expect_same_plan(*oracle_plan, *passes::plan_tape(gm), what);
    }
  }
}

TEST(InferMeta, CompilePlannedLeavesNoStaleMeta) {
  for (ModelCase& mc : model_zoo()) {
    mc.gm->recompile();
    passes::compile_planned(*mc.gm, mc.inputs[0]);
    const auto rep = analysis::verify(*mc.gm);
    EXPECT_FALSE(rep.has("meta.stale")) << mc.name << "\n" << rep.to_string();
    EXPECT_FALSE(rep.has("meta.pair")) << mc.name << "\n" << rep.to_string();
  }
}

TEST(InferMeta, PlanCacheMissPlansLikeAFreshShapePropPlan) {
  auto model = nn::models::transformer_encoder_layer(16, 32);
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  passes::compile_planned(*gm, {Tensor::randn({12, 16})});
  fx::PlanCache& cache = *gm->plan_cache();
  for (std::int64_t len : {20, 7, 33}) {
    const Tensor x = Tensor::randn({len, 16});
    const std::vector<RtValue> in{RtValue(x)};
    const std::uint64_t misses = cache.stats().misses;
    const RtValue ref = fx::Interpreter(*gm).run(in);
    EXPECT_TRUE(bit_equal(ref, gm->run_planned(in).front()));
    ASSERT_EQ(cache.stats().misses, misses + 1);
    const auto entry = cache.peek(cache.signature_of(in));
    ASSERT_TRUE(entry);

    auto fresh = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
    fresh->recompile();
    passes::shape_prop(*fresh, {x});
    expect_same_plan(*passes::plan_tape(*fresh), *entry->plan(),
                     "seq " + std::to_string(len));
  }
}

// A miss changes nothing but the cache: after misses at two new shapes,
// every node's shape/dtype meta and the module's guards are still those of
// the compile shape, so the hardened entry point with its default guard
// check still accepts the compile shape.
TEST(InferMeta, PlanCacheMissesLeaveMetaAndGuardsAtTheCompileShapes) {
  auto gm = fx::symbolic_trace(nn::models::mlp({16, 32, 8}));
  const Tensor x = Tensor::randn({4, 16});
  passes::compile_planned(*gm, {x});
  // Shape/dtype meta of every node, Output included.
  auto meta_now = [&] {
    std::vector<NodeMeta> out;
    for (const Node* n : gm->graph().nodes()) {
      NodeMeta m;
      m.has = n->has_meta("shape") || n->has_meta("dtype");
      if (n->has_meta("shape")) m.shape = n->shape();
      if (n->has_meta("dtype")) m.dtype = n->dtype();
      out.push_back(m);
    }
    return out;
  };
  const std::vector<NodeMeta> meta = meta_now();
  const std::vector<fx::GuardSpec> guards = gm->guards();
  ASSERT_EQ(guards.size(), 1u);
  EXPECT_EQ(guards[0].shape, Shape({4, 16}));

  fx::PlanCache& cache = *gm->plan_cache();
  for (std::int64_t rows : {8, 16}) {
    const std::vector<RtValue> in{RtValue(Tensor::randn({rows, 16}))};
    const std::uint64_t misses = cache.stats().misses;
    const RtValue ref = fx::Interpreter(*gm).run(in);
    EXPECT_TRUE(bit_equal(ref, gm->run_planned(in).front())) << rows;
    EXPECT_EQ(cache.stats().misses, misses + 1) << rows;
  }

  const std::vector<NodeMeta> after = meta_now();
  ASSERT_EQ(after.size(), meta.size());
  std::size_t i = 0;
  for (const Node* n : gm->graph().nodes()) {
    EXPECT_TRUE(after[i] == meta[i])
        << n->name() << ": compile-shape meta " << meta_str(meta[i])
        << " became " << meta_str(after[i]);
    ++i;
  }
  ASSERT_EQ(gm->guards().size(), guards.size());
  EXPECT_EQ(gm->guards()[0].placeholder, guards[0].placeholder);
  EXPECT_EQ(gm->guards()[0].shape, guards[0].shape);
  EXPECT_EQ(gm->guards()[0].dtype, guards[0].dtype);

  const std::vector<RtValue> in{RtValue(x)};
  const RtValue ref = fx::Interpreter(*gm).run(in);
  EXPECT_TRUE(bit_equal(ref, gm->run_resilient(in).front()));
}

TEST(InferMeta, UnregisteredCustomOpAndDependentsRunFromTheHeap) {
  fx::register_custom_op("infer_meta_test_twice", {"x"},
                         [](const std::vector<Tensor>& in) {
                           return ops::mul(in.at(0), 2.0);
                         });
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* m = g->call_function("matmul", {x, x});
  Node* r = g->call_function("relu", {m});
  Node* c = g->call_function("infer_meta_test_twice", {r});
  Node* n = g->call_function("neg", {c});
  Node* t = g->call_function("tanh", {n});
  Node* s = g->call_function("sigmoid", {m});
  g->output(g->call_function("add", {t, s}));
  GraphModule gm(nullptr, std::move(g), "Custom");
  gm.recompile();

  const Tensor in = Tensor::randn({8, 8});
  const fx::TapePlan& plan = passes::compile_planned(gm, {in});
  for (const Node* typed : {m, r, s}) {
    EXPECT_TRUE(typed->has_meta("shape")) << typed->name();
  }
  for (const Node* untyped : {c, n, t}) {
    EXPECT_FALSE(untyped->has_meta("shape")) << untyped->name();
    EXPECT_FALSE(untyped->has_meta("dtype")) << untyped->name();
  }
  const auto& instrs = gm.compiled_graph().instrs();
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    const Node* node = instrs[i].node;
    if (node == c || node == n || node == t) {
      EXPECT_FALSE(plan.intervals[i].planned) << node->name();
    }
    if (node == m || node == s) {
      EXPECT_TRUE(plan.intervals[i].planned) << node->name();
    }
  }
  const std::vector<RtValue> args{RtValue(in)};
  const RtValue ref = fx::Interpreter(gm).run(args);
  EXPECT_TRUE(bit_equal(ref, gm.run_planned(args).front()));
}

TEST(InferMeta, ConflictingExampleInputThrowsNamingTheNode) {
  auto gm = fx::symbolic_trace(nn::models::resnet18(8, 10));
  try {
    passes::compile_planned(*gm, {Tensor::randn({3, 32, 32})});  // rank 3
    FAIL() << "expected a rank conflict";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'conv1'"), std::string::npos)
        << e.what();
  }

  auto g = std::make_unique<Graph>();
  Node* a = g->placeholder("a");
  Node* b = g->placeholder("b");
  g->output(g->call_function("add", {a, b}));
  GraphModule add(nullptr, std::move(g), "Add");
  add.recompile();
  try {
    passes::compile_planned(add, {Tensor::randn({4, 3}), Tensor::randn({5})});
    FAIL() << "expected a broadcast conflict";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'add'"), std::string::npos)
        << e.what();
  }
  // Too few inputs fail like every engine's arity check.
  try {
    passes::compile_planned(add, {Tensor::randn({4, 3})});
    FAIL() << "expected an arity mismatch";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::ArityMismatch);
  }
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

// A weight whose only remaining owner is the cache is dead: the next miss
// drops its plain and panel entries, releasing the panel bytes and the
// weight's storage instead of pinning them until FIFO eviction.
TEST(PackCacheTest, MissDropsEntriesOfDeadWeights) {
  auto& pc = PackCache::local();
  pc.clear();
  std::int64_t live_with_dead_weight = 0;
  {
    const Tensor full = Tensor::randn({256, 260});
    const Tensor w = full.narrow(1, 0, 256);  // non-contiguous: plain entry too
    pc.panel_b_f32_nt(w);
    ASSERT_EQ(pc.size(), 1u);
    ASSERT_EQ(pc.panel_size(), 1u);
    live_with_dead_weight = Storage::live_bytes();
  }
  // The weight is gone; only the cache still holds its storage.
  EXPECT_EQ(Storage::live_bytes(), live_with_dead_weight);
  const std::size_t dead_panel_bytes = pc.stats().panel_bytes;

  const Tensor other = Tensor::randn({4, 8});
  pc.panel_b_f32_nt(other);
  EXPECT_EQ(pc.size(), 0u) << "the dead weight's plain pack is still pinned";
  EXPECT_EQ(pc.panel_size(), 1u) << "the dead weight's panel is still pinned";
  EXPECT_LT(pc.stats().panel_bytes, dead_panel_bytes);
  EXPECT_LT(Storage::live_bytes(), live_with_dead_weight - 256 * 256 * 4)
      << "the dead weight's storage was not released";
  EXPECT_EQ(pc.stats().evictions, 0) << "dropped by the sweep, not by FIFO";

  // A live weight's entry survives later sweeps.
  const std::int64_t hits = pc.stats().panel_hits;
  pc.panel_b_f32_nt(Tensor::randn({4, 8}));  // a miss: sweeps again
  pc.panel_b_f32_nt(other);
  EXPECT_EQ(pc.stats().panel_hits, hits + 1)
      << "a live weight's panel was dropped";
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
