// Constant folding over the constness analysis: stats/semantics on traced
// models, PassValidator differential validation, root-less baking, the
// max_bytes cap, composition of repeated folds (name collisions), impure-op
// exclusion, and a seeded differential fuzz proving folded graphs stay
// bit-equal to unfolded ones across interpreter and serial tape.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/pass_validator.h"
#include "core/functional.h"
#include "core/interpreter.h"
#include "core/tracer.h"
#include "passes/cleanup.h"
#include "passes/constant_folding.h"
#include "runtime/rng.h"

namespace fxcpp {
namespace {

using fx::Argument;
using fx::Graph;
using fx::GraphModule;
using fx::Node;
using fx::RtValue;
using fx::Value;

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

int count_op(const Graph& g, const std::string& target) {
  int n = 0;
  for (const Node* node : g.nodes()) {
    if (node->target() == target) ++n;
  }
  return n;
}

class ParamExprModel : public nn::Module {
 public:
  ParamExprModel() : nn::Module("ParamExprModel") {
    register_parameter("w1", Tensor::randn({4}));
    register_parameter("w2", Tensor::randn({4}));
  }
  Value forward(const std::vector<Value>& in) override {
    return in.at(0) + fx::fn::relu(param_value("w1") + param_value("w2"));
  }
};

TEST(ConstantFold, BakesParamConeIntoOneGetAttr) {
  auto model = std::make_shared<ParamExprModel>();
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  const Tensor x = Tensor::randn({4});
  const Tensor before = gm->run(x);

  const passes::FoldStats stats = passes::constant_folding(*gm);
  EXPECT_EQ(stats.folded, 1);  // relu(w1 + w2) is the single boundary root
  EXPECT_GE(stats.erased, 3);  // two get_attrs + the inner add (+ the relu)
  ASSERT_EQ(stats.attr_names.size(), 1u);
  EXPECT_EQ(stats.baked_bytes, 4 * sizeof(float));

  // Exactly x + <baked> remains, and the baked tensor lives on the root.
  EXPECT_EQ(count_op(gm->graph(), "add"), 1);
  EXPECT_EQ(count_op(gm->graph(), "relu"), 0);
  EXPECT_TRUE(model->has_parameter(stats.attr_names[0]));
  EXPECT_TRUE(bit_equal(gm->run(x), before));
}

TEST(ConstantFold, LegacyEntryPointDelegates) {
  auto gm = fx::symbolic_trace(
      std::static_pointer_cast<nn::Module>(std::make_shared<ParamExprModel>()));
  EXPECT_EQ(passes::constant_fold(*gm), 1);
}

TEST(ConstantFold, ValidatedByPassValidator) {
  auto gm = fx::symbolic_trace(
      std::static_pointer_cast<nn::Module>(std::make_shared<ParamExprModel>()));
  analysis::ValidationOptions opts;
  opts.trials = 2;
  analysis::PassValidator validator(opts);
  const analysis::ValidationReport rep = validator.validate(
      *gm,
      [](GraphModule& m) { EXPECT_EQ(passes::constant_folding(m).folded, 1); },
      {Shape{4}});
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(ConstantFold, RootlessModuleBakesOnItself) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* w = g->get_attr("w");
  Node* c = g->call_function("mul", {Argument(w), Argument(3.0)});
  g->output(g->call_function("add", {x, c}));
  auto gm = std::make_shared<GraphModule>(nullptr, std::move(g), "NoRoot");
  gm->set_parameter("w", Tensor::randn({4}));
  gm->recompile();
  const Tensor in = Tensor::randn({4});
  const Tensor before = gm->run(in);

  const passes::FoldStats stats = passes::constant_folding(*gm);
  EXPECT_EQ(stats.folded, 1);
  ASSERT_EQ(stats.attr_names.size(), 1u);
  EXPECT_TRUE(gm->has_parameter(stats.attr_names[0]));
  EXPECT_EQ(count_op(gm->graph(), "mul"), 0);
  EXPECT_TRUE(bit_equal(gm->run(in), before));
}

TEST(ConstantFold, MaxBytesCapSkipsLargeTensors) {
  auto gm = fx::symbolic_trace(
      std::static_pointer_cast<nn::Module>(std::make_shared<ParamExprModel>()));
  passes::FoldOptions opts;
  opts.max_bytes = 8;  // the folded value is 16 bytes
  const passes::FoldStats stats = passes::constant_folding(*gm, opts);
  EXPECT_EQ(stats.folded, 0);
  EXPECT_EQ(count_op(gm->graph(), "relu"), 1);  // graph untouched
}

TEST(ConstantFold, RepeatedFoldsComposeWithoutNameCollisions) {
  // Two independent const cones; the root already owns a "_folded_0"
  // parameter, so fresh names must skip past it.
  class M : public nn::Module {
   public:
    M() : nn::Module("M") {
      register_parameter("a", Tensor::randn({4}));
      register_parameter("b", Tensor::randn({4}));
      register_parameter("_folded_0", Tensor::randn({4}));
    }
    Value forward(const std::vector<Value>& in) override {
      return (in.at(0) + fx::fn::relu(param_value("a"))) +
             fx::fn::tanh(param_value("b"));
    }
  };
  auto model = std::make_shared<M>();
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  const Tensor x = Tensor::randn({4});
  const Tensor before = gm->run(x);

  const passes::FoldStats stats = passes::constant_folding(*gm);
  EXPECT_EQ(stats.folded, 2);
  ASSERT_EQ(stats.attr_names.size(), 2u);
  EXPECT_NE(stats.attr_names[0], "_folded_0");  // pre-seeded name skipped
  EXPECT_NE(stats.attr_names[0], stats.attr_names[1]);
  EXPECT_TRUE(bit_equal(gm->run(x), before));

  // Idempotent: a second fold finds nothing new.
  EXPECT_EQ(passes::constant_folding(*gm).folded, 0);
}

TEST(ConstantFold, ImpureOpsAreNotFolded) {
  class M : public nn::Module {
   public:
    M() : nn::Module("M") { register_parameter("w", Tensor::randn({4})); }
    Value forward(const std::vector<Value>& in) override {
      // dropout's RNG makes the cone non-constant even on a const input.
      return in.at(0) + fx::fn::dropout(param_value("w"), 0.5, true);
    }
  };
  auto gm = fx::symbolic_trace(
      std::static_pointer_cast<nn::Module>(std::make_shared<M>()));
  EXPECT_EQ(passes::constant_folding(*gm).folded, 0);
  EXPECT_EQ(count_op(gm->graph(), "dropout"), 1);
}

// --------------------------------------------------------------------------
// Differential fuzz: folded == unfolded, bit for bit, on every engine
// --------------------------------------------------------------------------

constexpr std::int64_t kSide = 4;

Tensor random_tensor(rt::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(kSide * kSide));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, {kSide, kSide});
}

// Random DAG seeded with get_attr-rooted constant cones: the pool carries a
// per-node "const" tag mirroring what ConstnessAnalysis should compute, so
// every case mixes foldable and unfoldable regions.
struct FuzzCase {
  std::shared_ptr<GraphModule> gm;
  std::vector<Tensor> inputs;
};

FuzzCase random_const_dag(std::uint64_t seed) {
  rt::Rng rng(seed);
  auto g = std::make_unique<Graph>();
  std::vector<Node*> pool;

  pool.push_back(g->placeholder("x"));
  const int n_params = 1 + static_cast<int>(rng.randint(0, 2));
  for (int i = 0; i < n_params; ++i) {
    pool.push_back(g->get_attr("p" + std::to_string(i)));
  }

  static const char* kBinary[] = {"add", "sub", "mul"};
  static const char* kUnary[] = {"relu", "neg", "sigmoid", "tanh", "gelu"};

  const int n_ops = 6 + static_cast<int>(rng.randint(0, 14));
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
    if (n->op() == fx::Opcode::Placeholder) continue;
    if (n->users().empty()) sinks.push_back(n);
  }
  Node* acc = sinks.at(0);
  for (std::size_t i = 1; i < sinks.size(); ++i) {
    acc = g->call_function("add", {acc, sinks[i]});
  }
  // Mix the placeholder back in so the output is never fully constant.
  acc = g->call_function("add", {acc, pool[0]});
  g->output(acc);

  FuzzCase fc;
  fc.gm = std::make_shared<GraphModule>(nullptr, std::move(g), "ConstFuzz");
  for (int i = 0; i < n_params; ++i) {
    fc.gm->set_parameter("p" + std::to_string(i), random_tensor(rng));
  }
  fc.gm->recompile();
  fc.inputs.push_back(random_tensor(rng));
  return fc;
}

TEST(ConstantFoldFuzz, FoldedBitEqualAcrossAllEngines) {
  int total_folded = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    FuzzCase fc = random_const_dag(seed);
    const std::vector<RtValue> rt_in{RtValue(fc.inputs[0])};

    fx::Interpreter interp(*fc.gm);
    const Tensor ref = fx::rt_tensor(interp.run(rt_in));

    const passes::FoldStats stats = passes::constant_folding(*fc.gm);
    total_folded += stats.folded;

    fx::Interpreter folded_interp(*fc.gm);
    EXPECT_TRUE(bit_equal(ref, fx::rt_tensor(folded_interp.run(rt_in))))
        << "interpreter, seed " << seed;
    EXPECT_TRUE(bit_equal(ref, fc.gm->run(fc.inputs)))
        << "serial tape, seed " << seed;
  }
  // The corpus must actually exercise folding, not vacuously pass.
  EXPECT_GT(total_folded, 10);
}

}  // namespace
}  // namespace fxcpp
