// TRTSim backend tests (Section 6.4): engine numerics vs eager execution,
// build-time fusion stats, static-shape enforcement, automatic model
// splitting around unsupported operators, source immutability under
// lowering, and concurrent engine runs.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>

#include "core/functional.h"
#include "core/tracer.h"
#include "nn/models/learning_to_paint.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet.h"
#include "passes/fuse_conv_bn.h"
#include "passes/shape_prop.h"
#include "tensor/ops.h"
#include "trt/lower.h"

namespace fxcpp {
namespace {

using fx::Node;
using fx::Value;

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) ==
         0;
}

TEST(Engine, MlpMatchesEager) {
  auto model = nn::models::mlp({16, 32, 8}, "relu");
  auto gm = fx::symbolic_trace(model);
  auto engine = trt::Engine::build(*gm, {4, 16});
  Tensor x = Tensor::randn({4, 16});
  EXPECT_TRUE(allclose(engine->run(x), gm->run(x), 1e-4, 1e-5));
  // linear+relu fused once.
  EXPECT_EQ(engine->stats().fused_relus, 1);
}

TEST(Engine, ResNet18MatchesEagerAndFuses) {
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  auto engine = trt::Engine::build(*gm, {1, 3, 32, 32});
  Tensor x = Tensor::randn({1, 3, 32, 32});
  Tensor eager = gm->run(x);
  Tensor fast = engine->run(x);
  EXPECT_LT(max_abs_diff(fast, eager), 1e-2);
  EXPECT_EQ(engine->stats().fused_batchnorms, 20);
  EXPECT_GT(engine->stats().fused_relus, 8);
  EXPECT_GT(engine->stats().arena_bytes, 0u);
}

TEST(Engine, LearningToPaintActorMatchesEager) {
  auto model = nn::models::learning_to_paint_actor({9, 65, 8});
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  auto engine = trt::Engine::build(*gm, {1, 9, 32, 32});
  Tensor x = Tensor::randn({1, 9, 32, 32});
  EXPECT_LT(max_abs_diff(engine->run(x), gm->run(x)), 1e-3);
}

TEST(Engine, MemoryPlannerReusesBuffers) {
  // A 12-layer chain of equal-size relus needs only ~2 live buffers, so the
  // arena must be far smaller than 12 distinct outputs.
  auto f = [](Value x) -> Value {
    for (int i = 0; i < 12; ++i) x = fx::fn::relu(x);
    return x;
  };
  auto gm = fx::symbolic_trace(std::function<Value(Value)>(f));
  auto engine = trt::Engine::build(*gm, {64, 64});
  const std::size_t one_buffer = 64 * 64 * 4;
  EXPECT_LE(engine->stats().arena_bytes, 3 * one_buffer);
  Tensor x = Tensor::randn({64, 64});
  EXPECT_TRUE(allclose(engine->run(x), ops::relu(x)));
}

TEST(Engine, StaticShapeEnforced) {
  auto model = nn::models::mlp({8, 8});
  auto gm = fx::symbolic_trace(model);
  auto engine = trt::Engine::build(*gm, {2, 8});
  EXPECT_THROW(engine->run(Tensor::randn({3, 8})), std::invalid_argument);
}

TEST(Engine, UnsupportedOpRejected) {
  auto f = [](Value x) -> Value { return fx::fn::gelu(x); };
  auto gm = fx::symbolic_trace(std::function<Value(Value)>(f));
  EXPECT_THROW(trt::Engine::build(*gm, {2, 2}), std::invalid_argument);
}

TEST(Lower, FullySupportedModelBecomesOneEngine) {
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  Tensor x = Tensor::randn({1, 3, 32, 32});
  auto lowered = trt::lower_to_trtsim(gm, x);
  EXPECT_EQ(lowered.engine_segments, 1);
  EXPECT_EQ(lowered.eager_segments, 0);
  EXPECT_LT(max_abs_diff(lowered.module->run(x), gm->run(x)), 1e-2);
}

TEST(Lower, AutoSplitAroundUnsupportedOp) {
  // conv/relu (supported) -> gelu (unsupported) -> linear chain (supported):
  // expect engine / eager / engine segments, like the paper's automatic
  // scheduling of unsupported operations in non-optimized blocks.
  class Mixed : public nn::Module {
   public:
    Mixed() : nn::Module("Mixed") {
      register_module("conv", std::make_shared<nn::Conv2d>(3, 4, 3, 1, 1));
      register_module("relu", std::make_shared<nn::ReLU>());
      register_module("gelu", std::make_shared<nn::GELU>());
      register_module("flat", std::make_shared<nn::Flatten>(1));
      register_module("fc", std::make_shared<nn::Linear>(4 * 8 * 8, 10));
    }
    Value forward(const std::vector<Value>& in) override {
      Value x = (*get_submodule("conv"))(in.at(0));
      x = (*get_submodule("relu"))(x);
      x = (*get_submodule("gelu"))(x);  // not in the support table
      x = (*get_submodule("flat"))(x);
      return (*get_submodule("fc"))(x);
    }
  };
  auto model = std::make_shared<Mixed>();
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  Tensor x = Tensor::randn({1, 3, 8, 8});
  Tensor eager = gm->run(x);
  auto lowered = trt::lower_to_trtsim(gm, x);
  EXPECT_EQ(lowered.engine_segments, 2);
  EXPECT_EQ(lowered.eager_segments, 1);
  EXPECT_LT(max_abs_diff(lowered.module->run(x), eager), 1e-3);
}

TEST(Lower, LoweredModuleIsStillAModule) {
  // Section 5.4's interoperability claim holds for lowered models too: the
  // result is a GraphModule usable as a submodule and re-traceable.
  auto model = nn::models::mlp({8, 16, 4}, "relu");
  auto gm = fx::symbolic_trace(model);
  Tensor x = Tensor::randn({2, 8});
  auto lowered = trt::lower_to_trtsim(gm, x);
  auto retraced = fx::symbolic_trace(
      std::static_pointer_cast<nn::Module>(lowered.module));
  EXPECT_TRUE(allclose(retraced->run(x), gm->run(x), 1e-4, 1e-5));
}

TEST(Lower, SourceModuleIsNeverMutated) {
  // The engine's fusion passes rewrite module hierarchies and node meta;
  // they must do so on the engine's private copy only. split_module hands
  // every segment the source's root, so this covers lower_to_trtsim as well
  // as a direct Engine::build.
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  Tensor x = Tensor::randn({1, 3, 32, 32});
  passes::shape_prop(*gm, {x});
  const Tensor before = gm->run(x);
  const std::string code = gm->code();
  const std::string hierarchy = model->describe();
  std::map<std::string, nn::Module::Ptr> modules;
  std::vector<std::map<std::string, fx::MetaValue>> meta;
  for (const Node* n : gm->graph().nodes()) {
    if (n->op() == fx::Opcode::CallModule) {
      modules[n->target()] = gm->resolve_module(n->target());
    }
    meta.push_back(n->all_meta());
  }
  std::vector<std::pair<std::string, Tensor>> state;
  for (const auto& [name, t] : model->named_state()) {
    state.emplace_back(name, t.clone());
  }

  auto lowered = trt::lower_to_trtsim(gm, x);
  auto engine = trt::Engine::build(*gm, x.sizes());
  EXPECT_EQ(engine->stats().fused_batchnorms, 20);

  EXPECT_TRUE(bit_equal(gm->run(x), before));
  EXPECT_EQ(gm->code(), code);
  EXPECT_EQ(model->describe(), hierarchy);
  std::size_t i = 0;
  for (const Node* n : gm->graph().nodes()) {
    if (n->op() == fx::Opcode::CallModule) {
      EXPECT_EQ(gm->resolve_module(n->target()), modules.at(n->target()))
          << n->target();
    }
    ASSERT_LT(i, meta.size());
    EXPECT_TRUE(n->all_meta() == meta[i++]) << n->name();
  }
  const auto after_state = model->named_state();
  ASSERT_EQ(after_state.size(), state.size());
  for (std::size_t k = 0; k < state.size(); ++k) {
    EXPECT_EQ(after_state[k].first, state[k].first);
    EXPECT_TRUE(bit_equal(after_state[k].second, state[k].second))
        << state[k].first;
  }
  // Nothing was folded away: the source still has all its pairs to fuse.
  EXPECT_EQ(passes::fuse_conv_bn(*gm), 20);
}

TEST(Engine, ConcurrentRunsBitEqualSerial) {
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  auto engine = trt::Engine::build(*gm, {1, 3, 32, 32});
  constexpr int kThreads = 4;
  constexpr int kRuns = 8;
  std::vector<Tensor> inputs, serial;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(Tensor::randn({1, 3, 32, 32}));
    serial.push_back(engine->run(inputs.back()));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRuns; ++r) {
        const auto i = static_cast<std::size_t>(t);
        if (!bit_equal(engine->run(inputs[i]), serial[i])) ++mismatches[i];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace fxcpp
