// Analysis & transform pass tests: shape propagation (naive and symbolic,
// including the Figure 4 divergence), FLOPs estimation, graph drawing,
// cleanup passes, and Conv-BN fusion numerics.
#include <gtest/gtest.h>

#include "core/functional.h"
#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet.h"
#include "nn/models/transformer.h"
#include "passes/cleanup.h"
#include "passes/flops.h"
#include "passes/fuse_conv_bn.h"
#include "passes/graph_drawer.h"
#include "passes/memory_planner.h"
#include "passes/shape_prop.h"
#include "passes/symbolic_shapes.h"
#include "tensor/ops.h"

namespace fxcpp {
namespace {

using fx::Node;
using fx::Opcode;
using fx::Value;
using passes::SymDim;
using passes::SymShape;

TEST(ShapeProp, AnnotatesResNetNodes) {
  auto model = nn::models::resnet50(8, 10);
  auto gm = fx::symbolic_trace(model);
  passes::shape_prop(*gm, {Tensor::randn({1, 3, 32, 32})});
  int annotated = 0;
  for (const Node* n : gm->graph().nodes()) {
    if (n->has_shape()) ++annotated;
  }
  // Every node carries a shape (the output node reflects the return value).
  EXPECT_EQ(annotated, static_cast<int>(gm->graph().size()));
  // The final fc output.
  for (const Node* n : gm->graph().nodes()) {
    if (n->target() == "fc") {
      EXPECT_EQ(n->shape(), (Shape{1, 10}));
    }
  }
}

TEST(Flops, LinearAndConvFormulas) {
  auto model = nn::models::mlp({16, 32, 8});
  auto gm = fx::symbolic_trace(model);
  passes::shape_prop(*gm, {Tensor::randn({2, 16})});
  const auto report = passes::estimate_cost(*gm);
  // 2 linears: 2*2*16*32 + 2*2*32*8 = 2048 + 1024... plus relu numel.
  const double expected_linear = 2.0 * 2 * 16 * 32 + 2.0 * 2 * 32 * 8;
  EXPECT_GE(report.total_flops, expected_linear);
  EXPECT_LT(report.total_flops, expected_linear * 1.1);
  EXPECT_GT(report.param_bytes, 0.0);
  EXPECT_FALSE(report.to_table().empty());
}

TEST(Flops, MissingShapeMetaIsSurfacedNotSilentZero) {
  // Freshly traced, no ShapeProp: estimate_cost used to report total 0 with
  // no indication anything was skipped. Now every value-producing node lands
  // in `unmeasured`, its NodeCost says measured=false, and the table says so.
  auto model = nn::models::mlp({16, 32, 8});
  auto gm = fx::symbolic_trace(model);
  const auto report =
      passes::estimate_cost(static_cast<const fx::GraphModule&>(*gm));
  EXPECT_FALSE(report.unmeasured.empty());
  bool any_unmeasured_cost = false;
  for (const auto& c : report.per_node) {
    if (!c.measured) {
      any_unmeasured_cost = true;
      EXPECT_EQ(c.flops, 0.0);
    }
  }
  EXPECT_TRUE(any_unmeasured_cost);
  EXPECT_NE(report.to_table().find("unmeasured"), std::string::npos)
      << report.to_table();

  // The example-input overload auto-runs ShapeProp and measures everything.
  const auto measured = passes::estimate_cost(*gm, {Tensor::randn({2, 16})});
  EXPECT_TRUE(measured.unmeasured.empty());
  EXPECT_GT(measured.total_flops, 0.0);
  for (const auto& c : measured.per_node) EXPECT_TRUE(c.measured);

  // With meta present, the diagnostic disappears from the report.
  const auto clean = passes::estimate_cost(
      static_cast<const fx::GraphModule&>(*gm));
  EXPECT_TRUE(clean.unmeasured.empty());
  EXPECT_EQ(clean.to_table().find("missing shape meta"), std::string::npos);
}

// estimate_cost(gm, inputs) describes `inputs`, not the shapes of whatever
// last wrote the graph's meta; a plan-cache miss in between changes neither.
TEST(Flops, EstimateCostUsesTheGivenInputsAfterAPlanCacheMiss) {
  auto gm = fx::symbolic_trace(nn::models::resnet18(8, 10));
  const Tensor x8 = Tensor::randn({8, 3, 32, 32});
  passes::compile_planned(*gm, {x8});
  const double at8 = passes::estimate_cost(*gm, {x8}).total_flops;
  gm->run_planned(Tensor::randn({1, 3, 32, 32}));  // a miss at batch 1
  EXPECT_EQ(passes::estimate_cost(*gm, {x8}).total_flops, at8);
}

TEST(Flops, RooflineEstimate) {
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  passes::shape_prop(*gm, {Tensor::randn({1, 3, 32, 32})});
  const auto report = passes::estimate_cost(*gm);
  const double t = report.estimate_seconds(1e9, 1e9);
  EXPECT_GT(t, 0.0);
  // Compute-bound on this device model: estimate equals flops/1e9.
  EXPECT_NEAR(t, std::max(report.total_flops, report.total_bytes) / 1e9, 1e-9);
}

TEST(GraphDrawer, EmitsValidDot) {
  auto model = nn::models::mlp({4, 8, 2});
  auto gm = fx::symbolic_trace(model);
  passes::shape_prop(*gm, {Tensor::randn({1, 4})});
  const std::string dot = passes::to_dot(*gm, "mlp");
  EXPECT_EQ(dot.rfind("digraph \"mlp\" {", 0), 0u);
  EXPECT_NE(dot.find("call_module"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("[1, 8]"), std::string::npos);  // shape label
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Cleanup, CseMergesIdenticalExpressions) {
  auto f = [](Value x) -> Value {
    Value a = fx::fn::relu(x);
    Value b = fx::fn::relu(x);  // identical computation
    return a + b;
  };
  auto gm = fx::symbolic_trace(std::function<Value(Value)>(f));
  Tensor x = Tensor::randn({4});
  Tensor before = gm->run(x);
  EXPECT_EQ(passes::common_subexpression_elimination(*gm), 1);
  EXPECT_TRUE(allclose(gm->run(x), before));
  int relus = 0;
  for (const Node* n : gm->graph().nodes()) {
    if (n->target() == "relu") ++relus;
  }
  EXPECT_EQ(relus, 1);
}

TEST(Cleanup, CseSkipsDropout) {
  auto f = [](Value x) -> Value {
    Value a = fx::fn::dropout(x, 0.5, true);
    Value b = fx::fn::dropout(x, 0.5, true);
    return a + b;
  };
  auto gm = fx::symbolic_trace(std::function<Value(Value)>(f));
  EXPECT_EQ(passes::common_subexpression_elimination(*gm), 0);
}

TEST(Cleanup, ConstantFoldPrecomputesParamExpressions) {
  // w1 + w2 is constant wrt inputs: folded into one get_attr.
  class M : public nn::Module {
   public:
    M() : nn::Module("M") {
      register_parameter("w1", Tensor::randn({4}));
      register_parameter("w2", Tensor::randn({4}));
    }
    Value forward(const std::vector<Value>& in) override {
      return in.at(0) + (param_value("w1") + param_value("w2"));
    }
  };
  auto model = std::make_shared<M>();
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  Tensor x = Tensor::randn({4});
  Tensor before = gm->run(x);
  EXPECT_EQ(passes::constant_fold(*gm), 1);
  EXPECT_TRUE(allclose(gm->run(x), before));
  // Only one add (x + folded) remains.
  int adds = 0;
  for (const Node* n : gm->graph().nodes()) {
    if (n->target() == "add") ++adds;
  }
  EXPECT_EQ(adds, 1);
}

TEST(FuseConvBn, WeightFoldingFormula) {
  Tensor w = Tensor::randn({4, 3, 3, 3});
  Tensor b = Tensor::randn({4});
  Tensor mean = Tensor::randn({4});
  Tensor var = ops::add(ops::mul(Tensor::rand({4}), 0.5), 0.5);
  Tensor gamma = Tensor::randn({4});
  Tensor beta = Tensor::randn({4});

  auto fused = passes::fuse_conv_bn_weights(w, b, mean, var, gamma, beta, 1e-5);
  Tensor x = Tensor::randn({2, 3, 8, 8});
  Tensor ref = ops::batch_norm(ops::conv2d(x, w, b, {1, 1}, {1, 1}), gamma,
                               beta, mean, var, 1e-5);
  Tensor got = ops::conv2d(x, fused.weight, fused.bias, {1, 1}, {1, 1});
  EXPECT_LT(max_abs_diff(got, ref), 1e-3);
}

TEST(FuseConvBn, ResNetGraphFusion) {
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  Tensor x = Tensor::randn({1, 3, 32, 32});
  Tensor before = gm->run(x);

  const int fused = passes::fuse_conv_bn(*gm);
  // ResNet-18: 17 conv+bn in main path + 3 downsample pairs = 20.
  EXPECT_EQ(fused, 20);
  int bns = 0;
  for (const Node* n : gm->graph().nodes()) {
    if (n->op() == Opcode::CallModule &&
        gm->resolve_module(n->target())->kind() == "BatchNorm2d") {
      ++bns;
    }
  }
  EXPECT_EQ(bns, 0);
  EXPECT_LT(max_abs_diff(gm->run(x), before), 1e-2);
}

TEST(FuseConvBn, SkipsConvWithMultipleUsers) {
  class M : public nn::Module {
   public:
    M() : nn::Module("M") {
      register_module("conv", std::make_shared<nn::Conv2d>(2, 2, 3, 1, 1));
      register_module("bn", std::make_shared<nn::BatchNorm2d>(2));
    }
    Value forward(const std::vector<Value>& in) override {
      Value c = (*get_submodule("conv"))(in.at(0));
      Value b = (*get_submodule("bn"))(c);
      return b + c;  // conv output escapes: fusion is illegal
    }
  };
  auto gm = fx::symbolic_trace(
      std::static_pointer_cast<nn::Module>(std::make_shared<M>()));
  EXPECT_EQ(passes::fuse_conv_bn(*gm), 0);
}

TEST(SymbolicShapes, BasicBlockSinglePass) {
  auto model = nn::models::mlp({16, 32, 8});
  auto gm = fx::symbolic_trace(model);
  // Batch dim unknown, feature dim known.
  SymShape in{SymDim::dynamic(), SymDim::known(16)};
  SymShape out = passes::propagate_symbolic(*gm, {in});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].is_known);
  EXPECT_TRUE(out[1].is_known);
  EXPECT_EQ(out[1].value, 8);
}

TEST(SymbolicShapes, ConvNetPropagation) {
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  SymShape in{SymDim::dynamic(), SymDim::known(3), SymDim::known(32),
              SymDim::known(32)};
  SymShape out = passes::propagate_symbolic(*gm, {in});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].is_known);
  EXPECT_EQ(out[1].value, 10);
}

TEST(SymbolicShapes, JoinLattice) {
  SymShape a{SymDim::known(2), SymDim::known(3)};
  SymShape b{SymDim::known(4), SymDim::known(3)};
  auto j = passes::join(a, b);
  ASSERT_TRUE(j.has_value());
  EXPECT_FALSE((*j)[0].is_known);
  EXPECT_TRUE((*j)[1].is_known);
  EXPECT_FALSE(passes::join(a, SymShape{SymDim::known(2)}).has_value());
}

// Figure 4: the loop-carried cat never converges to a finite shape; the
// analysis reaches *dynamic* in the loop-carried dimension.
TEST(SymbolicShapes, Figure4LoopCatDiverges) {
  SymShape init{SymDim::known(1), SymDim::known(8)};
  auto r = passes::analyze_loop_cat(init, /*cat_dim=*/0);
  EXPECT_FALSE(r.result[0].is_known);   // [*dynamic*, N]
  EXPECT_TRUE(r.result[1].is_known);
  EXPECT_EQ(r.result[1].value, 8);
  EXPECT_LE(r.iterations, 3);  // diverges immediately, no long fixpoint
}

TEST(SymbolicShapes, TransformerIsBasicBlock) {
  // Section 5.5: attention traces with no control flow, so symbolic shapes
  // propagate in one pass.
  auto model = nn::models::transformer_encoder_layer(16, 32);
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  SymShape in{SymDim::known(12), SymDim::known(16)};
  SymShape out = passes::propagate_symbolic(*gm, {in});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].value, 16);
}

}  // namespace
}  // namespace fxcpp
