// jit baseline front-end tests (Figure 5): the script IR must be much
// larger than the trace IR, which must be larger than the fx IR, on the
// same ResNet-50 topology — the paper's IR-complexity ordering.
#include <gtest/gtest.h>

#include "core/tracer.h"
#include "jit/script.h"
#include "jit/trace.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet.h"
#include "passes/fuse_linear_relu.h"

namespace fxcpp {
namespace {

TEST(JitIr, BuilderAndPrinting) {
  jit::JGraph g;
  const std::string self = g.add_input("self");
  const std::string x = g.add_input("x");
  const std::string w = g.emit("prim::GetAttr", {self}, "name=\"weight\"");
  const std::string lst = g.int_list({2, 2});
  const std::string y = g.emit("aten::conv2d", {x, w, lst});
  g.emit_void("prim::Return", {y});
  EXPECT_EQ(g.count_ops(), 6);  // getattr + 2 const + list + conv + return
  EXPECT_EQ(g.count_kind("prim::Constant"), 2);
  const std::string s = g.to_string();
  EXPECT_NE(s.find("prim::GetAttr[name=\"weight\"]"), std::string::npos);
  EXPECT_NE(s.find("aten::conv2d"), std::string::npos);
}

TEST(JitIr, SubBlocksCounted) {
  jit::JGraph g;
  const std::string c = g.const_bool(true);
  g.emit("prim::If", {c});
  {
    jit::JGraph::BlockScope b(g, g.last_node());
    g.const_int(1);
    g.const_int(2);
  }
  EXPECT_EQ(g.count_ops(), 4);
  EXPECT_NE(g.to_string().find("block:"), std::string::npos);
}

TEST(JitScript, EmitsControlFlowForResidualBlocks) {
  auto model = nn::models::resnet18(8, 10);
  auto g = jit::script(*model);
  // Every BasicBlock contributes a downsample prim::If; Conv2d adds a
  // padding-mode If; BatchNorm adds assert + training Ifs.
  EXPECT_GT(g->count_kind("prim::If"), 20);
  EXPECT_GT(g->count_kind("prim::Constant"), 200);
  EXPECT_GT(g->count_kind("prim::ListConstruct"), 50);
  EXPECT_EQ(g->count_kind("aten::conv2d"), 20);
  EXPECT_EQ(g->count_kind("aten::batch_norm"), 20);
}

TEST(JitTrace, RecordsConstantsButNoControlFlow) {
  auto model = nn::models::resnet18(8, 10);
  auto gm = fx::symbolic_trace(model);
  auto g = jit::trace(*gm);
  EXPECT_EQ(g->count_kind("prim::If"), 0);
  EXPECT_EQ(g->count_kind("prim::Loop"), 0);
  // Constants are pooled (as after TorchScript's ConstantPooling pass) but
  // list construction and attribute chains are still materialized.
  EXPECT_GT(g->count_kind("prim::Constant"), 5);
  EXPECT_GT(g->count_kind("prim::ListConstruct"), 50);
  EXPECT_GT(g->count_kind("prim::GetAttr"), 50);
  EXPECT_EQ(g->count_kind("aten::conv2d"), 20);
}

// The paper's headline ordering (Section 6.1): fx < trace < script, with fx
// roughly half of trace and script several times trace.
TEST(JitComparison, Figure5OrderingOnResNet50) {
  auto model = nn::models::resnet50(8, 100);
  auto gm = fx::symbolic_trace(model);
  const int fx_ops = static_cast<int>(gm->graph().size());

  auto traced = jit::trace(*gm);
  const int trace_ops = traced->count_ops();

  auto scripted = jit::script(*model);
  const int script_ops = scripted->count_ops();

  EXPECT_LT(fx_ops, trace_ops);
  EXPECT_LT(trace_ops, script_ops);
  EXPECT_LT(2 * fx_ops, trace_ops);       // fx is less than half of trace
  EXPECT_GT(script_ops, trace_ops * 3 / 2);  // script is far richer still
}

TEST(JitScript, MlpFallbackChain) {
  auto model = nn::models::mlp({8, 16, 4}, "relu");
  auto g = jit::script(*model);
  EXPECT_EQ(g->count_kind("aten::linear"), 2);
  EXPECT_EQ(g->count_kind("aten::relu"), 1);
  EXPECT_GT(g->count_kind("prim::GetAttr"), 4);
}

// Fused layers are-a Linear / Conv2d whose clamp runs in the kernel
// epilogue; trace and script must still spell the ReLU out.
TEST(JitTrace, FusedLinearReluKeepsItsRelu) {
  auto unfused = fx::symbolic_trace(nn::models::mlp({8, 16, 4}, "relu"));
  auto fused = fx::symbolic_trace(nn::models::mlp({8, 16, 4}, "relu"));
  ASSERT_EQ(passes::fuse_linear_relu(*fused), 1);
  const auto ref = jit::trace(*unfused);
  const auto got = jit::trace(*fused);
  EXPECT_EQ(ref->count_kind("aten::relu"), 1);
  EXPECT_EQ(got->count_kind("aten::relu"), ref->count_kind("aten::relu"));
  EXPECT_EQ(got->count_kind("aten::linear"), 2);
  EXPECT_EQ(got->count_ops(), ref->count_ops());
}

TEST(JitTrace, FusedConvReluKeepsItsRelu) {
  auto make = [] {
    return fx::symbolic_trace(std::make_shared<nn::Sequential>(
        std::vector<nn::Module::Ptr>{std::make_shared<nn::Conv2d>(2, 3, 3),
                                     std::make_shared<nn::ReLU>()}));
  };
  auto unfused = make();
  auto fused = make();
  ASSERT_EQ(passes::fuse_linear_relu(*fused), 1);
  const auto ref = jit::trace(*unfused);
  const auto got = jit::trace(*fused);
  EXPECT_EQ(ref->count_kind("aten::relu"), 1);
  EXPECT_EQ(got->count_kind("aten::relu"), ref->count_kind("aten::relu"));
  EXPECT_EQ(got->count_kind("aten::conv2d"), 1);
}

TEST(JitScript, FusedLayersKeepTheirRelu) {
  const auto lin = std::make_shared<nn::Linear>(8, 16);
  const auto conv = std::make_shared<nn::Conv2d>(2, 3, 3);
  const nn::Sequential unfused(std::vector<nn::Module::Ptr>{
      lin, std::make_shared<nn::ReLU>(), conv, std::make_shared<nn::ReLU>()});
  const nn::Sequential fused(std::vector<nn::Module::Ptr>{
      std::make_shared<nn::LinearReLU>(*lin),
      std::make_shared<nn::Conv2dReLU>(*conv)});
  const auto ref = jit::script(unfused);
  const auto got = jit::script(fused);
  EXPECT_EQ(ref->count_kind("aten::relu"), 2);
  EXPECT_EQ(got->count_kind("aten::relu"), ref->count_kind("aten::relu"));
  EXPECT_EQ(got->count_kind("aten::linear"), 1);
  EXPECT_EQ(got->count_kind("aten::conv2d"), 1);
}

}  // namespace
}  // namespace fxcpp
