// Reverse-mode autodiff as a graph transform: gradients checked against
// central finite differences on functions, modules, and full models.
#include <gtest/gtest.h>

#include <cmath>

#include "core/functional.h"
#include "core/tracer.h"
#include "runtime/rng.h"
#include "nn/models/mlp.h"
#include "passes/autodiff.h"
#include "passes/fuse_linear_relu.h"
#include "tensor/ops.h"

namespace fxcpp {
namespace {

using fx::Value;

// d(sum f(x))/dx_i by central differences.
Tensor finite_diff_input(fx::GraphModule& gm, const Tensor& x,
                         double eps = 1e-3) {
  Tensor grad(x.sizes(), DType::Float32);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x.clone();
    xp.set_flat(i, x.at_flat(i) + eps);
    Tensor xm = x.clone();
    xm.set_flat(i, x.at_flat(i) - eps);
    const double fp = ops::sum(gm.run(xp)).item();
    const double fm = ops::sum(gm.run(xm)).item();
    grad.set_flat(i, (fp - fm) / (2.0 * eps));
  }
  return grad;
}

// d(sum f)/dparam_i by central differences for a named parameter.
Tensor finite_diff_param(fx::GraphModule& gm, const std::string& name,
                         const Tensor& x, double eps = 1e-3) {
  Tensor p = gm.root()->get_parameter(name);
  Tensor grad(p.sizes(), DType::Float32);
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    const double orig = p.at_flat(i);
    Tensor pp = p.clone();
    pp.set_flat(i, orig + eps);
    gm.root()->set_parameter(name, pp);
    gm.recompile();
    const double fp = ops::sum(gm.run(x)).item();
    Tensor pm = p.clone();
    pm.set_flat(i, orig - eps);
    gm.root()->set_parameter(name, pm);
    gm.recompile();
    const double fm = ops::sum(gm.run(x)).item();
    grad.set_flat(i, (fp - fm) / (2.0 * eps));
  }
  gm.root()->set_parameter(name, p);
  gm.recompile();
  return grad;
}

Tensor grad_of(const std::vector<std::pair<std::string, Tensor>>& grads,
               const std::string& name) {
  for (const auto& [n, g] : grads) {
    if (n == name) return g;
  }
  throw std::out_of_range("no gradient named " + name);
}

TEST(Autodiff, ElementwiseChain) {
  rt::Rng::global().reseed(77);
  auto gm = fx::symbolic_trace(std::function<Value(Value)>([](Value x) {
    return fx::fn::tanh(fx::fn::mul(fx::fn::sigmoid(x), 2.0) - 0.5);
  }));
  Tensor x = Tensor::randn({6});
  auto gg = passes::build_gradient_graph(*gm, {x});
  Tensor got = grad_of(gg.run({x}), "x");
  Tensor want = finite_diff_input(*gm, x);
  EXPECT_LT(max_abs_diff(got, want), 1e-3);
}

TEST(Autodiff, ProductAndQuotientRules) {
  fx::Tracer tracer;
  auto gm = tracer.trace_function(
      [](const std::vector<Value>& in) {
        return fx::fn::div(fx::fn::mul(in.at(0), in.at(1)),
                           fx::fn::add(fx::fn::mul(in.at(1), in.at(1)), 1.0));
      },
      {"a", "b"});
  Tensor a = Tensor::randn({5}), b = Tensor::randn({5});
  auto gg = passes::build_gradient_graph(*gm, {a, b});
  const auto grads = gg.run({a, b});
  // Analytic: f = a*b/(b^2+1); df/da = b/(b^2+1).
  Tensor da = grad_of(grads, "a");
  for (std::int64_t i = 0; i < 5; ++i) {
    const double bv = b.at_flat(i);
    EXPECT_NEAR(da.at_flat(i), bv / (bv * bv + 1.0), 1e-4);
  }
}

TEST(Autodiff, LinearLayerMatchesFiniteDifferences) {
  rt::Rng::global().reseed(77);
  auto model = nn::models::mlp({6, 4}, "relu");
  auto gm = fx::symbolic_trace(model);
  Tensor x = Tensor::randn({3, 6});
  auto gg = passes::build_gradient_graph(*gm, {x});
  const auto grads = gg.run({x});

  EXPECT_LT(max_abs_diff(grad_of(grads, "x"), finite_diff_input(*gm, x)),
            2e-3);
  EXPECT_LT(max_abs_diff(grad_of(grads, "body.0.weight"),
                         finite_diff_param(*gm, "body.0.weight", x)),
            2e-2);
  EXPECT_LT(max_abs_diff(grad_of(grads, "body.0.bias"),
                         finite_diff_param(*gm, "body.0.bias", x)),
            2e-2);
}

TEST(Autodiff, DeepMlpWithActivations) {
  rt::Rng::global().reseed(77);
  auto model = nn::models::mlp({5, 8, 8, 3}, "tanh");
  auto gm = fx::symbolic_trace(model);
  Tensor x = Tensor::randn({2, 5});
  auto gg = passes::build_gradient_graph(*gm, {x});
  const auto grads = gg.run({x});
  EXPECT_LT(max_abs_diff(grad_of(grads, "x"), finite_diff_input(*gm, x)),
            5e-3);
  EXPECT_LT(max_abs_diff(grad_of(grads, "body.2.weight"),
                         finite_diff_param(*gm, "body.2.weight", x)),
            5e-2);
}

TEST(Autodiff, ConvolutionGradients) {
  // Smooth activation: finite differences are exact to O(eps^2) only away
  // from ReLU kinks, so the reference uses tanh.
  class ConvNet : public nn::Module {
   public:
    ConvNet() : nn::Module("ConvNet") {
      register_module("conv", std::make_shared<nn::Conv2d>(2, 3, 3, 1, 1));
      register_module("act", std::make_shared<nn::Tanh>());
    }
    Value forward(const std::vector<Value>& in) override {
      return fx::fn::mean((*get_submodule("act"))((*get_submodule("conv"))(in.at(0))));
    }
  };
  rt::Rng::global().reseed(1234);  // deterministic weights/inputs
  auto model = std::make_shared<ConvNet>();
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  Tensor x = Tensor::randn({1, 2, 5, 5});
  auto gg = passes::build_gradient_graph(*gm, {x});
  const auto grads = gg.run({x});
  EXPECT_LT(max_abs_diff(grad_of(grads, "x"), finite_diff_input(*gm, x)),
            2e-3);
  EXPECT_LT(max_abs_diff(grad_of(grads, "conv.weight"),
                         finite_diff_param(*gm, "conv.weight", x)),
            2e-3);
  EXPECT_LT(max_abs_diff(grad_of(grads, "conv.bias"),
                         finite_diff_param(*gm, "conv.bias", x)),
            2e-3);
}

TEST(Autodiff, BatchNormEvalGradients) {
  rt::Rng::global().reseed(77);
  class BnNet : public nn::Module {
   public:
    BnNet() : nn::Module("BnNet") {
      auto bn = std::make_shared<nn::BatchNorm2d>(2);
      // Non-trivial statistics so the affine path is exercised.
      bn->param("running_mean") = Tensor::from_vector({0.3f, -0.7f}, {2});
      bn->param("running_var") = Tensor::from_vector({1.5f, 0.6f}, {2});
      bn->param("weight") = Tensor::from_vector({1.2f, 0.8f}, {2});
      bn->param("bias") = Tensor::from_vector({0.1f, -0.2f}, {2});
      register_module("bn", bn);
    }
    Value forward(const std::vector<Value>& in) override {
      return fx::fn::sum((*get_submodule("bn"))(in.at(0)));
    }
  };
  auto model = std::make_shared<BnNet>();
  auto gm = fx::symbolic_trace(std::static_pointer_cast<nn::Module>(model));
  Tensor x = Tensor::randn({2, 2, 3, 3});
  auto gg = passes::build_gradient_graph(*gm, {x});
  const auto grads = gg.run({x});
  EXPECT_LT(max_abs_diff(grad_of(grads, "x"), finite_diff_input(*gm, x)),
            2e-3);
  EXPECT_LT(max_abs_diff(grad_of(grads, "bn.weight"),
                         finite_diff_param(*gm, "bn.weight", x)),
            2e-2);
  EXPECT_LT(max_abs_diff(grad_of(grads, "bn.bias"),
                         finite_diff_param(*gm, "bn.bias", x)),
            2e-2);
}

TEST(Autodiff, UnusedInputGetsZeroGradient) {
  fx::Tracer tracer;
  auto gm = tracer.trace_function(
      [](const std::vector<Value>& in) { return fx::fn::relu(in.at(0)); },
      {"a", "b"});
  Tensor a = Tensor::randn({3}), b = Tensor::randn({3});
  auto gg = passes::build_gradient_graph(*gm, {a, b});
  Tensor gb = grad_of(gg.run({a, b}), "b");
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(gb.at_flat(i), 0.0);
}

TEST(Autodiff, UnsupportedOpHasClearError) {
  auto gm = fx::symbolic_trace(std::function<Value(Value)>(
      [](Value x) { return fx::fn::softmax(x, -1); }));
  Tensor x = Tensor::randn({2, 4});
  try {
    passes::build_gradient_graph(*gm, {x});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("softmax"), std::string::npos);
  }
}

TEST(Autodiff, GradientGraphIsInspectableAndOptimizable) {
  // The gradient is itself a GraphModule: code renders, DCE runs, and it is
  // re-executable — the "transform result stays in the ecosystem" property.
  auto model = nn::models::mlp({4, 4}, "relu");
  auto gm = fx::symbolic_trace(model);
  Tensor x = Tensor::randn({2, 4});
  auto gg = passes::build_gradient_graph(*gm, {x});
  EXPECT_NE(gg.module->code().find("def forward"), std::string::npos);
  EXPECT_NO_THROW(gg.module->graph().lint());
  auto g1 = gg.run({x});
  auto g2 = gg.run({x});
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_TRUE(allclose(g1[i].second, g2[i].second));
  }
}

// Fused layers (LinearReLU / Conv2dReLU) clamp in the kernel epilogue; their
// gradients must match the unfused Linear/Conv2d -> ReLU pair's.
void expect_fused_grads_match(fx::GraphModule& unfused, fx::GraphModule& fused,
                              const Tensor& x) {
  ASSERT_EQ(passes::fuse_linear_relu(fused), 1);
  const auto ref = passes::build_gradient_graph(unfused, {x}).run({x});
  const auto got = passes::build_gradient_graph(fused, {x}).run({x});
  ASSERT_EQ(got.size(), ref.size());
  for (const auto& [name, g] : ref) {
    EXPECT_TRUE(allclose(grad_of(got, name), g)) << name;
  }
}

TEST(Autodiff, FusedLinearReluMatchesUnfused) {
  auto make = [] {
    rt::Rng::global().reseed(77);
    return fx::symbolic_trace(nn::models::mlp({8, 16, 4}, "relu"));
  };
  auto unfused = make();
  auto fused = make();
  expect_fused_grads_match(*unfused, *fused, Tensor::randn({3, 8}));
}

TEST(Autodiff, FusedConvReluMatchesUnfused) {
  class ConvReluNet : public nn::Module {
   public:
    ConvReluNet() : nn::Module("ConvReluNet") {
      register_module("conv", std::make_shared<nn::Conv2d>(2, 3, 3, 1, 1));
      register_module("act", std::make_shared<nn::ReLU>());
    }
    Value forward(const std::vector<Value>& in) override {
      return fx::fn::mean(
          (*get_submodule("act"))((*get_submodule("conv"))(in.at(0))));
    }
  };
  auto make = [] {
    rt::Rng::global().reseed(1234);
    return fx::symbolic_trace(std::make_shared<ConvReluNet>());
  };
  auto unfused = make();
  auto fused = make();
  expect_fused_grads_match(*unfused, *fused, Tensor::randn({1, 2, 5, 5}));
}

}  // namespace
}  // namespace fxcpp
