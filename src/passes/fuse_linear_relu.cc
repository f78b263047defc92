#include "passes/fuse_linear_relu.h"

#include <memory>
#include <typeinfo>

#include "nn/layers.h"

namespace fxcpp::passes {

namespace {

bool is_relu_node(const fx::GraphModule& gm, const fx::Node& n) {
  if (n.op() == fx::Opcode::CallFunction || n.op() == fx::Opcode::CallMethod) {
    return n.target() == "relu";
  }
  if (n.op() == fx::Opcode::CallModule) {
    return dynamic_cast<const nn::ReLU*>(
               gm.resolve_module(n.target()).get()) != nullptr;
  }
  return false;
}

}  // namespace

int fuse_linear_relu(fx::GraphModule& gm) {
  fx::Graph& g = gm.graph();
  int fused_count = 0;
  for (fx::Node* relu_node : g.nodes()) {
    if (!is_relu_node(gm, *relu_node)) continue;
    if (relu_node->args().size() != 1 || !relu_node->args()[0].is_node()) {
      continue;
    }
    fx::Node* prod = relu_node->args()[0].node();
    // The producer's output must feed only this ReLU; another consumer
    // needs the pre-clamp values.
    if (prod->users().size() != 1) continue;

    if (prod->op() == fx::Opcode::CallFunction &&
        (prod->target() == "linear" || prod->target() == "conv2d")) {
      prod->set_target(prod->target() + "_relu");
    } else if (prod->op() == fx::Opcode::CallModule) {
      // Exact-type checks: the fused modules are-a Linear / Conv2d but
      // already clamp; fusing them again would be a no-op rewrite that
      // loops on repeated runs.
      const auto m = gm.resolve_module(prod->target());
      if (!m) continue;
      nn::Module::Ptr fused;
      if (typeid(*m) == typeid(nn::Linear)) {
        fused = std::make_shared<nn::LinearReLU>(
            static_cast<const nn::Linear&>(*m));
      } else if (typeid(*m) == typeid(nn::Conv2d)) {
        fused = std::make_shared<nn::Conv2dReLU>(
            static_cast<const nn::Conv2d&>(*m));
      } else {
        continue;
      }
      gm.root()->set_submodule(prod->target(), fused);
    } else {
      continue;
    }

    // The producer now computes the clamped values; its recorded meta (and
    // that of the rewired ReLU users) described the pre-fusion program.
    prod->invalidate_shape_meta();
    for (fx::Node* user : relu_node->users()) user->invalidate_shape_meta();
    relu_node->replace_all_uses_with(prod);
    g.erase_node(relu_node);
    ++fused_count;
  }
  if (fused_count > 0) {
    g.lint();
    gm.recompile();
  }
  return fused_count;
}

}  // namespace fxcpp::passes
