#include "passes/fuse_conv_bn.h"

#include <cmath>
#include <typeinfo>

#include "nn/layers.h"

namespace fxcpp::passes {

FusedConvParams fuse_conv_bn_weights(const Tensor& conv_w, const Tensor& conv_b,
                                     const Tensor& bn_mean, const Tensor& bn_var,
                                     const Tensor& bn_w, const Tensor& bn_b,
                                     double eps) {
  const std::int64_t out_ch = conv_w.size(0);
  const std::int64_t per_filter = conv_w.numel() / out_ch;

  FusedConvParams fused;
  fused.weight = conv_w.clone();
  fused.bias = Tensor::zeros({out_ch});

  float* w = fused.weight.data<float>();
  float* b = fused.bias.data<float>();
  const Tensor mean = bn_mean.contiguous(), var = bn_var.contiguous(),
               gamma = bn_w.contiguous(), beta = bn_b.contiguous();
  const float* mp = mean.data<float>();
  const float* vp = var.data<float>();
  const float* gp = gamma.data<float>();
  const float* bp = beta.data<float>();

  for (std::int64_t o = 0; o < out_ch; ++o) {
    const float scale = gp[o] / std::sqrt(vp[o] + static_cast<float>(eps));
    for (std::int64_t i = 0; i < per_filter; ++i) w[o * per_filter + i] *= scale;
    const float cb = conv_b.defined()
                         ? static_cast<float>(conv_b.at_flat(o))
                         : 0.f;
    b[o] = (cb - mp[o]) * scale + bp[o];
  }
  return fused;
}

int fuse_conv_bn(fx::GraphModule& gm) {
  fx::Graph& g = gm.graph();
  int fused_count = 0;
  for (fx::Node* bn_node : g.nodes()) {
    if (bn_node->op() != fx::Opcode::CallModule) continue;
    auto bn = std::dynamic_pointer_cast<nn::BatchNorm2d>(
        gm.resolve_module(bn_node->target()));
    if (!bn) continue;
    if (bn_node->args().size() != 1 || !bn_node->args()[0].is_node()) continue;
    fx::Node* conv_node = bn_node->args()[0].node();
    if (conv_node->op() != fx::Opcode::CallModule) continue;
    // The conv output must feed only this BN, or folding changes semantics.
    if (conv_node->users().size() != 1) continue;
    auto conv = std::dynamic_pointer_cast<nn::Conv2d>(
        gm.resolve_module(conv_node->target()));
    // Exact type: a Conv2dReLU clamps before the BN, so folding the BN into
    // its weights would move the BN ahead of the ReLU.
    if (!conv || typeid(*conv) != typeid(nn::Conv2d)) continue;

    const FusedConvParams params = fuse_conv_bn_weights(
        conv->param("weight"),
        conv->has_bias() ? conv->param("bias") : Tensor(),
        bn->param("running_mean"), bn->param("running_var"),
        bn->param("weight"), bn->param("bias"), bn->eps());

    // Install a fused conv (the source's configuration over the folded
    // tensors) at the conv's path, rewire the graph.
    gm.root()->set_submodule(
        conv_node->target(),
        std::make_shared<nn::Conv2d>(*conv, params.weight, params.bias));

    // The conv now computes the folded conv+BN values; its recorded meta
    // (and that of the rewired BN users) described the pre-fusion program.
    conv_node->invalidate_shape_meta();
    for (fx::Node* user : bn_node->users()) user->invalidate_shape_meta();
    bn_node->replace_all_uses_with(conv_node);
    g.erase_node(bn_node);
    ++fused_count;
  }
  if (fused_count > 0) {
    g.lint();
    gm.recompile();
  }
  return fused_count;
}

}  // namespace fxcpp::passes
