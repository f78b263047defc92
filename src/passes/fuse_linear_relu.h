// Linear/ReLU and Conv2d/ReLU fusion targeting the micro-kernel layer's
// fused epilogue.
//
// A Linear or Conv2d followed (exclusively) by a ReLU lowers to one
// linear_relu / conv2d_relu call: the clamp runs inside the GEMM epilogue
// while the output tile is still in registers, so the fused form skips one
// full read+write pass over the activation. kernels::sgemm applies ReLU as
// max(acc, +0.0f) after the same full-K accumulation chain the unfused path
// uses, so the rewrite is bit-exact, not just numerically close.
//
// Matches both recorded forms:
//   * call_module nn::Linear / nn::Conv2d -> ReLU  (module swapped for
//     nn::LinearReLU / nn::Conv2dReLU, sharing the original parameter
//     tensors)
//   * call_function "linear" / "conv2d" -> "relu"  (target rewritten to
//     "linear_relu" / "conv2d_relu")
// and the mixed module/function combinations. Like fuse_conv_bn, the
// producer must have the ReLU as its only user or fusion would change what
// other consumers observe. Run fuse_conv_bn first: a conv already carrying
// its ReLU is no longer a plain Conv2d, so a BN after it is not folded.
#pragma once

#include "core/graph_module.h"

namespace fxcpp::passes {

// Fuse every eligible Linear->ReLU and Conv2d->ReLU pair in gm. Returns the
// number fused.
int fuse_linear_relu(fx::GraphModule& gm);

}  // namespace fxcpp::passes
