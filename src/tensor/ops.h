// Eager tensor operators — the "publicly documented operators in PyTorch"
// that fx traces through (design principle 2 in Section 3 of the paper).
//
// Every operator here has a twin in the trace-aware functional layer
// (core/functional.h): when inputs are concrete these kernels run; when an
// input is a tracing Proxy, a call_function Node is recorded instead.
//
// All float kernels operate on Float32. Binary elementwise ops support full
// NumPy-style broadcasting. NCHW layout for convolution/pooling.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace fxcpp::ops {

// --- elementwise binary (broadcasting) ----------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor add(const Tensor& a, double s);
Tensor sub(const Tensor& a, double s);
Tensor mul(const Tensor& a, double s);
Tensor div(const Tensor& a, double s);

// --- elementwise unary ---------------------------------------------------
Tensor neg(const Tensor& x);
Tensor relu(const Tensor& x);
// Exact (erf-based) GELU.
Tensor gelu(const Tensor& x);
Tensor sigmoid(const Tensor& x);
Tensor tanh(const Tensor& x);
// SELU with the canonical alpha/lambda constants (DeepRecommender's
// activation in the Section 6.2.1 experiment).
Tensor selu(const Tensor& x);
Tensor exp(const Tensor& x);
Tensor sqrt(const Tensor& x);
Tensor abs(const Tensor& x);
Tensor dropout(const Tensor& x, double p, bool training);

// --- linear algebra -------------------------------------------------------
// 2-D matrix product [M,K] x [K,N] -> [M,N]; also accepts a leading batch
// dim on `a` ([B,M,K] x [K,N]). Blocked and parallelized over rows.
Tensor matmul(const Tensor& a, const Tensor& b);
// x [.., in] @ w[out, in]^T + b[out]; the nn.Linear kernel.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);
// linear followed by ReLU, with the clamp fused into the GEMM epilogue —
// bit-equal to relu(linear(x, w, b)); the fusion pass rewrites to this.
Tensor linear_relu(const Tensor& x, const Tensor& w, const Tensor& b);
// Swap two dims (materializes a contiguous result).
Tensor transpose(const Tensor& x, int d0, int d1);

// --- convolution / pooling (NCHW) ----------------------------------------
// x [N,C,H,W], w [O,C,kh,kw], optional bias [O]; one GEMM over the whole
// batch, its B panels packed straight from the NCHW input block by block.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::vector<std::int64_t> stride,
              std::vector<std::int64_t> padding);
// conv2d followed by ReLU, the clamp fused into the GEMM epilogue like
// linear_relu — bit-equal to relu(conv2d(...)).
Tensor conv2d_relu(const Tensor& x, const Tensor& w, const Tensor& b,
                   std::vector<std::int64_t> stride,
                   std::vector<std::int64_t> padding);
Tensor max_pool2d(const Tensor& x, std::vector<std::int64_t> kernel,
                  std::vector<std::int64_t> stride,
                  std::vector<std::int64_t> padding);
Tensor avg_pool2d(const Tensor& x, std::vector<std::int64_t> kernel,
                  std::vector<std::int64_t> stride);
// Pool to an exact output spatial size (PyTorch AdaptiveAvgPool2d).
Tensor adaptive_avg_pool2d(const Tensor& x, std::vector<std::int64_t> out_hw);

// --- normalization ---------------------------------------------------------
// Inference-mode batch norm with running statistics.
Tensor batch_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  const Tensor& running_mean, const Tensor& running_var,
                  double eps);
// Training-mode batch norm: normalizes by batch statistics and updates the
// running stats in place (running <- (1-momentum)*running + momentum*batch).
Tensor batch_norm_train(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, Tensor& running_mean,
                        Tensor& running_var, double momentum, double eps);
// LayerNorm over the trailing dimension.
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  double eps);
Tensor softmax(const Tensor& x, int dim);

// --- reductions / shape -----------------------------------------------------
Tensor sum(const Tensor& x);
Tensor mean(const Tensor& x);
// Reduce one dim (keepdim=false).
Tensor sum_dim(const Tensor& x, int dim);
Tensor cat(const std::vector<Tensor>& xs, int dim);
Tensor reshape(const Tensor& x, Shape shape);
Tensor flatten(const Tensor& x, int start_dim);

// --- lookup -----------------------------------------------------------------
// weight [V, D], indices Int64 [..] -> [.., D].
Tensor embedding(const Tensor& weight, const Tensor& indices);

}  // namespace fxcpp::ops
