// Trace-aware functional operators — the __torch_function__ dispatch layer
// (Section 4.1).
//
// Each function computes eagerly when all inputs are concrete Tensors and
// records a call_function Node when any input is a Proxy. Model code written
// against this namespace therefore runs identically in eager mode and under
// symbolic tracing.
//
// Every target is also registered in OpRegistry::functions() so Interpreters
// and compiled tapes can execute the recorded Nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/value.h"
#include "tensor/shape.h"

namespace fxcpp::fx::fn {

// --- elementwise ---------------------------------------------------------
Value add(const Value& a, const Value& b);
Value add(const Value& a, double s);
Value sub(const Value& a, const Value& b);
Value sub(const Value& a, double s);
Value mul(const Value& a, const Value& b);
Value mul(const Value& a, double s);
Value div(const Value& a, const Value& b);
Value div(const Value& a, double s);
Value neg(const Value& x);
Value relu(const Value& x);
Value gelu(const Value& x);
Value sigmoid(const Value& x);
Value tanh(const Value& x);
Value selu(const Value& x);
Value sqrt(const Value& x);
Value exp(const Value& x);
Value abs(const Value& x);
Value dropout(const Value& x, double p, bool training);

// --- linear algebra --------------------------------------------------------
Value matmul(const Value& a, const Value& b);
Value linear(const Value& x, const Value& w, const Value& b);
// Fused linear+ReLU (the fusion pass's target; bit-equal to
// relu(linear(...)) — the clamp runs in the GEMM epilogue).
Value linear_relu(const Value& x, const Value& w, const Value& b);
Value transpose(const Value& x, std::int64_t d0, std::int64_t d1);
Value embedding(const Value& weight, const Value& indices);

// --- conv / pool -----------------------------------------------------------
Value conv2d(const Value& x, const Value& w, const Value& b,
             std::vector<std::int64_t> stride, std::vector<std::int64_t> padding);
// Fused conv2d+ReLU (the fusion pass's target; bit-equal to
// relu(conv2d(...))).
Value conv2d_relu(const Value& x, const Value& w, const Value& b,
                  std::vector<std::int64_t> stride,
                  std::vector<std::int64_t> padding);
Value max_pool2d(const Value& x, std::vector<std::int64_t> kernel,
                 std::vector<std::int64_t> stride,
                 std::vector<std::int64_t> padding);
Value avg_pool2d(const Value& x, std::vector<std::int64_t> kernel,
                 std::vector<std::int64_t> stride);
Value adaptive_avg_pool2d(const Value& x, std::vector<std::int64_t> out_hw);

// --- normalization -----------------------------------------------------------
Value batch_norm(const Value& x, const Value& gamma, const Value& beta,
                 const Value& mean, const Value& var, double eps);
Value layer_norm(const Value& x, const Value& gamma, const Value& beta,
                 double eps);
Value softmax(const Value& x, std::int64_t dim);

// --- shape -------------------------------------------------------------------
Value reshape(const Value& x, std::vector<std::int64_t> shape);
Value flatten(const Value& x, std::int64_t start_dim);
Value cat(const std::vector<Value>& xs, std::int64_t dim);
Value sum(const Value& x);
Value mean(const Value& x);

// Tuple element access (for multi-output call_module Nodes produced by
// split_module); recorded as call_function getitem.
Value getitem(const Value& tuple, std::int64_t index);

// --- quantization primitives (inserted by quant::convert) --------------------
Value quantize_per_tensor(const Value& x, double scale, std::int64_t zero_point);
Value dequantize(const Value& x);
Value quantized_relu(const Value& x);
Value quantized_add(const Value& a, const Value& b, double out_scale,
                    std::int64_t out_zp);

// Force registration of all builtin targets (called lazily by the
// registries; exposed for explicitness in tests).
void ensure_registered();

}  // namespace fxcpp::fx::fn
