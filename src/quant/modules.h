// Quantized leaf modules — the int8 counterparts convert() swaps in for
// float layers, holding prepacked weights and output quantization
// parameters (the FBGEMM-backed torch.nn.quantized modules of the paper's
// evaluation).
#pragma once

#include <memory>

#include "core/module.h"
#include "nn/layers.h"
#include "tensor/quantized.h"

namespace fxcpp::quant {

// int8 x -> int8 y linear layer with prepacked symmetric int8 weights.
class QuantizedLinear : public nn::Module {
 public:
  QuantizedLinear(const nn::Linear& src, QParams out_qparams,
                  bool per_channel = true);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
  const QParams& out_qparams() const { return out_q_; }

 private:
  ops::PackedLinearWeight packed_;
  QParams out_q_;
};

// int8 NCHW convolution with prepacked weights.
class QuantizedConv2d : public nn::Module {
 public:
  QuantizedConv2d(const nn::Conv2d& src, QParams out_qparams);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
  const std::vector<std::int64_t>& stride() const { return packed_.stride; }
  const std::vector<std::int64_t>& padding() const { return packed_.padding; }

 private:
  ops::PackedConvWeight packed_;
  QParams out_q_;
};

// int8 elementwise activation evaluated through a 256-entry lookup table
// (SELU/GELU/sigmoid/tanh under quantized numerics).
class QuantizedUnary : public nn::Module {
 public:
  QuantizedUnary(std::string op_name, float (*f)(float), QParams out_qparams);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
  const std::string& op_name() const { return op_; }

 private:
  std::string op_;
  float (*f_)(float);
  QParams out_q_;
};

}  // namespace fxcpp::quant
