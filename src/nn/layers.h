// Built-in neural network layers — the torch.nn surface the paper's models
// are written against.
//
// All layers are `builtin` Modules: the default Tracer records them as
// opaque call_module Nodes ("torch.fx keeps PyTorch built-in Modules such as
// nn.Conv2d intact while tracing", Section 5.2), except Sequential, which is
// a container traced through (its Python loop disappears from the trace,
// Section 5.1).
//
// Forwards read parameters through param_value(), so a Tracer configured to
// trace *into* a builtin layer records get_attr + call_function Nodes
// instead — the configurability case of Section 5.2.
#pragma once

#include <cstdint>
#include <vector>

#include "core/functional.h"
#include "core/module.h"

namespace fxcpp::nn {

class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias = true);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  bool has_bias() const { return has_bias_; }

 protected:
  // Subclass hook (LinearReLU): same parameters, different reported kind.
  Linear(std::string kind, std::int64_t in_features, std::int64_t out_features,
         bool bias);
  // Subclass hook (LinearReLU from a Linear): `src`'s shape over the given
  // parameter tensors (shared, not copied; no fresh initialization is drawn).
  Linear(std::string kind, const Linear& src, Tensor weight, Tensor bias);

 private:
  std::int64_t in_, out_;
  bool has_bias_;
};

// Fused Linear+ReLU: a Linear whose forward lowers to the fused linear_relu
// kernel (the clamp runs in the GEMM epilogue; bit-equal to
// ReLU(Linear(x))). Installed by passes::fuse_linear_relu — is-a Linear, so
// feature introspection and analyses that accept Linear keep working, but
// passes that re-emit a plain linear from it must remember the ReLU (the
// quantizer leaves it in float for that reason).
class LinearReLU : public Linear {
 public:
  LinearReLU(std::int64_t in_features, std::int64_t out_features,
             bool bias = true);
  // Over `src`'s own weight and bias tensors; how fuse_linear_relu installs it.
  explicit LinearReLU(const Linear& src);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
};

class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t padding = 0,
         bool bias = true);
  // `src`'s configuration over the given parameter tensors (bias optional);
  // no initialization is drawn. How fuse_conv_bn installs a folded conv.
  Conv2d(const Conv2d& src, Tensor weight, Tensor bias);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;

  std::int64_t in_channels() const { return in_; }
  std::int64_t out_channels() const { return out_; }
  std::vector<std::int64_t> stride() const { return {stride_, stride_}; }
  std::vector<std::int64_t> padding() const { return {padding_, padding_}; }
  bool has_bias() const { return has_bias_; }

 protected:
  // Subclass hook (Conv2dReLU): `src`'s configuration over the given
  // parameter tensors (shared, not copied; no fresh initialization is drawn).
  Conv2d(std::string kind, const Conv2d& src, Tensor weight, Tensor bias);

 private:
  std::int64_t in_, out_, kernel_, stride_, padding_;
  bool has_bias_;
};

// Fused Conv2d+ReLU: the conv counterpart of LinearReLU. Forward lowers to
// conv2d_relu (clamp in the GEMM epilogue; bit-equal to ReLU(Conv2d(x))).
// Installed by passes::fuse_linear_relu over the replaced conv's own
// parameter tensors. Is-a Conv2d, with the same caveat as LinearReLU.
class Conv2dReLU : public Conv2d {
 public:
  explicit Conv2dReLU(const Conv2d& src);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
};

// Inference-mode batch normalization over channel dim 1 (running stats).
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t features, double eps = 1e-5);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;

  std::int64_t num_features() const { return features_; }
  double eps() const { return eps_; }

 private:
  std::int64_t features_;
  double eps_;
};

class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t dim, double eps = 1e-5);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;

 private:
  double eps_;
};

// Elementwise activations.
#define FXCPP_DECLARE_ACTIVATION(NAME)                          \
  class NAME : public Module {                                  \
   public:                                                      \
    NAME();                                                     \
    fx::Value forward(const std::vector<fx::Value>& inputs) override; \
  };
FXCPP_DECLARE_ACTIVATION(ReLU)
FXCPP_DECLARE_ACTIVATION(GELU)
FXCPP_DECLARE_ACTIVATION(SELU)
FXCPP_DECLARE_ACTIVATION(Sigmoid)
FXCPP_DECLARE_ACTIVATION(Tanh)
#undef FXCPP_DECLARE_ACTIVATION

class MaxPool2d : public Module {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t padding = 0);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }

 private:
  std::int64_t kernel_, stride_, padding_;
};

class AdaptiveAvgPool2d : public Module {
 public:
  explicit AdaptiveAvgPool2d(std::int64_t output_size);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
  std::int64_t output_size() const { return out_; }

 private:
  std::int64_t out_;
};

class Flatten : public Module {
 public:
  explicit Flatten(std::int64_t start_dim = 1);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
  std::int64_t start_dim() const { return start_dim_; }

 private:
  std::int64_t start_dim_;
};

class Dropout : public Module {
 public:
  explicit Dropout(double p);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
  double p() const { return p_; }

 private:
  double p_;
};

class Identity : public Module {
 public:
  Identity();
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
};

class Embedding : public Module {
 public:
  Embedding(std::int64_t num_embeddings, std::int64_t dim);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
};

// Container executing children in registration order. NOT a tracing leaf:
// the iteration loop is control flow not dependent on inputs, so tracing
// flattens it away (the paper's torch.nn.Sequential example).
class Sequential : public Module {
 public:
  Sequential();
  explicit Sequential(std::vector<Ptr> mods);
  // Append with auto-assigned name "0", "1", ...
  void append(Ptr m);
  fx::Value forward(const std::vector<fx::Value>& inputs) override;
};

}  // namespace fxcpp::nn
