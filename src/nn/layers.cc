#include "nn/layers.h"

#include "tensor/ops.h"

#include <cmath>

#include "runtime/rng.h"

namespace fxcpp::nn {

namespace {
// Kaiming-uniform-style init matching nn.Linear/nn.Conv2d defaults.
Tensor init_weight(Shape shape, std::int64_t fan_in) {
  Tensor t(shape, DType::Float32);
  const double bound = 1.0 / std::sqrt(static_cast<double>(fan_in));
  auto& rng = rt::Rng::global();
  float* p = t.data<float>();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  return t;
}
}  // namespace

// --- Linear -----------------------------------------------------------------

Linear::Linear(std::string kind, std::int64_t in_features,
               std::int64_t out_features, bool bias)
    : Module(std::move(kind), /*builtin=*/true),
      in_(in_features),
      out_(out_features),
      has_bias_(bias) {
  register_parameter("weight", init_weight({out_, in_}, in_));
  if (bias) register_parameter("bias", init_weight({out_}, in_));
}

Linear::Linear(std::string kind, const Linear& src, Tensor weight, Tensor bias)
    : Module(std::move(kind), /*builtin=*/true),
      in_(src.in_),
      out_(src.out_),
      has_bias_(bias.defined()) {
  register_parameter("weight", std::move(weight));
  if (has_bias_) register_parameter("bias", std::move(bias));
}

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias)
    : Linear("Linear", in_features, out_features, bias) {}

fx::Value Linear::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::linear(inputs.at(0), param_value("weight"),
                        has_bias_ ? param_value("bias") : fx::Value());
}

LinearReLU::LinearReLU(std::int64_t in_features, std::int64_t out_features,
                       bool bias)
    : Linear("LinearReLU", in_features, out_features, bias) {}

LinearReLU::LinearReLU(const Linear& src)
    : Linear("LinearReLU", src, src.param("weight"),
             src.has_bias() ? src.param("bias") : Tensor()) {}

fx::Value LinearReLU::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::linear_relu(inputs.at(0), param_value("weight"),
                             has_bias() ? param_value("bias") : fx::Value());
}

// --- Conv2d ------------------------------------------------------------------

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               bool bias)
    : Module("Conv2d", /*builtin=*/true),
      in_(in_channels),
      out_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias) {
  const std::int64_t fan_in = in_channels * kernel * kernel;
  register_parameter("weight",
                     init_weight({out_, in_, kernel_, kernel_}, fan_in));
  if (bias) register_parameter("bias", init_weight({out_}, fan_in));
}

Conv2d::Conv2d(std::string kind, const Conv2d& src, Tensor weight,
               Tensor bias)
    : Module(std::move(kind), /*builtin=*/true),
      in_(src.in_),
      out_(src.out_),
      kernel_(src.kernel_),
      stride_(src.stride_),
      padding_(src.padding_),
      has_bias_(bias.defined()) {
  register_parameter("weight", std::move(weight));
  if (has_bias_) register_parameter("bias", std::move(bias));
}

Conv2d::Conv2d(const Conv2d& src, Tensor weight, Tensor bias)
    : Conv2d("Conv2d", src, std::move(weight), std::move(bias)) {}

fx::Value Conv2d::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::conv2d(inputs.at(0), param_value("weight"),
                        has_bias_ ? param_value("bias") : fx::Value(),
                        {stride_, stride_}, {padding_, padding_});
}

Conv2dReLU::Conv2dReLU(const Conv2d& src)
    : Conv2d("Conv2dReLU", src, src.param("weight"),
             src.has_bias() ? src.param("bias") : Tensor()) {}

fx::Value Conv2dReLU::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::conv2d_relu(inputs.at(0), param_value("weight"),
                             has_bias() ? param_value("bias") : fx::Value(),
                             stride(), padding());
}

// --- BatchNorm2d -----------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::int64_t features, double eps)
    : Module("BatchNorm2d", /*builtin=*/true), features_(features), eps_(eps) {
  register_parameter("weight", Tensor::ones({features_}));
  register_parameter("bias", Tensor::zeros({features_}));
  register_buffer("running_mean", Tensor::zeros({features_}));
  register_buffer("running_var", Tensor::ones({features_}));
}

fx::Value BatchNorm2d::forward(const std::vector<fx::Value>& inputs) {
  // Training mode (concrete tensors only): batch statistics + running-stat
  // update. Symbolic tracing always records the inference form — mutation
  // stays inside the Module, per the paper's Section 5.6 design.
  if (training() && inputs.at(0).is_tensor()) {
    return fx::Value(ops::batch_norm_train(
        inputs.at(0).tensor(), param("weight"), param("bias"),
        param("running_mean"), param("running_var"), /*momentum=*/0.1, eps_));
  }
  return fx::fn::batch_norm(inputs.at(0), param_value("weight"),
                            param_value("bias"), param_value("running_mean"),
                            param_value("running_var"), eps_);
}

// --- LayerNorm ----------------------------------------------------------------

LayerNorm::LayerNorm(std::int64_t dim, double eps)
    : Module("LayerNorm", /*builtin=*/true), eps_(eps) {
  register_parameter("weight", Tensor::ones({dim}));
  register_parameter("bias", Tensor::zeros({dim}));
}

fx::Value LayerNorm::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::layer_norm(inputs.at(0), param_value("weight"),
                            param_value("bias"), eps_);
}

// --- activations -------------------------------------------------------------

#define FXCPP_DEFINE_ACTIVATION(NAME, FN)                              \
  NAME::NAME() : Module(#NAME, /*builtin=*/true) {}                   \
  fx::Value NAME::forward(const std::vector<fx::Value>& inputs) {     \
    return fx::fn::FN(inputs.at(0));                                  \
  }
FXCPP_DEFINE_ACTIVATION(ReLU, relu)
FXCPP_DEFINE_ACTIVATION(GELU, gelu)
FXCPP_DEFINE_ACTIVATION(SELU, selu)
FXCPP_DEFINE_ACTIVATION(Sigmoid, sigmoid)
FXCPP_DEFINE_ACTIVATION(Tanh, tanh)
#undef FXCPP_DEFINE_ACTIVATION

// --- pooling / shape ----------------------------------------------------------

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride,
                     std::int64_t padding)
    : Module("MaxPool2d", /*builtin=*/true),
      kernel_(kernel),
      stride_(stride),
      padding_(padding) {}

fx::Value MaxPool2d::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::max_pool2d(inputs.at(0), {kernel_, kernel_},
                            {stride_, stride_}, {padding_, padding_});
}

AdaptiveAvgPool2d::AdaptiveAvgPool2d(std::int64_t output_size)
    : Module("AdaptiveAvgPool2d", /*builtin=*/true), out_(output_size) {}

fx::Value AdaptiveAvgPool2d::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::adaptive_avg_pool2d(inputs.at(0), {out_, out_});
}

Flatten::Flatten(std::int64_t start_dim)
    : Module("Flatten", /*builtin=*/true), start_dim_(start_dim) {}

fx::Value Flatten::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::flatten(inputs.at(0), start_dim_);
}

Dropout::Dropout(double p) : Module("Dropout", /*builtin=*/true), p_(p) {}

fx::Value Dropout::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::dropout(inputs.at(0), p_, training());
}

Identity::Identity() : Module("Identity", /*builtin=*/true) {}

fx::Value Identity::forward(const std::vector<fx::Value>& inputs) {
  return inputs.at(0);
}

Embedding::Embedding(std::int64_t num_embeddings, std::int64_t dim)
    : Module("Embedding", /*builtin=*/true) {
  register_parameter("weight", Tensor::randn({num_embeddings, dim}));
}

fx::Value Embedding::forward(const std::vector<fx::Value>& inputs) {
  return fx::fn::embedding(param_value("weight"), inputs.at(0));
}

// --- Sequential ---------------------------------------------------------------

Sequential::Sequential() : Module("Sequential", /*builtin=*/false) {}

Sequential::Sequential(std::vector<Ptr> mods) : Sequential() {
  for (auto& m : mods) append(std::move(m));
}

void Sequential::append(Ptr m) {
  register_module(std::to_string(children().size()), std::move(m));
}

fx::Value Sequential::forward(const std::vector<fx::Value>& inputs) {
  fx::Value x = inputs.at(0);
  // Control flow not dependent on inputs: this loop vanishes under tracing.
  for (const auto& [name, child] : children()) {
    (void)name;
    x = (*child)(x);
  }
  return x;
}

}  // namespace fxcpp::nn
