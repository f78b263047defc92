#include "passes/autodiff.h"

#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/functional.h"
#include "core/tracer.h"
#include "nn/layers.h"
#include "passes/shape_prop.h"
#include "tensor/ops.h"

namespace fxcpp::passes {

namespace {

using fx::Argument;
using fx::Node;
using fx::Opcode;
using fx::OpInfo;
using fx::OpRegistry;
using fx::RtValue;
using fx::Value;

// ---------------------------------------------------------------------------
// Backward kernels, registered as ordinary call_function targets so the
// gradient graph executes through the normal machinery.
// ---------------------------------------------------------------------------

Tensor fill_like(const Tensor& x, double v) {
  return Tensor::full(x.sizes(), v);
}

Tensor relu_backward(const Tensor& g, const Tensor& x) {
  Tensor out(g.sizes(), DType::Float32);
  const Tensor gc = g.contiguous(), xc = x.contiguous();
  const float* gp = gc.data<float>();
  const float* xp = xc.data<float>();
  float* o = out.data<float>();
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    o[i] = xp[i] > 0.f ? gp[i] : 0.f;
  }
  return out;
}

Tensor sigmoid_backward(const Tensor& g, const Tensor& y) {
  // dy/dx = y * (1 - y)
  return ops::mul(g, ops::mul(y, ops::sub(Tensor::full(y.sizes(), 1.0), y)));
}

Tensor tanh_backward(const Tensor& g, const Tensor& y) {
  // dy/dx = 1 - y^2
  return ops::mul(g, ops::sub(Tensor::full(y.sizes(), 1.0), ops::mul(y, y)));
}

Tensor gelu_backward(const Tensor& g, const Tensor& x) {
  Tensor out(g.sizes(), DType::Float32);
  const Tensor gc = g.contiguous(), xc = x.contiguous();
  const float* gp = gc.data<float>();
  const float* xp = xc.data<float>();
  float* o = out.data<float>();
  constexpr float kInvSqrt2 = 0.70710678118654752440f;
  constexpr float kInvSqrt2Pi = 0.39894228040143267794f;
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    const float x0 = xp[i];
    const float cdf = 0.5f * (1.f + std::erf(x0 * kInvSqrt2));
    const float pdf = kInvSqrt2Pi * std::exp(-0.5f * x0 * x0);
    o[i] = gp[i] * (cdf + x0 * pdf);
  }
  return out;
}

Tensor selu_backward(const Tensor& g, const Tensor& x) {
  constexpr float kAlpha = 1.6732632423543772848170429916717f;
  constexpr float kLambda = 1.0507009873554804934193349852946f;
  Tensor out(g.sizes(), DType::Float32);
  const Tensor gc = g.contiguous(), xc = x.contiguous();
  const float* gp = gc.data<float>();
  const float* xp = xc.data<float>();
  float* o = out.data<float>();
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    o[i] = gp[i] * (xp[i] > 0.f ? kLambda
                                : kLambda * kAlpha * std::exp(xp[i]));
  }
  return out;
}

// Sum a [N, O, H, W] gradient over (N, H, W) -> [O] (conv bias / BN params).
Tensor sum_channels(const Tensor& g) {
  const Tensor gc = g.contiguous();
  const std::int64_t n = gc.size(0), c = gc.size(1);
  const std::int64_t spatial = gc.numel() / (n * c);
  Tensor out = Tensor::zeros({c});
  float* o = out.data<float>();
  const float* p = gc.data<float>();
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* row = p + (img * c + ch) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) o[ch] += row[i];
    }
  }
  return out;
}

// dL/dx for conv2d: scatter g through the filter (transposed convolution).
Tensor conv2d_grad_input(const Tensor& g, const Tensor& w,
                         const std::vector<std::int64_t>& stride,
                         const std::vector<std::int64_t>& padding,
                         std::int64_t in_h, std::int64_t in_w) {
  const Tensor gc = g.contiguous(), wc = w.contiguous();
  const std::int64_t n = gc.size(0), o = gc.size(1), oh = gc.size(2),
                     ow = gc.size(3);
  const std::int64_t c = wc.size(1), kh = wc.size(2), kw = wc.size(3);
  const std::int64_t sh = stride[0], sw = stride.size() > 1 ? stride[1] : sh;
  const std::int64_t ph = padding[0], pw = padding.size() > 1 ? padding[1] : ph;
  Tensor gx = Tensor::zeros({n, c, in_h, in_w});
  float* gxp = gx.data<float>();
  const float* gp = gc.data<float>();
  const float* wp = wc.data<float>();
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t f = 0; f < o; ++f) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float gv = gp[((img * o + f) * oh + oy) * ow + ox];
          if (gv == 0.f) continue;
          for (std::int64_t ch = 0; ch < c; ++ch) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = oy * sh - ph + ky;
              if (iy < 0 || iy >= in_h) continue;
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ox * sw - pw + kx;
                if (ix < 0 || ix >= in_w) continue;
                gxp[((img * c + ch) * in_h + iy) * in_w + ix] +=
                    gv * wp[((f * c + ch) * kh + ky) * kw + kx];
              }
            }
          }
        }
      }
    }
  }
  return gx;
}

// dL/dw for conv2d: correlate g with the input.
Tensor conv2d_grad_weight(const Tensor& g, const Tensor& x,
                          const std::vector<std::int64_t>& stride,
                          const std::vector<std::int64_t>& padding,
                          std::int64_t kh, std::int64_t kw) {
  const Tensor gc = g.contiguous(), xc = x.contiguous();
  const std::int64_t n = gc.size(0), o = gc.size(1), oh = gc.size(2),
                     ow = gc.size(3);
  const std::int64_t c = xc.size(1), in_h = xc.size(2), in_w = xc.size(3);
  const std::int64_t sh = stride[0], sw = stride.size() > 1 ? stride[1] : sh;
  const std::int64_t ph = padding[0], pw = padding.size() > 1 ? padding[1] : ph;
  Tensor gw = Tensor::zeros({o, c, kh, kw});
  float* gwp = gw.data<float>();
  const float* gp = gc.data<float>();
  const float* xp = xc.data<float>();
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t f = 0; f < o; ++f) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float gv = gp[((img * o + f) * oh + oy) * ow + ox];
          if (gv == 0.f) continue;
          for (std::int64_t ch = 0; ch < c; ++ch) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = oy * sh - ph + ky;
              if (iy < 0 || iy >= in_h) continue;
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ox * sw - pw + kx;
                if (ix < 0 || ix >= in_w) continue;
                gwp[((f * c + ch) * kh + ky) * kw + kx] +=
                    gv * xp[((img * c + ch) * in_h + iy) * in_w + ix];
              }
            }
          }
        }
      }
    }
  }
  return gw;
}

void register_backward_ops() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    auto& fns = OpRegistry::functions();
    using Args = std::vector<RtValue>;
    fns.add({"fill_like", {"x", "value"}, [](const Args& a) -> RtValue {
               return fill_like(fx::rt_tensor(a.at(0)), fx::rt_double(a.at(1)));
             }});
    fns.add({"relu_backward", {"g", "x"}, [](const Args& a) -> RtValue {
               return relu_backward(fx::rt_tensor(a.at(0)), fx::rt_tensor(a.at(1)));
             }});
    fns.add({"sigmoid_backward", {"g", "y"}, [](const Args& a) -> RtValue {
               return sigmoid_backward(fx::rt_tensor(a.at(0)), fx::rt_tensor(a.at(1)));
             }});
    fns.add({"tanh_backward", {"g", "y"}, [](const Args& a) -> RtValue {
               return tanh_backward(fx::rt_tensor(a.at(0)), fx::rt_tensor(a.at(1)));
             }});
    fns.add({"gelu_backward", {"g", "x"}, [](const Args& a) -> RtValue {
               return gelu_backward(fx::rt_tensor(a.at(0)), fx::rt_tensor(a.at(1)));
             }});
    fns.add({"selu_backward", {"g", "x"}, [](const Args& a) -> RtValue {
               return selu_backward(fx::rt_tensor(a.at(0)), fx::rt_tensor(a.at(1)));
             }});
    fns.add({"sum_channels", {"g"}, [](const Args& a) -> RtValue {
               return sum_channels(fx::rt_tensor(a.at(0)));
             }});
    fns.add({"sum_dim0", {"g"}, [](const Args& a) -> RtValue {
               return ops::sum_dim(fx::rt_tensor(a.at(0)), 0);
             }});
    fns.add({"conv2d_grad_input",
             {"g", "weight", "stride", "padding", "in_h", "in_w"},
             [](const Args& a) -> RtValue {
               return conv2d_grad_input(
                   fx::rt_tensor(a.at(0)), fx::rt_tensor(a.at(1)),
                   fx::rt_int_list(a.at(2)), fx::rt_int_list(a.at(3)),
                   fx::rt_int(a.at(4)), fx::rt_int(a.at(5)));
             }});
    fns.add({"conv2d_grad_weight",
             {"g", "x", "stride", "padding", "kh", "kw"},
             [](const Args& a) -> RtValue {
               return conv2d_grad_weight(
                   fx::rt_tensor(a.at(0)), fx::rt_tensor(a.at(1)),
                   fx::rt_int_list(a.at(2)), fx::rt_int_list(a.at(3)),
                   fx::rt_int(a.at(4)), fx::rt_int(a.at(5)));
             }});
  });
}

// ---------------------------------------------------------------------------
// Gradient graph construction
// ---------------------------------------------------------------------------

class GradBuilder {
 public:
  GradBuilder(fx::GraphModule& gm, const std::vector<Tensor>& example_inputs)
      : gm_(gm) {
    register_backward_ops();
    shape_prop(gm, example_inputs);
  }

  GradientGraph build();

 private:
  // Emit a call_function node in the gradient graph.
  Value emit(const std::string& target, std::vector<Argument> args) {
    return Value(tracer_.create_proxy(Opcode::CallFunction, target,
                                      std::move(args)));
  }
  Argument arg(const Value& v) { return tracer_.create_arg(v); }
  Value attr(const std::string& qualname) {
    auto it = attr_cache_.find(qualname);
    if (it != attr_cache_.end()) return it->second;
    Value v(tracer_.create_proxy(Opcode::GetAttr, qualname, {}, {}));
    attr_cache_.emplace(qualname, v);
    return v;
  }

  Value fwd(const Node* n) const { return env_.at(n); }
  Value fwd_arg(const Argument& a) const { return env_.at(a.node()); }
  const Shape& shape_of(const Node* n) const {
    if (!n->has_shape()) {
      throw std::invalid_argument("autodiff: node '" + n->name() +
                                  "' has no shape metadata");
    }
    return n->shape();
  }

  void accumulate(const Node* n, Value g) {
    auto it = adjoint_.find(n);
    if (it == adjoint_.end()) adjoint_.emplace(n, std::move(g));
    else it->second = fx::fn::add(it->second, g);
  }
  void accumulate_param(const std::string& name, Value g) {
    auto it = param_grads_.find(name);
    if (it == param_grads_.end()) param_grads_.emplace(name, std::move(g));
    else it->second = fx::fn::add(it->second, g);
  }

  [[noreturn]] void unsupported(const Node& n) const {
    throw std::invalid_argument("autodiff: no VJP rule for node '" +
                                n.name() + "' (op=" +
                                fx::opcode_name(n.op()) +
                                ", target=" + n.target() + ")");
  }

  void replay_forward();
  void backprop(const Node& n, const Value& g);
  void backprop_function(const Node& n, const Value& g);
  void backprop_module(const Node& n, const Value& g);

  fx::GraphModule& gm_;
  fx::Tracer tracer_;
  std::unordered_map<const Node*, Value> env_;       // forward replay
  std::unordered_map<const Node*, Value> adjoint_;   // reverse accumulation
  std::map<std::string, Value> param_grads_;
  std::unordered_map<std::string, Value> attr_cache_;
};

void GradBuilder::replay_forward() {
  for (const Node* n : gm_.graph().nodes()) {
    switch (n->op()) {
      case Opcode::Placeholder:
        env_.emplace(n, Value(tracer_.create_proxy(Opcode::Placeholder,
                                                   n->target(), {}, {},
                                                   n->name())));
        break;
      case Opcode::GetAttr:
        env_.emplace(n, attr(n->target()));
        break;
      case Opcode::Output:
        break;
      default: {
        std::vector<Argument> args;
        for (const auto& a : n->args()) {
          if (a.is_node()) {
            args.push_back(arg(env_.at(a.node())));
          } else if (a.is_list()) {
            Argument::List items;
            for (const auto& item : a.list()) {
              items.push_back(item.is_node() ? arg(env_.at(item.node()))
                                             : item);
            }
            args.push_back(Argument(std::move(items)));
          } else {
            args.push_back(a);
          }
        }
        fx::Kwargs kwargs;
        for (const auto& [k, v] : n->kwargs()) {
          kwargs.emplace_back(k, v.is_node() ? arg(env_.at(v.node())) : v);
        }
        env_.emplace(n, Value(tracer_.create_proxy(n->op(), n->target(),
                                                   std::move(args),
                                                   std::move(kwargs),
                                                   n->name())));
      }
    }
  }
}

void GradBuilder::backprop_function(const Node& n, const Value& g) {
  const std::string& t = n.target();
  const auto& args = n.args();
  auto node0 = [&] { return args.at(0).node(); };

  if (t == "add" || t == "sub") {
    if (args[0].is_node()) accumulate(node0(), g);
    if (args.size() > 1 && args[1].is_node()) {
      accumulate(args[1].node(), t == "add" ? g : fx::fn::neg(g));
    }
    return;
  }
  if (t == "mul") {
    if (args[1].is_node()) {
      accumulate(node0(), fx::fn::mul(g, fwd_arg(args[1])));
      accumulate(args[1].node(), fx::fn::mul(g, fwd_arg(args[0])));
    } else {
      accumulate(node0(), fx::fn::mul(g, args[1].as_double()));
    }
    return;
  }
  if (t == "div") {
    if (args[1].is_node()) {
      Value b = fwd_arg(args[1]);
      accumulate(node0(), fx::fn::div(g, b));
      // d/db (a/b) = -(a/b)/b
      accumulate(args[1].node(),
                 fx::fn::neg(fx::fn::div(fx::fn::mul(g, fwd(&n)), b)));
    } else {
      accumulate(node0(), fx::fn::div(g, args[1].as_double()));
    }
    return;
  }
  if (t == "neg") {
    accumulate(node0(), fx::fn::neg(g));
    return;
  }
  if (t == "relu") {
    accumulate(node0(), emit("relu_backward", {arg(g), arg(fwd_arg(args[0]))}));
    return;
  }
  if (t == "sigmoid") {
    accumulate(node0(), emit("sigmoid_backward", {arg(g), arg(fwd(&n))}));
    return;
  }
  if (t == "tanh") {
    accumulate(node0(), emit("tanh_backward", {arg(g), arg(fwd(&n))}));
    return;
  }
  if (t == "gelu") {
    accumulate(node0(), emit("gelu_backward", {arg(g), arg(fwd_arg(args[0]))}));
    return;
  }
  if (t == "selu") {
    accumulate(node0(), emit("selu_backward", {arg(g), arg(fwd_arg(args[0]))}));
    return;
  }
  if (t == "linear") {
    // y = x @ w^T + b;  gx = g @ w;  gw = g^T @ x;  gb = sum_dim0(g)
    Value gx = fx::fn::matmul(g, fwd_arg(args[1]));
    accumulate(node0(), gx);
    Value gw = fx::fn::matmul(fx::fn::transpose(g, 0, 1), fwd_arg(args[0]));
    accumulate(args[1].node(), gw);
    if (args.size() > 2 && args[2].is_node()) {
      accumulate(args[2].node(), emit("sum_dim0", {arg(g)}));
    }
    return;
  }
  if (t == "matmul") {
    accumulate(node0(),
               fx::fn::matmul(g, fx::fn::transpose(fwd_arg(args[1]), 0, 1)));
    accumulate(args[1].node(),
               fx::fn::matmul(fx::fn::transpose(fwd_arg(args[0]), 0, 1), g));
    return;
  }
  if (t == "conv2d") {
    const Shape& xs = shape_of(node0());
    const Shape& ws = shape_of(args[1].node());
    const Argument stride = args.at(3);
    const Argument padding = args.at(4);
    accumulate(node0(),
               emit("conv2d_grad_input",
                    {arg(g), arg(fwd_arg(args[1])), stride, padding,
                     Argument(xs[2]), Argument(xs[3])}));
    accumulate(args[1].node(),
               emit("conv2d_grad_weight",
                    {arg(g), arg(fwd_arg(args[0])), stride, padding,
                     Argument(ws[2]), Argument(ws[3])}));
    if (args.size() > 2 && args[2].is_node()) {
      accumulate(args[2].node(), emit("sum_channels", {arg(g)}));
    }
    return;
  }
  if (t == "batch_norm") {
    // Eval mode: y = (x - mean) * s + shift with s = gamma / sqrt(var+eps).
    Value gamma = fwd_arg(args[1]);
    Value var = fwd_arg(args[4]);
    Value inv_std = fx::fn::div(
        Value(tracer_.create_proxy(Opcode::CallFunction, "fill_like",
                                   {arg(gamma), Argument(1.0)})),
        fx::fn::sqrt(fx::fn::add(var, args.at(5).as_double())));
    const std::vector<std::int64_t> chan{-1, 1, 1};
    Value scale_r = fx::fn::reshape(fx::fn::mul(gamma, inv_std), chan);
    accumulate(node0(), fx::fn::mul(g, scale_r));
    // ggamma = sum_channels(g * x_hat); gbeta = sum_channels(g)
    Value mean_r = fx::fn::reshape(fwd_arg(args[3]), chan);
    Value xhat = fx::fn::mul(fx::fn::sub(fwd_arg(args[0]), mean_r),
                             fx::fn::reshape(inv_std, chan));
    accumulate(args[1].node(),
               emit("sum_channels", {arg(fx::fn::mul(g, xhat))}));
    accumulate(args[2].node(), emit("sum_channels", {arg(g)}));
    return;
  }
  if (t == "flatten" || t == "reshape") {
    const Shape& xs = shape_of(node0());
    accumulate(node0(),
               fx::fn::reshape(g, std::vector<std::int64_t>(xs.begin(),
                                                            xs.end())));
    return;
  }
  if (t == "dropout") {
    if (args.at(2).is_bool() && args[2].as_bool()) unsupported(n);
    accumulate(node0(), g);  // eval mode: identity
    return;
  }
  if (t == "sum") {
    accumulate(node0(), fx::fn::mul(emit("fill_like",
                                         {arg(fwd_arg(args[0])), Argument(1.0)}),
                                    g));
    return;
  }
  if (t == "mean") {
    const double inv_n =
        1.0 / static_cast<double>(shape_numel(shape_of(node0())));
    accumulate(node0(),
               fx::fn::mul(emit("fill_like",
                                {arg(fwd_arg(args[0])), Argument(inv_n)}),
                           g));
    return;
  }
  if (t == "transpose") {
    accumulate(node0(), fx::fn::transpose(g, args.at(1).as_int(),
                                          args.at(2).as_int()));
    return;
  }
  unsupported(n);
}

void GradBuilder::backprop_module(const Node& n, const Value& g_out) {
  const auto m = gm_.resolve_module(n.target());
  const Node* x = n.args().at(0).node();
  const std::string& t = n.target();
  // LinearReLU / Conv2dReLU are-a Linear / Conv2d with the clamp in the
  // kernel epilogue: mask the gradient by the fused output first, then the
  // plain layer rule below applies unchanged.
  const bool fused = dynamic_cast<const nn::LinearReLU*>(m.get()) ||
                     dynamic_cast<const nn::Conv2dReLU*>(m.get());
  const Value g =
      fused ? emit("relu_backward", {arg(g_out), arg(fwd(&n))}) : g_out;

  if (const auto* lin = dynamic_cast<const nn::Linear*>(m.get())) {
    Value w = attr(t + ".weight");
    accumulate(x, fx::fn::matmul(g, w));
    accumulate_param(t + ".weight",
                     fx::fn::matmul(fx::fn::transpose(g, 0, 1), fwd(x)));
    if (lin->has_bias()) {
      accumulate_param(t + ".bias", emit("sum_dim0", {arg(g)}));
    }
    return;
  }
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(m.get())) {
    const Shape& xs = shape_of(x);
    const Tensor& w = conv->param("weight");
    const Argument stride(conv->stride());
    const Argument padding(conv->padding());
    accumulate(x, emit("conv2d_grad_input",
                       {arg(g), arg(attr(t + ".weight")), stride, padding,
                        Argument(xs[2]), Argument(xs[3])}));
    accumulate_param(t + ".weight",
                     emit("conv2d_grad_weight",
                          {arg(g), arg(fwd(x)), stride, padding,
                           Argument(w.size(2)), Argument(w.size(3))}));
    if (conv->has_bias()) {
      accumulate_param(t + ".bias", emit("sum_channels", {arg(g)}));
    }
    return;
  }
  if (const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(m.get())) {
    Value gamma = attr(t + ".weight");
    Value var = attr(t + ".running_var");
    Value inv_std = fx::fn::div(
        emit("fill_like", {arg(gamma), Argument(1.0)}),
        fx::fn::sqrt(fx::fn::add(var, bn->eps())));
    const std::vector<std::int64_t> chan{-1, 1, 1};
    accumulate(x, fx::fn::mul(g, fx::fn::reshape(fx::fn::mul(gamma, inv_std),
                                                 chan)));
    Value xhat = fx::fn::mul(
        fx::fn::sub(fwd(x), fx::fn::reshape(attr(t + ".running_mean"), chan)),
        fx::fn::reshape(inv_std, chan));
    accumulate_param(t + ".weight",
                     emit("sum_channels", {arg(fx::fn::mul(g, xhat))}));
    accumulate_param(t + ".bias", emit("sum_channels", {arg(g)}));
    return;
  }
  const std::string& kind = m->kind();
  if (kind == "ReLU") {
    accumulate(x, emit("relu_backward", {arg(g), arg(fwd(x))}));
  } else if (kind == "Sigmoid") {
    accumulate(x, emit("sigmoid_backward", {arg(g), arg(fwd(&n))}));
  } else if (kind == "Tanh") {
    accumulate(x, emit("tanh_backward", {arg(g), arg(fwd(&n))}));
  } else if (kind == "GELU") {
    accumulate(x, emit("gelu_backward", {arg(g), arg(fwd(x))}));
  } else if (kind == "SELU") {
    accumulate(x, emit("selu_backward", {arg(g), arg(fwd(x))}));
  } else if (kind == "Flatten") {
    const Shape& xs = shape_of(x);
    accumulate(x, fx::fn::reshape(
                      g, std::vector<std::int64_t>(xs.begin(), xs.end())));
  } else if (kind == "Identity" || kind == "Dropout") {
    if (m->training()) unsupported(n);
    accumulate(x, g);
  } else {
    unsupported(n);
  }
}

void GradBuilder::backprop(const Node& n, const Value& g) {
  switch (n.op()) {
    case Opcode::CallFunction:
    case Opcode::CallMethod:
      backprop_function(n, g);
      return;
    case Opcode::CallModule:
      backprop_module(n, g);
      return;
    case Opcode::GetAttr:
      // Gradient reached a parameter/buffer leaf.
      accumulate_param(n.target(), g);
      return;
    default:
      unsupported(n);
  }
}

GradientGraph GradBuilder::build() {
  tracer_.start(gm_.root());
  fx::Tracer::Scope scope(tracer_);
  replay_forward();

  // Seed: d(sum(out))/d(out) = ones.
  const Node* out_node = gm_.graph().output_node();
  if (!out_node || !out_node->args().at(0).is_node()) {
    throw std::invalid_argument("autodiff: graph must return a single node");
  }
  const Node* result = out_node->args()[0].node();
  adjoint_.emplace(result,
                   emit("fill_like", {arg(fwd(result)), Argument(1.0)}));

  const auto order = gm_.graph().nodes();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Node* n = *it;
    if (n->op() == Opcode::Output || n->op() == Opcode::Placeholder) continue;
    auto adj = adjoint_.find(n);
    if (adj == adjoint_.end()) continue;  // node does not affect the output
    backprop(*n, adj->second);
  }

  GradientGraph out;
  Argument::List results;
  for (const Node* ph : gm_.graph().placeholders()) {
    auto adj = adjoint_.find(ph);
    if (adj == adjoint_.end()) {
      // Input does not influence the output: gradient of zeros.
      adj = adjoint_
                .emplace(ph, emit("fill_like", {arg(fwd(ph)), Argument(0.0)}))
                .first;
    }
    results.push_back(tracer_.create_arg(adj->second));
    out.output_names.push_back(ph->name());
  }
  for (const auto& [name, g] : param_grads_) {
    results.push_back(tracer_.create_arg(g));
    out.output_names.push_back(name);
  }

  auto graph = tracer_.finish_graph();
  graph->output(Argument(std::move(results)));
  graph->eliminate_dead_code();
  out.module = std::make_shared<fx::GraphModule>(gm_.root(), std::move(graph),
                                                 "GradientGraph");
  out.module->recompile();
  return out;
}

}  // namespace

std::vector<std::pair<std::string, Tensor>> GradientGraph::run(
    const std::vector<Tensor>& inputs) const {
  std::vector<Value> vs;
  vs.reserve(inputs.size());
  for (const auto& t : inputs) vs.emplace_back(t);
  Value out = module->forward(vs);
  std::vector<std::pair<std::string, Tensor>> named;
  const auto& tuple = out.tuple();
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    named.emplace_back(output_names.at(i), tuple[i].tensor());
  }
  return named;
}

GradientGraph build_gradient_graph(fx::GraphModule& gm,
                                   const std::vector<Tensor>& example_inputs) {
  GradBuilder builder(gm, example_inputs);
  return builder.build();
}

}  // namespace fxcpp::passes
