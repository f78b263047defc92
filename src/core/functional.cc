#include "core/functional.h"

#include <mutex>

#include "core/node.h"
#include "core/op_registry.h"
#include "core/tracer.h"
#include "tensor/ops.h"
#include "tensor/quantized.h"

namespace fxcpp::fx {

// ---------------------------------------------------------------------------
// Value accessors / methods (declared in value.h)
// ---------------------------------------------------------------------------

const Tensor& Value::tensor() const {
  if (is_tensor()) return std::get<Tensor>(v_);
  if (is_proxy()) {
    throw TraceError(
        "cannot materialize a concrete Tensor from Proxy '" +
        std::get<Proxy>(v_).node->name() +
        "' during symbolic tracing; this usually means the model performs an "
        "untraceable operation (e.g. data-dependent control flow) on a traced "
        "value");
  }
  throw std::logic_error("Value does not hold a Tensor");
}

Proxy Value::proxy() const {
  if (!is_proxy()) throw std::logic_error("Value does not hold a Proxy");
  return std::get<Proxy>(v_);
}

const std::vector<Value>& Value::tuple() const {
  if (!is_tuple()) throw std::logic_error("Value does not hold a tuple");
  return std::get<std::vector<Value>>(v_);
}

double Value::item() const {
  if (is_proxy()) {
    throw TraceError(
        "cannot convert Proxy '" + std::get<Proxy>(v_).node->name() +
        "' to a concrete Python value during symbolic tracing; control "
        "decisions on traced values are not supported (Section 5.3)");
  }
  return tensor().item();
}

namespace {

// Find the recording tracer among a set of values (nullptr = all concrete).
Tracer* tracer_of(std::initializer_list<const Value*> vs) {
  for (const Value* v : vs) {
    if (v->is_proxy()) return v->proxy().tracer;
    if (v->is_tuple()) {
      for (const auto& item : v->tuple()) {
        if (Tracer* t = tracer_of({&item})) return t;
      }
    }
  }
  return nullptr;
}

Value record_fn(Tracer* t, const std::string& target,
                std::vector<Argument> args) {
  return Value(t->create_proxy(Opcode::CallFunction, target, std::move(args)));
}

Value record_method(Tracer* t, const std::string& target,
                    std::vector<Argument> args) {
  return Value(t->create_proxy(Opcode::CallMethod, target, std::move(args)));
}

}  // namespace

Value Value::neg() const {
  if (Tracer* t = tracer_of({this})) {
    return record_method(t, "neg", {t->create_arg(*this)});
  }
  return Value(ops::neg(tensor()));
}

Value Value::relu() const {
  if (Tracer* t = tracer_of({this})) {
    return record_method(t, "relu", {t->create_arg(*this)});
  }
  return Value(ops::relu(tensor()));
}

Value Value::reshape(std::vector<std::int64_t> shape) const {
  if (Tracer* t = tracer_of({this})) {
    return record_method(t, "reshape",
                         {t->create_arg(*this), Argument(shape)});
  }
  return Value(tensor().reshape(Shape(shape.begin(), shape.end())));
}

Value Value::flatten(std::int64_t start_dim) const {
  if (Tracer* t = tracer_of({this})) {
    return record_method(t, "flatten",
                         {t->create_arg(*this), Argument(start_dim)});
  }
  return Value(tensor().flatten(static_cast<int>(start_dim)));
}

Value Value::dequantize() const {
  if (Tracer* t = tracer_of({this})) {
    return record_method(t, "dequantize", {t->create_arg(*this)});
  }
  return Value(ops::dequantize(tensor()));
}

Value operator+(const Value& a, const Value& b) { return fn::add(a, b); }
Value operator-(const Value& a, const Value& b) { return fn::sub(a, b); }
Value operator*(const Value& a, const Value& b) { return fn::mul(a, b); }
Value operator/(const Value& a, const Value& b) { return fn::div(a, b); }
Value operator+(const Value& a, double s) { return fn::add(a, s); }
Value operator-(const Value& a, double s) { return fn::sub(a, s); }
Value operator*(const Value& a, double s) { return fn::mul(a, s); }
Value operator/(const Value& a, double s) { return fn::div(a, s); }
Value Value::operator-() const { return fn::neg(*this); }

// ---------------------------------------------------------------------------
// Functional layer
// ---------------------------------------------------------------------------

namespace fn {

namespace {

// Binary tensor-or-scalar op: dispatch record/compute.
template <typename EagerTT, typename EagerTS>
Value binary(const char* target, const Value& a, const Value& b, EagerTT ett,
             EagerTS /*ets*/) {
  if (Tracer* t = tracer_of({&a, &b})) {
    return record_fn(t, target, {t->create_arg(a), t->create_arg(b)});
  }
  return Value(ett(a.tensor(), b.tensor()));
}

template <typename Eager>
Value binary_scalar(const char* target, const Value& a, double s, Eager e) {
  if (Tracer* t = tracer_of({&a})) {
    return record_fn(t, target, {t->create_arg(a), Argument(s)});
  }
  return Value(e(a.tensor(), s));
}

template <typename Eager>
Value unary(const char* target, const Value& x, Eager e) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, target, {t->create_arg(x)});
  }
  return Value(e(x.tensor()));
}

}  // namespace

#define FXCPP_BINARY(NAME)                                                   \
  Value NAME(const Value& a, const Value& b) {                               \
    return binary(#NAME, a, b,                                               \
                  [](const Tensor& x, const Tensor& y) {                     \
                    return ops::NAME(x, y);                                  \
                  },                                                         \
                  nullptr);                                                  \
  }                                                                          \
  Value NAME(const Value& a, double s) {                                     \
    return binary_scalar(#NAME, a, s, [](const Tensor& x, double v) {        \
      return ops::NAME(x, v);                                                \
    });                                                                      \
  }

FXCPP_BINARY(add)
FXCPP_BINARY(sub)
FXCPP_BINARY(mul)
FXCPP_BINARY(div)
#undef FXCPP_BINARY

Value neg(const Value& x) {
  return unary("neg", x, [](const Tensor& t) { return ops::neg(t); });
}
Value relu(const Value& x) {
  return unary("relu", x, [](const Tensor& t) { return ops::relu(t); });
}
Value gelu(const Value& x) {
  return unary("gelu", x, [](const Tensor& t) { return ops::gelu(t); });
}
Value sigmoid(const Value& x) {
  return unary("sigmoid", x, [](const Tensor& t) { return ops::sigmoid(t); });
}
Value tanh(const Value& x) {
  return unary("tanh", x, [](const Tensor& t) { return ops::tanh(t); });
}
Value selu(const Value& x) {
  return unary("selu", x, [](const Tensor& t) { return ops::selu(t); });
}
Value sqrt(const Value& x) {
  return unary("sqrt", x, [](const Tensor& t) { return ops::sqrt(t); });
}
Value exp(const Value& x) {
  return unary("exp", x, [](const Tensor& t) { return ops::exp(t); });
}
Value abs(const Value& x) {
  return unary("abs", x, [](const Tensor& t) { return ops::abs(t); });
}

Value dropout(const Value& x, double p, bool training) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "dropout",
                     {t->create_arg(x), Argument(p), Argument(training)});
  }
  return Value(ops::dropout(x.tensor(), p, training));
}

Value matmul(const Value& a, const Value& b) {
  if (Tracer* t = tracer_of({&a, &b})) {
    return record_fn(t, "matmul", {t->create_arg(a), t->create_arg(b)});
  }
  return Value(ops::matmul(a.tensor(), b.tensor()));
}

Value linear(const Value& x, const Value& w, const Value& b) {
  if (Tracer* t = tracer_of({&x, &w, &b})) {
    return record_fn(
        t, "linear", {t->create_arg(x), t->create_arg(w), t->create_arg(b)});
  }
  return Value(ops::linear(x.tensor(), w.tensor(),
                           b.defined() ? b.tensor() : Tensor()));
}

Value linear_relu(const Value& x, const Value& w, const Value& b) {
  if (Tracer* t = tracer_of({&x, &w, &b})) {
    return record_fn(t, "linear_relu",
                     {t->create_arg(x), t->create_arg(w), t->create_arg(b)});
  }
  return Value(ops::linear_relu(x.tensor(), w.tensor(),
                                b.defined() ? b.tensor() : Tensor()));
}

Value transpose(const Value& x, std::int64_t d0, std::int64_t d1) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "transpose",
                     {t->create_arg(x), Argument(d0), Argument(d1)});
  }
  return Value(ops::transpose(x.tensor(), static_cast<int>(d0),
                              static_cast<int>(d1)));
}

Value embedding(const Value& weight, const Value& indices) {
  if (Tracer* t = tracer_of({&weight, &indices})) {
    return record_fn(t, "embedding",
                     {t->create_arg(weight), t->create_arg(indices)});
  }
  return Value(ops::embedding(weight.tensor(), indices.tensor()));
}

Value conv2d(const Value& x, const Value& w, const Value& b,
             std::vector<std::int64_t> stride,
             std::vector<std::int64_t> padding) {
  if (Tracer* t = tracer_of({&x, &w, &b})) {
    return record_fn(t, "conv2d",
                     {t->create_arg(x), t->create_arg(w), t->create_arg(b),
                      Argument(stride), Argument(padding)});
  }
  return Value(ops::conv2d(x.tensor(), w.tensor(),
                           b.defined() ? b.tensor() : Tensor(), stride,
                           padding));
}

Value conv2d_relu(const Value& x, const Value& w, const Value& b,
                  std::vector<std::int64_t> stride,
                  std::vector<std::int64_t> padding) {
  if (Tracer* t = tracer_of({&x, &w, &b})) {
    return record_fn(t, "conv2d_relu",
                     {t->create_arg(x), t->create_arg(w), t->create_arg(b),
                      Argument(stride), Argument(padding)});
  }
  return Value(ops::conv2d_relu(x.tensor(), w.tensor(),
                                b.defined() ? b.tensor() : Tensor(), stride,
                                padding));
}

Value max_pool2d(const Value& x, std::vector<std::int64_t> kernel,
                 std::vector<std::int64_t> stride,
                 std::vector<std::int64_t> padding) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "max_pool2d",
                     {t->create_arg(x), Argument(kernel), Argument(stride),
                      Argument(padding)});
  }
  return Value(ops::max_pool2d(x.tensor(), kernel, stride, padding));
}

Value avg_pool2d(const Value& x, std::vector<std::int64_t> kernel,
                 std::vector<std::int64_t> stride) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "avg_pool2d",
                     {t->create_arg(x), Argument(kernel), Argument(stride)});
  }
  return Value(ops::avg_pool2d(x.tensor(), kernel, stride));
}

Value adaptive_avg_pool2d(const Value& x, std::vector<std::int64_t> out_hw) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "adaptive_avg_pool2d",
                     {t->create_arg(x), Argument(out_hw)});
  }
  return Value(ops::adaptive_avg_pool2d(x.tensor(), out_hw));
}

Value batch_norm(const Value& x, const Value& gamma, const Value& beta,
                 const Value& mean, const Value& var, double eps) {
  if (Tracer* t = tracer_of({&x, &gamma, &beta, &mean, &var})) {
    return record_fn(t, "batch_norm",
                     {t->create_arg(x), t->create_arg(gamma),
                      t->create_arg(beta), t->create_arg(mean),
                      t->create_arg(var), Argument(eps)});
  }
  return Value(ops::batch_norm(x.tensor(), gamma.tensor(), beta.tensor(),
                               mean.tensor(), var.tensor(), eps));
}

Value layer_norm(const Value& x, const Value& gamma, const Value& beta,
                 double eps) {
  if (Tracer* t = tracer_of({&x, &gamma, &beta})) {
    return record_fn(t, "layer_norm",
                     {t->create_arg(x), t->create_arg(gamma),
                      t->create_arg(beta), Argument(eps)});
  }
  return Value(ops::layer_norm(x.tensor(), gamma.tensor(), beta.tensor(), eps));
}

Value softmax(const Value& x, std::int64_t dim) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "softmax", {t->create_arg(x), Argument(dim)});
  }
  return Value(ops::softmax(x.tensor(), static_cast<int>(dim)));
}

Value reshape(const Value& x, std::vector<std::int64_t> shape) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "reshape", {t->create_arg(x), Argument(shape)});
  }
  return Value(x.tensor().reshape(Shape(shape.begin(), shape.end())));
}

Value flatten(const Value& x, std::int64_t start_dim) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "flatten", {t->create_arg(x), Argument(start_dim)});
  }
  return Value(x.tensor().flatten(static_cast<int>(start_dim)));
}

Value cat(const std::vector<Value>& xs, std::int64_t dim) {
  Tracer* t = nullptr;
  for (const auto& v : xs) {
    if ((t = tracer_of({&v})) != nullptr) break;
  }
  if (t) {
    Argument::List items;
    items.reserve(xs.size());
    for (const auto& v : xs) items.push_back(t->create_arg(v));
    return record_fn(t, "cat", {Argument(std::move(items)), Argument(dim)});
  }
  std::vector<Tensor> ts;
  ts.reserve(xs.size());
  for (const auto& v : xs) ts.push_back(v.tensor());
  return Value(ops::cat(ts, static_cast<int>(dim)));
}

Value sum(const Value& x) {
  return unary("sum", x, [](const Tensor& t) { return ops::sum(t); });
}
Value mean(const Value& x) {
  return unary("mean", x, [](const Tensor& t) { return ops::mean(t); });
}

Value getitem(const Value& tuple, std::int64_t index) {
  if (Tracer* t = tracer_of({&tuple})) {
    return record_fn(t, "getitem", {t->create_arg(tuple), Argument(index)});
  }
  return tuple.tuple().at(static_cast<std::size_t>(index));
}

Value quantize_per_tensor(const Value& x, double scale,
                          std::int64_t zero_point) {
  if (Tracer* t = tracer_of({&x})) {
    return record_fn(t, "quantize_per_tensor",
                     {t->create_arg(x), Argument(scale), Argument(zero_point)});
  }
  return Value(ops::quantize_per_tensor(x.tensor(), scale,
                                        static_cast<std::int32_t>(zero_point)));
}

Value dequantize(const Value& x) {
  return unary("dequantize", x,
               [](const Tensor& t) { return ops::dequantize(t); });
}

Value quantized_relu(const Value& x) {
  return unary("quantized_relu", x,
               [](const Tensor& t) { return ops::quantized_relu(t); });
}

Value quantized_add(const Value& a, const Value& b, double out_scale,
                    std::int64_t out_zp) {
  if (Tracer* t = tracer_of({&a, &b})) {
    return record_fn(t, "quantized_add",
                     {t->create_arg(a), t->create_arg(b), Argument(out_scale),
                      Argument(out_zp)});
  }
  return Value(ops::quantized_add(a.tensor(), b.tensor(), out_scale,
                                  static_cast<std::int32_t>(out_zp)));
}

// ---------------------------------------------------------------------------
// Registry population
// ---------------------------------------------------------------------------

namespace {

void do_register() {
  auto& fns = OpRegistry::functions();
  auto& methods = OpRegistry::methods();
  using Args = std::vector<RtValue>;

  auto bin = [&](const char* name, Tensor (*tt)(const Tensor&, const Tensor&),
                 Tensor (*ts)(const Tensor&, double)) {
    fns.add({name, {"a", "b"}, [tt, ts](const Args& a) -> RtValue {
               if (rt_is_tensor(a.at(1))) {
                 return tt(rt_tensor(a[0]), rt_tensor(a[1]));
               }
               return ts(rt_tensor(a[0]), rt_double(a[1]));
             }});
  };
  bin("add", &ops::add, &ops::add);
  bin("sub", &ops::sub, &ops::sub);
  bin("mul", &ops::mul, &ops::mul);
  bin("div", &ops::div, &ops::div);

  auto un = [&](const char* name, Tensor (*f)(const Tensor&)) {
    fns.add({name, {"x"}, [f](const Args& a) -> RtValue {
               return f(rt_tensor(a.at(0)));
             }});
  };
  un("neg", &ops::neg);
  un("relu", &ops::relu);
  un("gelu", &ops::gelu);
  un("sigmoid", &ops::sigmoid);
  un("tanh", &ops::tanh);
  un("selu", &ops::selu);
  un("sqrt", &ops::sqrt);
  un("exp", &ops::exp);
  un("abs", &ops::abs);
  un("sum", &ops::sum);
  un("mean", &ops::mean);
  un("dequantize", &ops::dequantize);
  un("quantized_relu", &ops::quantized_relu);

  fns.add({"dropout", {"x", "p", "training"}, [](const Args& a) -> RtValue {
             return ops::dropout(rt_tensor(a.at(0)), rt_double(a.at(1)),
                                 rt_bool(a.at(2)));
           }});
  fns.add({"matmul", {"a", "b"}, [](const Args& a) -> RtValue {
             return ops::matmul(rt_tensor(a.at(0)), rt_tensor(a.at(1)));
           }});
  fns.add({"linear", {"x", "weight", "bias"}, [](const Args& a) -> RtValue {
             return ops::linear(rt_tensor(a.at(0)), rt_tensor(a.at(1)),
                                rt_opt_tensor(a.at(2)));
           }});
  fns.add({"linear_relu", {"x", "weight", "bias"}, [](const Args& a) -> RtValue {
             return ops::linear_relu(rt_tensor(a.at(0)), rt_tensor(a.at(1)),
                                     rt_opt_tensor(a.at(2)));
           }});
  fns.add({"transpose", {"x", "dim0", "dim1"}, [](const Args& a) -> RtValue {
             return ops::transpose(rt_tensor(a.at(0)),
                                   static_cast<int>(rt_int(a.at(1))),
                                   static_cast<int>(rt_int(a.at(2))));
           }});
  fns.add({"embedding", {"weight", "indices"}, [](const Args& a) -> RtValue {
             return ops::embedding(rt_tensor(a.at(0)), rt_tensor(a.at(1)));
           }});
  fns.add({"conv2d",
           {"x", "weight", "bias", "stride", "padding"},
           [](const Args& a) -> RtValue {
             return ops::conv2d(rt_tensor(a.at(0)), rt_tensor(a.at(1)),
                                rt_opt_tensor(a.at(2)), rt_int_list(a.at(3)),
                                rt_int_list(a.at(4)));
           }});
  fns.add({"conv2d_relu",
           {"x", "weight", "bias", "stride", "padding"},
           [](const Args& a) -> RtValue {
             return ops::conv2d_relu(
                 rt_tensor(a.at(0)), rt_tensor(a.at(1)), rt_opt_tensor(a.at(2)),
                 rt_int_list(a.at(3)), rt_int_list(a.at(4)));
           }});
  fns.add({"max_pool2d",
           {"x", "kernel", "stride", "padding"},
           [](const Args& a) -> RtValue {
             return ops::max_pool2d(rt_tensor(a.at(0)), rt_int_list(a.at(1)),
                                    rt_int_list(a.at(2)), rt_int_list(a.at(3)));
           }});
  fns.add({"avg_pool2d", {"x", "kernel", "stride"}, [](const Args& a) -> RtValue {
             return ops::avg_pool2d(rt_tensor(a.at(0)), rt_int_list(a.at(1)),
                                    rt_int_list(a.at(2)));
           }});
  fns.add({"adaptive_avg_pool2d", {"x", "output_size"},
           [](const Args& a) -> RtValue {
             return ops::adaptive_avg_pool2d(rt_tensor(a.at(0)),
                                             rt_int_list(a.at(1)));
           }});
  fns.add({"batch_norm",
           {"x", "weight", "bias", "running_mean", "running_var", "eps"},
           [](const Args& a) -> RtValue {
             return ops::batch_norm(rt_tensor(a.at(0)), rt_tensor(a.at(1)),
                                    rt_tensor(a.at(2)), rt_tensor(a.at(3)),
                                    rt_tensor(a.at(4)), rt_double(a.at(5)));
           }});
  fns.add({"layer_norm", {"x", "weight", "bias", "eps"},
           [](const Args& a) -> RtValue {
             return ops::layer_norm(rt_tensor(a.at(0)), rt_tensor(a.at(1)),
                                    rt_tensor(a.at(2)), rt_double(a.at(3)));
           }});
  fns.add({"softmax", {"x", "dim"}, [](const Args& a) -> RtValue {
             return ops::softmax(rt_tensor(a.at(0)),
                                 static_cast<int>(rt_int(a.at(1))));
           }});
  fns.add({"reshape", {"x", "shape"}, [](const Args& a) -> RtValue {
             const auto s = rt_int_list(a.at(1));
             return rt_tensor(a.at(0)).reshape(Shape(s.begin(), s.end()));
           }});
  fns.add({"flatten", {"x", "start_dim"}, [](const Args& a) -> RtValue {
             return rt_tensor(a.at(0)).flatten(
                 static_cast<int>(rt_int(a.at(1))));
           }});
  fns.add({"cat", {"tensors", "dim"}, [](const Args& a) -> RtValue {
             return ops::cat(std::get<std::vector<Tensor>>(a.at(0)),
                             static_cast<int>(rt_int(a.at(1))));
           }});
  fns.add({"getitem", {"tuple", "index"}, [](const Args& a) -> RtValue {
             const auto& ts = std::get<std::vector<Tensor>>(a.at(0));
             return ts.at(static_cast<std::size_t>(rt_int(a.at(1))));
           }});
  fns.add({"quantize_per_tensor", {"x", "scale", "zero_point"},
           [](const Args& a) -> RtValue {
             return ops::quantize_per_tensor(
                 rt_tensor(a.at(0)), rt_double(a.at(1)),
                 static_cast<std::int32_t>(rt_int(a.at(2))));
           }});
  fns.add({"quantized_add", {"a", "b", "scale", "zero_point"},
           [](const Args& a) -> RtValue {
             return ops::quantized_add(rt_tensor(a.at(0)), rt_tensor(a.at(1)),
                                       rt_double(a.at(2)),
                                       static_cast<std::int32_t>(rt_int(a.at(3))));
           }});

  // call_method targets (self is args[0]).
  methods.add({"neg", {"self"}, [](const Args& a) -> RtValue {
                 return ops::neg(rt_tensor(a.at(0)));
               }});
  methods.add({"relu", {"self"}, [](const Args& a) -> RtValue {
                 return ops::relu(rt_tensor(a.at(0)));
               }});
  methods.add({"reshape", {"self", "shape"}, [](const Args& a) -> RtValue {
                 const auto s = rt_int_list(a.at(1));
                 return rt_tensor(a.at(0)).reshape(Shape(s.begin(), s.end()));
               }});
  methods.add({"flatten", {"self", "start_dim"}, [](const Args& a) -> RtValue {
                 return rt_tensor(a.at(0)).flatten(
                     static_cast<int>(rt_int(a.at(1))));
               }});
  methods.add({"dequantize", {"self"}, [](const Args& a) -> RtValue {
                 return ops::dequantize(rt_tensor(a.at(0)));
               }});
  methods.add({"contiguous", {"self"}, [](const Args& a) -> RtValue {
                 return rt_tensor(a.at(0)).contiguous();
               }});

  // --- memory-planner traits -------------------------------------------
  // fresh_output: the kernel always materializes a new tensor (safe to
  // serve from a planned arena slot). can_alias additionally promises an
  // index-aligned elementwise map on the equal-shape path, so a dead
  // same-shaped input may share the output's slot. View-producing targets
  // (reshape/flatten/getitem/contiguous) keep both false: their result may
  // share storage with an input.
  for (const char* name : {"add", "sub", "mul", "div", "neg", "relu", "gelu",
                           "sigmoid", "tanh", "selu", "sqrt", "exp", "abs"}) {
    fns.annotate(name, /*fresh_output=*/true, /*can_alias=*/true);
  }
  for (const char* name :
       {"sum", "mean", "dequantize", "quantized_relu", "dropout", "matmul",
        "linear", "linear_relu", "transpose", "embedding", "conv2d",
        "conv2d_relu", "max_pool2d",
        "avg_pool2d", "adaptive_avg_pool2d", "batch_norm", "layer_norm",
        "softmax", "cat", "quantize_per_tensor", "quantized_add"}) {
    fns.annotate(name, /*fresh_output=*/true, /*can_alias=*/false);
  }
  methods.annotate("neg", /*fresh_output=*/true, /*can_alias=*/true);
  methods.annotate("relu", /*fresh_output=*/true, /*can_alias=*/true);
  methods.annotate("dequantize", /*fresh_output=*/true, /*can_alias=*/false);

  // --- analysis traits -------------------------------------------------
  // dropout draws from the RNG in training mode: not a pure expression, so
  // the constness analysis (and CSE / constant folding) must not merge or
  // precompute it. Everything else registered above is deterministic.
  fns.annotate_pure("dropout", false);
}

}  // namespace

void ensure_registered() {
  static std::once_flag flag;
  std::call_once(flag, do_register);
}

namespace {
// Populate the registries at load time so Interpreters built before any
// functional call still resolve targets.
const bool g_registered = [] {
  ensure_registered();
  return true;
}();
}  // namespace

}  // namespace fn
}  // namespace fxcpp::fx
