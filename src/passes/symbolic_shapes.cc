#include "passes/symbolic_shapes.h"

#include <sstream>
#include <stdexcept>
#include <typeinfo>
#include <unordered_map>

#include "core/functional.h"
#include "core/op_registry.h"
#include "nn/layers.h"
#include "quant/modules.h"
#include "resilience/exec_error.h"

namespace fxcpp::passes {

std::string sym_shape_str(const SymShape& s) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ", ";
    os << s[i].str();
  }
  os << ']';
  return os.str();
}

SymShape sym_of(const Shape& s) {
  SymShape out;
  out.reserve(s.size());
  for (auto d : s) out.push_back(SymDim::known(d));
  return out;
}

std::optional<SymShape> join(const SymShape& a, const SymShape& b) {
  if (a.size() != b.size()) return std::nullopt;
  SymShape out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = (a[i] == b[i]) ? a[i] : SymDim::dynamic();
  }
  return out;
}

namespace {

using OptShape = std::optional<SymShape>;
using OptDType = std::optional<DType>;

[[noreturn]] void conflict(const std::string& msg) {
  throw std::invalid_argument(msg);
}

// Known dim `d` must equal `want`; a dynamic dim is consistent with it.
void expect_dim(const SymDim& d, std::int64_t want, const char* what) {
  if (d.is_known && d.value != want) {
    conflict(std::string(what) + ": expected " + std::to_string(want) +
             ", got " + std::to_string(d.value));
  }
}

void expect_rank(const SymShape& x, std::size_t rank, const char* what) {
  if (x.size() != rank) {
    conflict(std::string(what) + ": expected rank " + std::to_string(rank) +
             ", got " + sym_shape_str(x));
  }
}

void expect_min_rank(const SymShape& x, std::size_t rank, const char* what) {
  if (x.size() < rank) {
    conflict(std::string(what) + ": expected rank >= " + std::to_string(rank) +
             ", got " + sym_shape_str(x));
  }
}

// Pooling/conv output extent (the kernels' floor formula).
SymDim window_out(const SymDim& in, std::int64_t pad, const SymDim& k,
                  std::int64_t stride) {
  if (!in.is_known || !k.is_known || stride <= 0) return SymDim::dynamic();
  return SymDim::known((in.value + 2 * pad - k.value) / stride + 1);
}

SymShape broadcast_sym(const SymShape& a, const SymShape& b) {
  const std::size_t n = std::max(a.size(), b.size());
  SymShape out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SymDim da = i < a.size() ? a[a.size() - 1 - i] : SymDim::known(1);
    const SymDim db = i < b.size() ? b[b.size() - 1 - i] : SymDim::known(1);
    SymDim& o = out[n - 1 - i];
    if (da.is_known && da.value == 1) o = db;
    else if (db.is_known && db.value == 1) o = da;
    else if (da == db) o = da;
    else if (!da.is_known || !db.is_known) o = SymDim::dynamic();
    else conflict("shapes " + sym_shape_str(a) + " and " + sym_shape_str(b) +
                  " are not broadcastable");
  }
  return out;
}

SymDim product(const SymShape& s, std::size_t from) {
  std::int64_t p = 1;
  for (std::size_t i = from; i < s.size(); ++i) {
    if (!s[i].is_known) return SymDim::dynamic();
    p *= s[i].value;
  }
  return SymDim::known(p);
}

// Tensor::flatten: dims before `start` kept, the rest multiplied into one.
OptShape flatten_sym(const SymShape& in, std::int64_t start) {
  const auto rank = static_cast<std::int64_t>(in.size());
  if (start < 0) start += rank;
  if (start < 0 || start > rank) return std::nullopt;
  SymShape out(in.begin(), in.begin() + start);
  out.push_back(product(in, static_cast<std::size_t>(start)));
  return out;
}

SymShape conv_out(const SymShape& x, const Shape& w,
                  const std::vector<std::int64_t>& stride,
                  const std::vector<std::int64_t>& padding, const char* what) {
  expect_rank(x, 4, what);
  if (w.size() != 4) conflict(std::string(what) + ": weight must be OIKK");
  expect_dim(x[1], w[1], what);
  const std::int64_t sh = stride.empty() ? 1 : stride[0];
  const std::int64_t sw = stride.size() > 1 ? stride[1] : sh;
  const std::int64_t ph = padding.empty() ? 0 : padding[0];
  const std::int64_t pw = padding.size() > 1 ? padding[1] : ph;
  const SymDim oh = window_out(x[2], ph, SymDim::known(w[2]), sh);
  const SymDim ow = window_out(x[3], pw, SymDim::known(w[3]), sw);
  if ((oh.is_known && oh.value <= 0) || (ow.is_known && ow.value <= 0)) {
    conflict(std::string(what) + ": empty output for input " +
             sym_shape_str(x));
  }
  return {x[0], SymDim::known(w[0]), oh, ow};
}

SymShape pool_out(const SymShape& x, const std::vector<std::int64_t>& kernel,
                  const std::vector<std::int64_t>& stride,
                  const std::vector<std::int64_t>& padding, const char* what) {
  expect_rank(x, 4, what);
  const std::int64_t kh = kernel[0];
  const std::int64_t kw = kernel.size() > 1 ? kernel[1] : kh;
  const std::int64_t sh = stride.empty() ? kh : stride[0];
  const std::int64_t sw = stride.size() > 1 ? stride[1] : sh;
  const std::int64_t ph = padding.empty() ? 0 : padding[0];
  const std::int64_t pw = padding.size() > 1 ? padding[1] : ph;
  const SymDim oh = window_out(x[2], ph, SymDim::known(kh), sh);
  const SymDim ow = window_out(x[3], pw, SymDim::known(kw), sw);
  if ((oh.is_known && oh.value < 0) || (ow.is_known && ow.value < 0)) {
    conflict(std::string(what) + ": negative output for input " +
             sym_shape_str(x));
  }
  return {x[0], x[1], oh, ow};
}

// Dims two operands must share exactly (quantized_add): known dims agree.
SymShape unify(const SymShape& a, const SymShape& b, const char* what) {
  if (a.size() != b.size()) {
    conflict(std::string(what) + ": shapes " + sym_shape_str(a) + " and " +
             sym_shape_str(b) + " differ");
  }
  SymShape out = a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_known && b[i].is_known && a[i].value != b[i].value) {
      conflict(std::string(what) + ": shapes " + sym_shape_str(a) + " and " +
               sym_shape_str(b) + " differ");
    }
    if (!a[i].is_known) out[i] = b[i];
  }
  return out;
}

// --- dtype rules ------------------------------------------------------------
// Each kernel reads one element type and writes one; any other input dtype
// makes it throw, so the result dtype is unknown rather than guessed.
OptDType only(OptDType in, DType want, DType out) {
  return in == want ? OptDType(out) : std::nullopt;
}
OptDType float_only(OptDType in) {
  return only(in, DType::Float32, DType::Float32);
}
OptDType int8_only(OptDType in) { return only(in, DType::Int8, DType::Int8); }

// --- module rules -------------------------------------------------------------

template <typename... Ts>
bool is_exactly(const nn::Module& m) {
  return ((typeid(m) == typeid(Ts)) || ...);
}

OptDType keep_dtype(const nn::Module&, DType in) { return in; }
OptDType float_dtype(const nn::Module&, DType in) { return float_only(in); }
OptDType int8_dtype(const nn::Module&, DType in) { return int8_only(in); }
OptShape keep_shape(const nn::Module&, const SymShape& x) { return x; }

OptShape linear_shape(const nn::Module& m, const SymShape& x) {
  const auto& lin = static_cast<const nn::Linear&>(m);
  expect_min_rank(x, 1, "Linear");
  expect_dim(x.back(), lin.in_features(), "Linear in_features");
  SymShape out = x;
  out.back() = SymDim::known(lin.out_features());
  return out;
}

OptShape conv_shape(const nn::Module& m, const SymShape& x) {
  const auto& conv = static_cast<const nn::Conv2d&>(m);
  return conv_out(x, conv.param("weight").sizes(), conv.stride(),
                  conv.padding(), "Conv2d");
}

OptShape batch_norm_shape(const nn::Module& m, const SymShape& x) {
  expect_min_rank(x, 2, "BatchNorm2d");
  expect_dim(x[1], static_cast<const nn::BatchNorm2d&>(m).num_features(),
             "BatchNorm2d channels");
  return x;
}

OptShape layer_norm_shape(const nn::Module& m, const SymShape& x) {
  expect_min_rank(x, 1, "LayerNorm");
  expect_dim(x.back(), m.param("weight").numel(), "LayerNorm features");
  return x;
}

OptShape max_pool_shape(const nn::Module& m, const SymShape& x) {
  const auto& mp = static_cast<const nn::MaxPool2d&>(m);
  return pool_out(x, {mp.kernel()}, {mp.stride()}, {mp.padding()},
                  "MaxPool2d");
}

OptShape adaptive_pool_shape(const nn::Module& m, const SymShape& x) {
  expect_rank(x, 4, "AdaptiveAvgPool2d");
  const auto out = SymDim::known(
      static_cast<const nn::AdaptiveAvgPool2d&>(m).output_size());
  return SymShape{x[0], x[1], out, out};
}

OptShape flatten_shape(const nn::Module& m, const SymShape& x) {
  return flatten_sym(x, static_cast<const nn::Flatten&>(m).start_dim());
}

// Eval-mode dropout is a clone (any dtype); training mode is fp32 only.
OptDType dropout_dtype(const nn::Module& m, DType in) {
  const auto& d = static_cast<const nn::Dropout&>(m);
  return d.training() && d.p() > 0.0 ? float_only(in) : OptDType(in);
}

OptShape embedding_shape(const nn::Module& m, const SymShape& x) {
  SymShape out = x;
  out.push_back(SymDim::known(m.param("weight").size(1)));
  return out;
}
OptDType embedding_dtype(const nn::Module&, DType in) {
  return only(in, DType::Int64, DType::Float32);
}

OptShape quantized_linear_shape(const nn::Module& m, const SymShape& x) {
  const Tensor& w = m.param("weight_int8");  // [out, in]
  expect_min_rank(x, 1, "QuantizedLinear");
  expect_dim(x.back(), w.size(1), "QuantizedLinear in_features");
  SymShape out = x;
  out.back() = SymDim::known(w.size(0));
  return out;
}

OptShape quantized_conv_shape(const nn::Module& m, const SymShape& x) {
  const auto& qc = static_cast<const quant::QuantizedConv2d&>(m);
  // The int8 kernel does not check the channel count, so neither does this
  // rule: feed it the weight's own C.
  expect_rank(x, 4, "QuantizedConv2d");
  Shape w = qc.param("weight_int8").sizes();
  SymShape xs = x;
  xs[1] = SymDim::known(w[1]);
  return conv_out(xs, w, qc.stride(), qc.padding(), "QuantizedConv2d");
}

}  // namespace

const std::vector<ModuleTransfer>& module_transfer_table() {
  static const std::vector<ModuleTransfer> table = {
      {"Linear", is_exactly<nn::Linear, nn::LinearReLU>, linear_shape,
       float_dtype},
      {"Conv2d", is_exactly<nn::Conv2d, nn::Conv2dReLU>, conv_shape,
       float_dtype},
      {"BatchNorm2d", is_exactly<nn::BatchNorm2d>, batch_norm_shape,
       float_dtype},
      {"LayerNorm", is_exactly<nn::LayerNorm>, layer_norm_shape, float_dtype},
      {"Activation",
       is_exactly<nn::ReLU, nn::GELU, nn::SELU, nn::Sigmoid, nn::Tanh>,
       keep_shape, float_dtype},
      {"MaxPool2d", is_exactly<nn::MaxPool2d>, max_pool_shape, float_dtype},
      {"AdaptiveAvgPool2d", is_exactly<nn::AdaptiveAvgPool2d>,
       adaptive_pool_shape, float_dtype},
      {"Flatten", is_exactly<nn::Flatten>, flatten_shape, keep_dtype},
      {"Dropout", is_exactly<nn::Dropout>, keep_shape, dropout_dtype},
      {"Identity", is_exactly<nn::Identity>, keep_shape, keep_dtype},
      {"Embedding", is_exactly<nn::Embedding>, embedding_shape,
       embedding_dtype},
      {"QuantizedLinear", is_exactly<quant::QuantizedLinear>,
       quantized_linear_shape, int8_dtype},
      {"QuantizedConv2d", is_exactly<quant::QuantizedConv2d>,
       quantized_conv_shape, int8_dtype},
      {"QuantizedUnary", is_exactly<quant::QuantizedUnary>, keep_shape,
       int8_dtype},
  };
  return table;
}

namespace {

// Apply the table to one input type; a module with no entry gives an
// unknown result (no rank, no dtype).
SymTensor module_transfer(const nn::Module& m, const SymTensor& x) {
  for (const auto& t : module_transfer_table()) {
    if (!t.matches(m)) continue;
    SymTensor out;
    if (x.shape) out.shape = t.shape(m, *x.shape);
    if (x.dtype) out.dtype = t.dtype(m, *x.dtype);
    return out;
  }
  return {};
}

// --- function rules -------------------------------------------------------------

using TypeMap = std::unordered_map<const fx::Node*, SymTensor>;

// One call's operands in positional order, kwargs merged by the op's
// parameter names exactly as the engines merge them (fx::merge_kwargs).
class Operands {
 public:
  Operands(const fx::Node& n, const fx::OpInfo& info, const TypeMap& types)
      : types_(types) {
    for (const auto& a : n.args()) args_.push_back(&a);
    for (const auto& [key, v] : n.kwargs()) {
      std::size_t i = 0;
      while (i < info.param_names.size() && info.param_names[i] != key) ++i;
      if (i == info.param_names.size()) {
        ok_ = false;  // the engines reject this call; no type for it
        return;
      }
      if (args_.size() <= i) args_.resize(i + 1, nullptr);
      args_[i] = &v;
    }
  }

  bool ok() const { return ok_; }
  const fx::Argument* arg(std::size_t i) const {
    return i < args_.size() ? args_[i] : nullptr;
  }
  bool is_node(std::size_t i) const { return arg(i) && arg(i)->is_node(); }
  const SymTensor& type(std::size_t i) const {
    return is_node(i) ? of(*arg(i)) : kUnknown;
  }
  const SymTensor& of(const fx::Argument& a) const {
    auto it = types_.find(a.node());
    return it == types_.end() ? kUnknown : it->second;
  }
  // The engines' rt_int / rt_int_list / rt_double / rt_bool decodings.
  std::optional<std::int64_t> int_at(std::size_t i) const {
    if (!arg(i) || !arg(i)->is_int()) return std::nullopt;
    return arg(i)->as_int();
  }
  std::optional<std::vector<std::int64_t>> ints(std::size_t i) const {
    const fx::Argument* a = arg(i);
    if (a && a->is_int()) return std::vector<std::int64_t>{a->as_int()};
    if (!a || !a->is_list()) return std::nullopt;
    for (const auto& item : a->list()) {
      if (!item.is_int()) return std::nullopt;
    }
    return a->int_list();
  }
  std::optional<double> num(std::size_t i) const {
    const fx::Argument* a = arg(i);
    if (a && a->is_double()) return a->as_double();
    if (a && a->is_int()) return static_cast<double>(a->as_int());
    return std::nullopt;
  }
  std::optional<bool> flag(std::size_t i) const {
    if (!arg(i) || !arg(i)->is_bool()) return std::nullopt;
    return arg(i)->as_bool();
  }

 private:
  static inline const SymTensor kUnknown{};
  const TypeMap& types_;
  std::vector<const fx::Argument*> args_;
  bool ok_ = true;
};

using FnRule = SymTensor (*)(const Operands&);

SymTensor float_map(const Operands& o) {
  const SymTensor& x = o.type(0);
  return {x.shape, float_only(x.dtype)};
}

SymTensor same_type(const Operands& o) { return o.type(0); }

SymTensor binary(const Operands& o) {
  if (!o.is_node(1)) {
    return o.num(1) ? float_map(o) : SymTensor{};  // tensor (op) scalar
  }
  const SymTensor& a = o.type(0);
  const SymTensor& b = o.type(1);
  SymTensor out;
  if (a.shape && b.shape) out.shape = broadcast_sym(*a.shape, *b.shape);
  if (float_only(a.dtype) && float_only(b.dtype)) out.dtype = DType::Float32;
  return out;
}

SymTensor reduce_all(const Operands& o) {
  return {SymShape{}, float_only(o.type(0).dtype)};
}

SymTensor dropout(const Operands& o) {
  const auto p = o.num(1);
  const auto training = o.flag(2);
  if (!p || !training) return {};
  if (!*training || *p <= 0.0) return o.type(0);  // clone
  return float_map(o);
}

SymTensor matmul(const Operands& o) {
  const SymTensor& a = o.type(0);
  const SymTensor& b = o.type(1);
  SymTensor out;
  if (float_only(a.dtype) && float_only(b.dtype)) out.dtype = DType::Float32;
  if (!a.shape || !b.shape) return out;
  expect_rank(*b.shape, 2, "matmul rhs");
  if (a.shape->size() != 2 && a.shape->size() != 3) {
    conflict("matmul: lhs must be 2-D or 3-D, got " + sym_shape_str(*a.shape));
  }
  const SymDim& k = (*b.shape)[0];
  if (k.is_known) expect_dim(a.shape->back(), k.value, "matmul K");
  out.shape = *a.shape;
  out.shape->back() = (*b.shape)[1];
  return out;
}

SymTensor linear(const Operands& o) {
  const SymTensor& x = o.type(0);
  const SymTensor& w = o.type(1);
  SymTensor out;
  if (float_only(x.dtype) && float_only(w.dtype)) out.dtype = DType::Float32;
  if (!x.shape || !w.shape) return out;
  expect_rank(*w.shape, 2, "linear weight");
  expect_min_rank(*x.shape, 1, "linear");
  const SymDim& in = (*w.shape)[1];
  if (in.is_known) expect_dim(x.shape->back(), in.value, "linear in_features");
  if (o.is_node(2)) {
    const SymTensor& bias = o.type(2);
    const SymDim n = bias.shape ? product(*bias.shape, 0) : SymDim::dynamic();
    const SymDim& out_f = (*w.shape)[0];
    if (n.is_known && out_f.is_known) expect_dim(n, out_f.value, "linear bias");
  }
  out.shape = *x.shape;
  out.shape->back() = (*w.shape)[0];
  return out;
}

SymTensor transpose(const Operands& o) {
  const SymTensor& x = o.type(0);
  const auto d0 = o.int_at(1), d1 = o.int_at(2);
  if (!d0 || !d1) return {};
  SymTensor out{std::nullopt, x.dtype};
  if (!x.shape) return out;
  const auto rank = static_cast<std::int64_t>(x.shape->size());
  const std::int64_t a = *d0 < 0 ? *d0 + rank : *d0;
  const std::int64_t b = *d1 < 0 ? *d1 + rank : *d1;
  if (a < 0 || a >= rank || b < 0 || b >= rank) {
    conflict("transpose: dims out of range for " + sym_shape_str(*x.shape));
  }
  out.shape = *x.shape;
  std::swap((*out.shape)[static_cast<std::size_t>(a)],
            (*out.shape)[static_cast<std::size_t>(b)]);
  return out;
}

SymTensor embedding(const Operands& o) {
  const SymTensor& w = o.type(0);
  const SymTensor& idx = o.type(1);
  SymTensor out;
  if (float_only(w.dtype) && idx.dtype == DType::Int64) {
    out.dtype = DType::Float32;
  }
  if (!w.shape || !idx.shape) return out;
  expect_rank(*w.shape, 2, "embedding weight");
  out.shape = *idx.shape;
  out.shape->push_back((*w.shape)[1]);
  return out;
}

SymTensor conv2d(const Operands& o) {
  const SymTensor& x = o.type(0);
  const SymTensor& w = o.type(1);
  const auto stride = o.ints(3), padding = o.ints(4);
  if (!stride || !padding) return {};
  SymTensor out;
  if (float_only(x.dtype) && float_only(w.dtype)) out.dtype = DType::Float32;
  if (!x.shape || !w.shape) return out;
  expect_rank(*w.shape, 4, "conv2d weight");
  Shape ws;
  for (const SymDim& d : *w.shape) {
    if (!d.is_known) return out;
    ws.push_back(d.value);
  }
  out.shape = conv_out(*x.shape, ws, *stride, *padding, "conv2d");
  return out;
}

SymTensor max_pool2d(const Operands& o) {
  const SymTensor& x = o.type(0);
  const auto kernel = o.ints(1), stride = o.ints(2), padding = o.ints(3);
  if (!kernel || kernel->empty() || !stride || !padding) return {};
  SymTensor out{std::nullopt, float_only(x.dtype)};
  if (x.shape) {
    out.shape = pool_out(*x.shape, *kernel, *stride, *padding, "max_pool2d");
  }
  return out;
}

SymTensor avg_pool2d(const Operands& o) {
  const SymTensor& x = o.type(0);
  const auto kernel = o.ints(1), stride = o.ints(2);
  if (!kernel || kernel->empty() || !stride) return {};
  SymTensor out{std::nullopt, float_only(x.dtype)};
  if (x.shape) out.shape = pool_out(*x.shape, *kernel, *stride, {}, "avg_pool2d");
  return out;
}

SymTensor adaptive_avg_pool2d(const Operands& o) {
  const SymTensor& x = o.type(0);
  const auto hw = o.ints(1);
  if (!hw || hw->empty()) return {};
  SymTensor out{std::nullopt, float_only(x.dtype)};
  if (!x.shape) return out;
  expect_rank(*x.shape, 4, "adaptive_avg_pool2d");
  out.shape = SymShape{(*x.shape)[0], (*x.shape)[1], SymDim::known((*hw)[0]),
                       SymDim::known(hw->size() > 1 ? (*hw)[1] : (*hw)[0])};
  return out;
}

// The normalization kernels check every parameter's numel against the
// normalized extent: dim 1 (batch_norm) or the last dim (layer_norm).
void expect_param_numel(const Operands& o, std::size_t first, std::size_t last,
                        const SymDim& extent, const char* what) {
  if (!extent.is_known) return;
  for (std::size_t i = first; i <= last; ++i) {
    const SymTensor& p = o.type(i);
    if (!p.shape) continue;
    const SymDim n = product(*p.shape, 0);
    if (n.is_known) expect_dim(n, extent.value, what);
  }
}

SymTensor batch_norm(const Operands& o) {
  SymTensor out = float_map(o);
  if (!out.shape) return out;
  expect_min_rank(*out.shape, 2, "batch_norm");
  expect_param_numel(o, 1, 4, (*out.shape)[1], "batch_norm parameter size");
  return out;
}

SymTensor layer_norm(const Operands& o) {
  SymTensor out = float_map(o);
  if (!out.shape) return out;
  expect_min_rank(*out.shape, 1, "layer_norm");
  expect_param_numel(o, 1, 2, out.shape->back(), "layer_norm parameter size");
  return out;
}

SymTensor softmax(const Operands& o) {
  const auto dim = o.int_at(1);
  if (!dim) return {};
  SymTensor out = float_map(o);
  if (!out.shape) return out;
  const auto rank = static_cast<std::int64_t>(out.shape->size());
  if ((*dim < 0 ? *dim + rank : *dim) != rank - 1) {
    conflict("softmax: only the trailing dim is supported, got dim " +
             std::to_string(*dim) + " of " + sym_shape_str(*out.shape));
  }
  return out;
}

SymTensor reshape(const Operands& o) {
  const SymTensor& x = o.type(0);
  const auto dims = o.ints(1);
  if (!dims) return {};
  SymTensor out{std::nullopt, x.dtype};
  if (!x.shape) return out;
  std::int64_t known = 1;
  int infer = -1;
  SymShape s;
  for (std::size_t i = 0; i < dims->size(); ++i) {
    const std::int64_t d = (*dims)[i];
    if (d == -1) {
      if (infer >= 0) conflict("reshape: two inferred dims");
      infer = static_cast<int>(i);
      s.push_back(SymDim::dynamic());
    } else {
      known *= d;
      s.push_back(SymDim::known(d));
    }
  }
  const SymDim total = product(*x.shape, 0);
  if (total.is_known) {
    if (infer >= 0) {
      if (known == 0) return out;  // the kernel would divide by zero
      s[static_cast<std::size_t>(infer)] = SymDim::known(total.value / known);
    }
    const SymDim n = product(s, 0);
    if (n.value != total.value) {
      conflict("reshape: numel mismatch " + sym_shape_str(*x.shape) + " -> " +
               sym_shape_str(s));
    }
  }
  out.shape = std::move(s);
  return out;
}

SymTensor flatten(const Operands& o) {
  const SymTensor& x = o.type(0);
  const auto start = o.int_at(1);
  if (!start) return {};
  SymTensor out{std::nullopt, x.dtype};
  if (x.shape) {
    out.shape = flatten_sym(*x.shape, *start);
    if (!out.shape) return {};  // out-of-range start_dim: no exact answer
  }
  return out;
}

SymTensor cat(const Operands& o) {
  const fx::Argument* list = o.arg(0);
  const auto dim = o.int_at(1);
  if (!list || !list->is_list() || list->list().empty() || !dim) return {};
  std::vector<const SymTensor*> items;
  for (const auto& item : list->list()) {
    if (!item.is_node()) return {};
    items.push_back(&o.of(item));
  }
  SymTensor out;
  out.dtype = items[0]->dtype;
  for (const SymTensor* t : items) {
    if (t->dtype != out.dtype) out.dtype = std::nullopt;
  }
  for (const SymTensor* t : items) {
    if (!t->shape) return out;
  }
  const SymShape& first = *items[0]->shape;
  const auto rank = static_cast<std::int64_t>(first.size());
  const std::int64_t d = *dim < 0 ? *dim + rank : *dim;
  if (d < 0 || d >= rank) return {};
  SymShape s = first;
  SymDim acc = SymDim::known(0);
  for (const SymTensor* t : items) {
    const SymShape& ts = *t->shape;
    if (ts.size() != first.size()) conflict("cat: rank mismatch");
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (static_cast<std::int64_t>(i) == d) continue;
      if (ts[i].is_known && s[i].is_known && ts[i].value != s[i].value) {
        conflict("cat: shape mismatch in dim " + std::to_string(i));
      }
      if (!s[i].is_known) s[i] = ts[i];
    }
    const SymDim& c = ts[static_cast<std::size_t>(d)];
    acc = acc.is_known && c.is_known ? SymDim::known(acc.value + c.value)
                                     : SymDim::dynamic();
  }
  s[static_cast<std::size_t>(d)] = acc;
  out.shape = std::move(s);
  return out;
}

SymTensor quantize_per_tensor(const Operands& o) {
  const SymTensor& x = o.type(0);
  return {x.shape, only(x.dtype, DType::Float32, DType::Int8)};
}

SymTensor dequantize(const Operands& o) {
  const SymTensor& x = o.type(0);
  return {x.shape, only(x.dtype, DType::Int8, DType::Float32)};
}

SymTensor quantized_relu(const Operands& o) {
  const SymTensor& x = o.type(0);
  return {x.shape, int8_only(x.dtype)};
}

SymTensor quantized_add(const Operands& o) {
  const SymTensor& a = o.type(0);
  const SymTensor& b = o.type(1);
  SymTensor out;
  if (int8_only(a.dtype) && int8_only(b.dtype)) out.dtype = DType::Int8;
  if (a.shape && b.shape) out.shape = unify(*a.shape, *b.shape, "quantized_add");
  return out;
}

const std::unordered_map<std::string, FnRule>& function_rules() {
  static const std::unordered_map<std::string, FnRule> rules = {
      {"add", binary},
      {"sub", binary},
      {"mul", binary},
      {"div", binary},
      {"neg", float_map},
      {"relu", float_map},
      {"gelu", float_map},
      {"sigmoid", float_map},
      {"tanh", float_map},
      {"selu", float_map},
      {"sqrt", float_map},
      {"exp", float_map},
      {"abs", float_map},
      {"sum", reduce_all},
      {"mean", reduce_all},
      {"dropout", dropout},
      {"matmul", matmul},
      {"linear", linear},
      {"linear_relu", linear},
      {"transpose", transpose},
      {"embedding", embedding},
      {"conv2d", conv2d},
      {"conv2d_relu", conv2d},
      {"max_pool2d", max_pool2d},
      {"avg_pool2d", avg_pool2d},
      {"adaptive_avg_pool2d", adaptive_avg_pool2d},
      {"batch_norm", batch_norm},
      {"layer_norm", layer_norm},
      {"softmax", softmax},
      {"reshape", reshape},
      {"flatten", flatten},
      {"cat", cat},
      {"quantize_per_tensor", quantize_per_tensor},
      {"dequantize", dequantize},
      {"quantized_relu", quantized_relu},
      {"quantized_add", quantized_add},
  };
  return rules;
}

const std::unordered_map<std::string, FnRule>& method_rules() {
  static const std::unordered_map<std::string, FnRule> rules = {
      {"neg", float_map},     {"relu", float_map},
      {"reshape", reshape},   {"flatten", flatten},
      {"dequantize", dequantize}, {"contiguous", same_type},
  };
  return rules;
}

SymTensor function_transfer(const fx::Node& n, const TypeMap& types) {
  const bool is_fn = n.op() == fx::Opcode::CallFunction;
  const auto& reg = is_fn ? fx::OpRegistry::functions() : fx::OpRegistry::methods();
  const auto& rules = is_fn ? function_rules() : method_rules();
  // Rules are keyed by target name, like the planner's OpInfo traits. An
  // unregistered target, or one with no rule (custom ops), is unknown.
  const fx::OpInfo* info = reg.find(n.target());
  const auto rule = rules.find(n.target());
  if (!info || rule == rules.end()) return {};
  const Operands ops(n, *info, types);
  if (!ops.ok()) return {};
  return rule->second(ops);
}

std::optional<Shape> concrete(const std::optional<SymShape>& s) {
  if (!s) return std::nullopt;
  Shape out;
  out.reserve(s->size());
  for (const SymDim& d : *s) {
    if (!d.is_known) return std::nullopt;
    out.push_back(d.value);
  }
  return out;
}

}  // namespace

void transfer_graph(fx::GraphModule& gm, const std::vector<SymTensor>& inputs,
                    const TypeVisitor& visit,
                    const ConflictHandler& on_conflict) {
  fx::fn::ensure_registered();
  TypeMap types;
  std::size_t ph = 0;
  for (fx::Node* n : gm.graph().nodes()) {
    SymTensor t;
    try {
      switch (n->op()) {
        case fx::Opcode::Placeholder:
          if (ph < inputs.size()) t = inputs[ph++];
          break;
        case fx::Opcode::GetAttr: {
          const Tensor v = gm.resolve_attr(n->target());
          t = SymTensor{sym_of(v.sizes()), v.dtype()};
          break;
        }
        case fx::Opcode::CallModule:
          if (!n->args().empty() && n->args()[0].is_node()) {
            auto it = types.find(n->args()[0].node());
            if (it != types.end()) {
              t = module_transfer(*gm.resolve_module(n->target()), it->second);
            }
          }
          break;
        case fx::Opcode::CallFunction:
        case fx::Opcode::CallMethod:
          t = function_transfer(*n, types);
          break;
        case fx::Opcode::Output:
          if (!n->args().empty() && n->args()[0].is_node()) {
            auto it = types.find(n->args()[0].node());
            if (it != types.end()) t = it->second;
          }
          break;
      }
    } catch (const std::invalid_argument& e) {
      if (!on_conflict) {
        throw std::invalid_argument("node '" + n->name() + "' (" +
                                    fx::opcode_name(n->op()) + " " +
                                    n->target() + "): " + e.what());
      }
      on_conflict(*n, e.what());
      t = SymTensor{};
    }
    visit(*n, t);
    types.emplace(n, std::move(t));
  }
}

SymShape propagate_symbolic(fx::GraphModule& gm,
                            const std::vector<SymShape>& input_shapes) {
  std::size_t placeholders = 0;
  for (const fx::Node* n : gm.graph().nodes()) {
    if (n->op() == fx::Opcode::Placeholder) ++placeholders;
  }
  if (input_shapes.size() < placeholders) {
    throw std::invalid_argument("propagate_symbolic: missing input shape");
  }
  std::vector<SymTensor> in;
  for (const SymShape& s : input_shapes) in.push_back(SymTensor{s, std::nullopt});
  SymShape result;
  transfer_graph(gm, in, [&](fx::Node& n, const SymTensor& t) {
    if (n.op() == fx::Opcode::Output) {
      if (t.shape) result = *t.shape;
    } else if (t.shape) {
      n.set_meta("sym_shape", sym_shape_str(*t.shape));
    } else {
      n.clear_meta("sym_shape");
    }
  });
  return result;
}

MetaTable infer_meta_table(fx::GraphModule& gm,
                           const std::vector<Tensor>& example_inputs) {
  std::size_t placeholders = 0;
  for (const fx::Node* n : gm.graph().nodes()) {
    if (n->op() == fx::Opcode::Placeholder) ++placeholders;
  }
  if (example_inputs.size() != placeholders) {
    throw arity_error(placeholders, example_inputs.size());
  }
  std::vector<SymTensor> in;
  in.reserve(example_inputs.size());
  for (const Tensor& t : example_inputs) {
    in.push_back(SymTensor{sym_of(t.sizes()), t.dtype()});
  }
  MetaTable meta;
  transfer_graph(gm, in, [&](const fx::Node& n, const SymTensor& t) {
    std::optional<Shape> shape = concrete(t.shape);
    if (shape && t.dtype) {
      meta.emplace(&n, TensorMeta{std::move(*shape), *t.dtype});
    }
  });
  return meta;
}

void infer_meta(fx::GraphModule& gm, const std::vector<Tensor>& example_inputs) {
  const MetaTable meta = infer_meta_table(gm, example_inputs);
  for (fx::Node* n : gm.graph().nodes()) {
    const auto it = meta.find(n);
    if (it == meta.end()) {
      n->invalidate_shape_meta();
    } else {
      n->set_meta("shape", it->second.shape);
      n->set_meta("dtype", it->second.dtype);
    }
  }
}

LoopAnalysis analyze_loop_cat(const SymShape& init, int cat_dim,
                              int max_iterations) {
  LoopAnalysis out;
  SymShape state = init;
  for (int i = 0; i < max_iterations; ++i) {
    // Body transfer: x = cat((x, x), dim=cat_dim).
    SymShape next = state;
    SymDim& d = next.at(static_cast<std::size_t>(cat_dim));
    d = d.is_known ? SymDim::known(2 * d.value) : SymDim::dynamic();
    const auto joined = join(state, next);
    out.iterations = i + 1;
    if (!joined) {
      state.at(static_cast<std::size_t>(cat_dim)) = SymDim::dynamic();
      break;
    }
    if (*joined == state) {
      out.converged = true;
      state = *joined;
      break;
    }
    state = *joined;
    // Once a dim is dynamic the join is a fixed point on the next round.
  }
  out.result = state;
  out.converged = out.converged ||
                  !state.at(static_cast<std::size_t>(cat_dim)).is_known;
  return out;
}

}  // namespace fxcpp::passes
