#include "passes/symbolic_shapes.h"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "nn/layers.h"

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

SymDim sym_div_ceil_conv(const SymDim& in, std::int64_t pad, std::int64_t k,
                         std::int64_t stride) {
  if (!in.is_known) return SymDim::dynamic();
  return SymDim::known((in.value + 2 * pad - k) / stride + 1);
}

SymDim broadcast_dim(const SymDim& a, const SymDim& b) {
  if (a.is_known && a.value == 1) return b;
  if (b.is_known && b.value == 1) return a;
  if (a == b) return a;
  if (!a.is_known || !b.is_known) return SymDim::dynamic();
  throw std::invalid_argument("symbolic broadcast mismatch");
}

SymShape broadcast_sym(const SymShape& a, const SymShape& b) {
  const std::size_t n = std::max(a.size(), b.size());
  SymShape out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SymDim da = i < a.size() ? a[a.size() - 1 - i] : SymDim::known(1);
    const SymDim db = i < b.size() ? b[b.size() - 1 - i] : SymDim::known(1);
    out[n - 1 - i] = broadcast_dim(da, db);
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

SymShape flatten_sym(const SymShape& in, std::int64_t start) {
  if (start < 0) start += static_cast<std::int64_t>(in.size());
  SymShape out(in.begin(), in.begin() + start);
  out.push_back(product(in, static_cast<std::size_t>(start)));
  return out;
}

struct SymEnv {
  std::unordered_map<const fx::Node*, SymShape> shapes;
  const SymShape& of(const fx::Argument& a) const {
    if (!a.is_node()) {
      throw std::invalid_argument("expected node argument for shape input");
    }
    auto it = shapes.find(a.node());
    if (it == shapes.end()) {
      throw std::logic_error("symbolic shape requested before definition");
    }
    return it->second;
  }
};

SymShape conv_like(const SymShape& x, std::int64_t out_ch, std::int64_t k,
                   std::int64_t stride, std::int64_t pad) {
  if (x.size() != 4) throw std::invalid_argument("conv2d input must be NCHW");
  return {x[0], SymDim::known(out_ch),
          sym_div_ceil_conv(x[2], pad, k, stride),
          sym_div_ceil_conv(x[3], pad, k, stride)};
}

SymShape function_transfer(const fx::Node& n, const SymEnv& env) {
  const std::string& t = n.target();
  auto in0 = [&] { return env.of(n.args().at(0)); };
  if (t == "add" || t == "sub" || t == "mul" || t == "div") {
    if (n.args().at(1).is_node()) {
      return broadcast_sym(in0(), env.of(n.args()[1]));
    }
    return in0();
  }
  if (t == "linear" || t == "linear_relu") {
    SymShape out = in0();
    const SymShape& w = env.of(n.args().at(1));
    out.back() = w.at(0);
    return out;
  }
  if (t == "matmul") {
    SymShape a = in0();
    const SymShape& b = env.of(n.args().at(1));
    a.back() = b.back();
    return a;
  }
  if (t == "conv2d" || t == "conv2d_relu") {
    const SymShape& x = in0();
    const SymShape& w = env.of(n.args().at(1));
    const auto stride = n.args().at(3).int_list();
    const auto pad = n.args().at(4).int_list();
    if (!w[2].is_known || !w[0].is_known) {
      return {x[0], SymDim::dynamic(), SymDim::dynamic(), SymDim::dynamic()};
    }
    return conv_like(x, w[0].value, w[2].value, stride[0], pad[0]);
  }
  if (t == "flatten") return flatten_sym(in0(), n.args().at(1).as_int());
  if (t == "reshape") {
    const auto dims = n.args().at(1).int_list();
    SymShape out;
    const SymDim total = product(in0(), 0);
    for (auto d : dims) {
      out.push_back(d == -1 ? (total.is_known ? SymDim::dynamic() : SymDim::dynamic())
                            : SymDim::known(d));
    }
    // Resolve a single -1 when everything else is known.
    if (total.is_known) {
      std::int64_t known = 1;
      int infer = -1;
      for (std::size_t i = 0; i < dims.size(); ++i) {
        if (dims[i] == -1) infer = static_cast<int>(i);
        else known *= dims[i];
      }
      if (infer >= 0) {
        out[static_cast<std::size_t>(infer)] =
            SymDim::known(total.value / known);
      }
    }
    return out;
  }
  if (t == "cat") {
    const auto& items = n.args().at(0).list();
    const std::int64_t dim = n.args().at(1).as_int();
    SymShape out = env.of(items.at(0));
    SymDim acc = SymDim::known(0);
    for (const auto& item : items) {
      const SymShape& s = env.of(item);
      const SymDim d = s.at(static_cast<std::size_t>(dim));
      if (!acc.is_known || !d.is_known) acc = SymDim::dynamic();
      else acc = SymDim::known(acc.value + d.value);
    }
    out[static_cast<std::size_t>(dim)] = acc;
    return out;
  }
  if (t == "max_pool2d" || t == "avg_pool2d") {
    const SymShape& x = in0();
    const auto k = n.args().at(1).int_list();
    const auto s = n.args().at(2).int_list();
    const std::int64_t pad =
        (t == "max_pool2d") ? n.args().at(3).int_list()[0] : 0;
    return {x[0], x[1], sym_div_ceil_conv(x[2], pad, k[0], s[0]),
            sym_div_ceil_conv(x[3], pad, k[1], s.size() > 1 ? s[1] : s[0])};
  }
  if (t == "adaptive_avg_pool2d") {
    const SymShape& x = in0();
    const auto o = n.args().at(1).int_list();
    return {x[0], x[1], SymDim::known(o[0]),
            SymDim::known(o.size() > 1 ? o[1] : o[0])};
  }
  if (t == "transpose") {
    SymShape out = in0();
    auto d0 = n.args().at(1).as_int(), d1 = n.args().at(2).as_int();
    if (d0 < 0) d0 += static_cast<std::int64_t>(out.size());
    if (d1 < 0) d1 += static_cast<std::int64_t>(out.size());
    std::swap(out[static_cast<std::size_t>(d0)], out[static_cast<std::size_t>(d1)]);
    return out;
  }
  if (t == "sum" || t == "mean") return {};
  if (t == "embedding") {
    SymShape out = env.of(n.args().at(1));
    out.push_back(env.of(n.args().at(0)).at(1));
    return out;
  }
  // Elementwise/defaults (relu, gelu, batch_norm, softmax, dropout, ...).
  return in0();
}

}  // namespace

const std::vector<ModuleTransfer>& module_transfer_table() {
  static const std::vector<ModuleTransfer> table = {
      {"Linear",
       [](const nn::Module& m, const SymShape& x) -> std::optional<SymShape> {
         const auto* lin = dynamic_cast<const nn::Linear*>(&m);
         if (!lin) return std::nullopt;
         SymShape out = x;
         out.back() = SymDim::known(lin->out_features());
         return out;
       }},
      {"Conv2d",
       [](const nn::Module& m, const SymShape& x) -> std::optional<SymShape> {
         const auto* conv = dynamic_cast<const nn::Conv2d*>(&m);
         if (!conv) return std::nullopt;
         return conv_like(x, conv->out_channels(),
                          conv->param("weight").size(2), conv->stride()[0],
                          conv->padding()[0]);
       }},
      {"MaxPool2d",
       [](const nn::Module& m, const SymShape& x) -> std::optional<SymShape> {
         const auto* mp = dynamic_cast<const nn::MaxPool2d*>(&m);
         if (!mp) return std::nullopt;
         auto dim = [&](const SymDim& d) {
           return sym_div_ceil_conv(d, mp->padding(), mp->kernel(),
                                    mp->stride());
         };
         return SymShape{x.at(0), x.at(1), dim(x.at(2)), dim(x.at(3))};
       }},
      {"AdaptiveAvgPool2d",
       [](const nn::Module& m, const SymShape& x) -> std::optional<SymShape> {
         const auto* ap = dynamic_cast<const nn::AdaptiveAvgPool2d*>(&m);
         if (!ap) return std::nullopt;
         return SymShape{x.at(0), x.at(1), SymDim::known(ap->output_size()),
                         SymDim::known(ap->output_size())};
       }},
      {"Flatten",
       [](const nn::Module& m, const SymShape& x) -> std::optional<SymShape> {
         if (!dynamic_cast<const nn::Flatten*>(&m)) return std::nullopt;
         return flatten_sym(x, 1);
       }},
  };
  return table;
}

SymShape module_sym_transfer(const nn::Module& m, const SymShape& x) {
  for (const auto& t : module_transfer_table()) {
    if (auto out = t.fn(m, x)) return *out;
  }
  // BatchNorm, activations, Dropout, Identity, LayerNorm: shape-preserving.
  return x;
}

SymShape propagate_symbolic(fx::GraphModule& gm,
                            const std::vector<SymShape>& input_shapes) {
  SymEnv env;
  std::size_t ph = 0;
  SymShape result;
  for (fx::Node* n : gm.graph().nodes()) {
    SymShape s;
    switch (n->op()) {
      case fx::Opcode::Placeholder:
        if (ph >= input_shapes.size()) {
          throw std::invalid_argument("propagate_symbolic: missing input shape");
        }
        s = input_shapes[ph++];
        break;
      case fx::Opcode::GetAttr:
        s = sym_of(gm.resolve_attr(n->target()).sizes());
        break;
      case fx::Opcode::CallModule:
        s = module_sym_transfer(*gm.resolve_module(n->target()),
                                env.of(n->args().at(0)));
        break;
      case fx::Opcode::CallFunction:
      case fx::Opcode::CallMethod:
        s = function_transfer(*n, env);
        break;
      case fx::Opcode::Output:
        if (n->args().at(0).is_node()) result = env.of(n->args()[0]);
        continue;
    }
    env.shapes[n] = s;
    n->set_meta("sym_shape", sym_shape_str(s));
  }
  return result;
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
