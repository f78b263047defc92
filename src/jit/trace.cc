#include "jit/trace.h"

#include <sstream>
#include <unordered_map>

#include "nn/layers.h"

namespace fxcpp::jit {

namespace {

class TraceExpander {
 public:
  TraceExpander(JGraph& g, fx::GraphModule& gm) : g_(g), gm_(gm) {}

  void expand();

 private:
  // GetAttr chain through the module hierarchy ("layer1.0.conv1.weight" ->
  // one prim::GetAttr per path segment). Chains are cached per path prefix,
  // matching jit.trace's hoisting of repeated module attribute reads.
  std::string attr_chain(const std::string& qualname);

  // Constant pooling: TorchScript runs a ConstantPooling pass over traced
  // graphs, so repeated scalar constants share one prim::Constant node.
  std::string pooled_const(const std::string& attr);
  std::string int_const(std::int64_t v) {
    return pooled_const("int " + std::to_string(v));
  }
  std::string pooled_int_list(const std::vector<std::int64_t>& vs);

  std::string value_of(const fx::Argument& a);
  std::string expand_call(const fx::Node& n);
  std::string expand_module_call(const fx::Node& n);

  JGraph& g_;
  fx::GraphModule& gm_;
  std::string self_;
  std::unordered_map<const fx::Node*, std::string> env_;
  std::unordered_map<std::string, std::string> attr_cache_;
  std::unordered_map<std::string, std::string> const_cache_;
};

std::string TraceExpander::attr_chain(const std::string& qualname) {
  auto it = attr_cache_.find(qualname);
  if (it != attr_cache_.end()) return it->second;
  const auto dot = qualname.rfind('.');
  const std::string parent =
      dot == std::string::npos ? self_ : attr_chain(qualname.substr(0, dot));
  const std::string leaf =
      dot == std::string::npos ? qualname : qualname.substr(dot + 1);
  const std::string v =
      g_.emit("prim::GetAttr", {parent}, "name=\"" + leaf + "\"");
  attr_cache_[qualname] = v;
  return v;
}

std::string TraceExpander::pooled_const(const std::string& attr) {
  auto it = const_cache_.find(attr);
  if (it != const_cache_.end()) return it->second;
  const std::string v = g_.emit("prim::Constant", {}, attr);
  const_cache_[attr] = v;
  return v;
}

std::string TraceExpander::pooled_int_list(
    const std::vector<std::int64_t>& vs) {
  std::vector<std::string> ins;
  ins.reserve(vs.size());
  for (auto v : vs) ins.push_back(int_const(v));
  return g_.emit("prim::ListConstruct", std::move(ins));
}

std::string TraceExpander::value_of(const fx::Argument& a) {
  if (a.is_node()) return env_.at(a.node());
  if (a.is_none()) return pooled_const("None");
  if (a.is_int()) return int_const(a.as_int());
  if (a.is_double()) {
    std::ostringstream os;
    os << "float " << a.as_double();
    return pooled_const(os.str());
  }
  if (a.is_bool()) return pooled_const(a.as_bool() ? "bool 1" : "bool 0");
  if (a.is_string()) return pooled_const("str \"" + a.as_string() + "\"");
  // List: constants + ListConstruct (or tensor list for cat).
  std::vector<std::string> items;
  for (const auto& item : a.list()) items.push_back(value_of(item));
  return g_.emit("prim::ListConstruct", std::move(items));
}

std::string TraceExpander::expand_call(const fx::Node& n) {
  std::vector<std::string> ins;
  for (const auto& a : n.args()) ins.push_back(value_of(a));
  for (const auto& [k, v] : n.kwargs()) {
    (void)k;
    ins.push_back(value_of(v));
  }
  return g_.emit("aten::" + n.target(), std::move(ins));
}

std::string TraceExpander::expand_module_call(const fx::Node& n) {
  const auto m = gm_.resolve_module(n.target());
  const std::string x = value_of(n.args().at(0));

  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(m.get())) {
    const std::string w = attr_chain(n.target() + ".weight");
    const std::string b = conv->has_bias()
                              ? attr_chain(n.target() + ".bias")
                              : pooled_const("None");
    const std::string stride = pooled_int_list(conv->stride());
    const std::string padding = pooled_int_list(conv->padding());
    const std::string dilation = pooled_int_list({1, 1});
    const std::string groups = int_const(1);
    const std::string y =
        g_.emit("aten::conv2d", {x, w, b, stride, padding, dilation, groups});
    // Conv2dReLU is-a Conv2d whose clamp runs in the kernel epilogue.
    return dynamic_cast<const nn::Conv2dReLU*>(conv)
               ? g_.emit("aten::relu", {y})
               : y;
  }
  if (dynamic_cast<const nn::BatchNorm2d*>(m.get())) {
    const std::string w = attr_chain(n.target() + ".weight");
    const std::string b = attr_chain(n.target() + ".bias");
    const std::string mean = attr_chain(n.target() + ".running_mean");
    const std::string var = attr_chain(n.target() + ".running_var");
    const std::string training = pooled_const("bool 0");
    const std::string momentum = pooled_const("float 0.1");
    const std::string eps = pooled_const("float 1e-05");
    const std::string cudnn = pooled_const("bool 1");
    return g_.emit("aten::batch_norm",
                   {x, w, b, mean, var, training, momentum, eps, cudnn});
  }
  if (const auto* lin = dynamic_cast<const nn::Linear*>(m.get())) {
    const std::string w = attr_chain(n.target() + ".weight");
    const std::string b = lin->has_bias() ? attr_chain(n.target() + ".bias")
                                          : pooled_const("None");
    const std::string y = g_.emit("aten::linear", {x, w, b});
    return dynamic_cast<const nn::LinearReLU*>(lin)
               ? g_.emit("aten::relu", {y})
               : y;
  }
  const std::string& k = m->kind();
  if (k == "ReLU") return g_.emit("aten::relu", {x});
  if (k == "GELU") {
    return g_.emit("aten::gelu", {x, pooled_const("str \"none\"")});
  }
  if (k == "SELU") return g_.emit("aten::selu", {x});
  if (k == "Sigmoid") return g_.emit("aten::sigmoid", {x});
  if (k == "Tanh") return g_.emit("aten::tanh", {x});
  if (k == "Identity") return x;
  if (k == "Dropout") {
    // Inference-mode dropout traces as aten::dropout with training=False.
    const std::string p = pooled_const("float 0.5");
    const std::string t = pooled_const("bool 0");
    return g_.emit("aten::dropout", {x, p, t});
  }
  if (k == "Flatten") {
    const std::string s = int_const(1);
    const std::string e = int_const(-1);
    return g_.emit("aten::flatten", {x, s, e});
  }
  if (const auto* mp = dynamic_cast<const nn::MaxPool2d*>(m.get())) {
    const std::string kk = pooled_int_list({mp->kernel(), mp->kernel()});
    const std::string s = pooled_int_list({mp->stride(), mp->stride()});
    const std::string p = pooled_int_list({mp->padding(), mp->padding()});
    const std::string d = pooled_int_list({1, 1});
    const std::string ceil = pooled_const("bool 0");
    return g_.emit("aten::max_pool2d", {x, kk, s, p, d, ceil});
  }
  if (const auto* ap = dynamic_cast<const nn::AdaptiveAvgPool2d*>(m.get())) {
    const std::string out =
        pooled_int_list({ap->output_size(), ap->output_size()});
    return g_.emit("aten::adaptive_avg_pool2d", {x, out});
  }
  if (dynamic_cast<const nn::LayerNorm*>(m.get())) {
    const std::string w = attr_chain(n.target() + ".weight");
    const std::string b = attr_chain(n.target() + ".bias");
    const std::string shape = pooled_int_list({0});
    const std::string eps = pooled_const("float 1e-05");
    return g_.emit("aten::layer_norm", {x, shape, w, b, eps});
  }
  // Unknown leaf: record an opaque call.
  return g_.emit("prim::CallMethod", {attr_chain(n.target()), x},
                 "name=\"forward\"");
}

void TraceExpander::expand() {
  self_ = g_.add_input("self");
  for (const fx::Node* n : gm_.graph().nodes()) {
    switch (n->op()) {
      case fx::Opcode::Placeholder:
        env_[n] = g_.add_input(n->name());
        break;
      case fx::Opcode::GetAttr:
        env_[n] = attr_chain(n->target());
        break;
      case fx::Opcode::CallModule:
        env_[n] = expand_module_call(*n);
        break;
      case fx::Opcode::CallFunction:
      case fx::Opcode::CallMethod: {
        // aten::add(tensor, tensor) carries an alpha scalar in real traces.
        if (n->target() == "add" || n->target() == "sub") {
          std::vector<std::string> ins;
          for (const auto& a : n->args()) ins.push_back(value_of(a));
          ins.push_back(int_const(1));
          env_[n] = g_.emit("aten::" + n->target(), std::move(ins));
        } else {
          env_[n] = expand_call(*n);
        }
        break;
      }
      case fx::Opcode::Output:
        g_.emit_void("prim::Return", {value_of(n->args().at(0))});
        break;
    }
  }
}

}  // namespace

JGraphPtr trace(fx::GraphModule& gm, const std::string& input_hint) {
  (void)input_hint;
  auto g = std::make_unique<JGraph>();
  TraceExpander expander(*g, gm);
  expander.expand();
  return g;
}

}  // namespace fxcpp::jit
