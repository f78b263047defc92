#include "jit/script.h"

#include <stdexcept>

#include "nn/layers.h"
#include "nn/models/resnet.h"

namespace fxcpp::jit {

namespace {

class ScriptEmitter {
 public:
  explicit ScriptEmitter(JGraph& g) : g_(g) {}

  // Emit the scripted forward of `m` (whose module object is value `self`)
  // applied to `input`; returns the output value.
  std::string emit_module(const nn::Module& m, const std::string& self,
                          const std::string& input);

 private:
  std::string emit_conv2d(const nn::Conv2d& m, const std::string& self,
                          const std::string& x);
  std::string emit_batch_norm(const nn::BatchNorm2d& m, const std::string& self,
                              const std::string& x);
  std::string emit_linear(const nn::Linear& m, const std::string& self,
                          const std::string& x);
  std::string emit_pool(const nn::Module& m, const std::string& x);
  std::string emit_chain(const nn::Module& m, const std::string& self,
                         const std::string& x);
  std::string emit_residual_block(const nn::Module& m, const std::string& self,
                                  const std::string& x, bool bottleneck,
                                  bool has_downsample);
  std::string child(const std::string& self, const std::string& name) {
    return g_.emit("prim::GetAttr", {self}, "name=\"" + name + "\"");
  }

  JGraph& g_;
};

std::string ScriptEmitter::emit_conv2d(const nn::Conv2d& m,
                                       const std::string& self,
                                       const std::string& x) {
  // nn.Conv2d.forward -> _conv_forward: padding-mode branch + full argument
  // materialization.
  const std::string w = g_.emit("prim::GetAttr", {self}, "name=\"weight\"");
  const std::string b = m.has_bias()
                            ? g_.emit("prim::GetAttr", {self}, "name=\"bias\"")
                            : g_.const_none();
  const std::string pad_mode =
      g_.emit("prim::GetAttr", {self}, "name=\"padding_mode\"");
  const std::string zeros = g_.const_str("zeros");
  const std::string is_zeros = g_.emit("aten::eq", {pad_mode, zeros});
  const std::string branch = g_.emit("prim::If", {is_zeros});
  {
    JGraph::BlockScope then_block(g_, g_.last_node());
    // zeros path: nothing extra.
  }
  {
    JGraph::BlockScope else_block(g_, g_.last_node());
    const std::string pad_list = g_.int_list(
        {m.padding()[0], m.padding()[0], m.padding()[1], m.padding()[1]});
    g_.emit("aten::_pad_circular", {x, pad_list});
  }
  (void)branch;
  const std::string stride = g_.int_list(m.stride());
  const std::string padding = g_.int_list(m.padding());
  const std::string dilation = g_.int_list({1, 1});
  const std::string groups = g_.const_int(1);
  return g_.emit("aten::conv2d",
                 {x, w, b, stride, padding, dilation, groups});
}

std::string ScriptEmitter::emit_batch_norm(const nn::BatchNorm2d& m,
                                           const std::string& self,
                                           const std::string& x) {
  // nn.BatchNorm2d.forward: _check_input_dim assertion + training-mode
  // bookkeeping + functional batch_norm.
  const std::string dim = g_.emit("aten::dim", {x});
  const std::string four = g_.const_int(4);
  const std::string ne = g_.emit("aten::ne", {dim, four});
  g_.emit("prim::If", {ne});
  {
    JGraph::BlockScope raise_block(g_, g_.last_node());
    const std::string msg = g_.const_str("expected 4D input");
    g_.emit_void("prim::RaiseException", {msg});
  }
  {
    JGraph::BlockScope ok_block(g_, g_.last_node());
  }
  const std::string training =
      g_.emit("prim::GetAttr", {self}, "name=\"training\"");
  g_.emit("prim::If", {training});
  {
    JGraph::BlockScope train_block(g_, g_.last_node());
    const std::string nbt =
        g_.emit("prim::GetAttr", {self}, "name=\"num_batches_tracked\"");
    const std::string one = g_.const_int(1);
    g_.emit("aten::add_", {nbt, one});
  }
  {
    JGraph::BlockScope eval_block(g_, g_.last_node());
  }
  const std::string w = g_.emit("prim::GetAttr", {self}, "name=\"weight\"");
  const std::string b = g_.emit("prim::GetAttr", {self}, "name=\"bias\"");
  const std::string mean =
      g_.emit("prim::GetAttr", {self}, "name=\"running_mean\"");
  const std::string var =
      g_.emit("prim::GetAttr", {self}, "name=\"running_var\"");
  const std::string momentum = g_.const_double(0.1);
  const std::string eps = g_.const_double(m.eps());
  const std::string cudnn = g_.const_bool(true);
  return g_.emit("aten::batch_norm",
                 {x, w, b, mean, var, training, momentum, eps, cudnn});
}

std::string ScriptEmitter::emit_linear(const nn::Linear& m,
                                       const std::string& self,
                                       const std::string& x) {
  const std::string w = g_.emit("prim::GetAttr", {self}, "name=\"weight\"");
  const std::string b = m.has_bias()
                            ? g_.emit("prim::GetAttr", {self}, "name=\"bias\"")
                            : g_.const_none();
  return g_.emit("aten::linear", {x, w, b});
}

std::string ScriptEmitter::emit_pool(const nn::Module& m,
                                     const std::string& x) {
  if (dynamic_cast<const nn::MaxPool2d*>(&m)) {
    // Kernel/stride/padding/dilation lists + ceil_mode flag.
    const std::string k = g_.int_list({3, 3});
    const std::string s = g_.int_list({2, 2});
    const std::string p = g_.int_list({1, 1});
    const std::string d = g_.int_list({1, 1});
    const std::string ceil = g_.const_bool(false);
    return g_.emit("aten::max_pool2d", {x, k, s, p, d, ceil});
  }
  const std::string out = g_.int_list({1, 1});
  return g_.emit("aten::adaptive_avg_pool2d", {x, out});
}

std::string ScriptEmitter::emit_chain(const nn::Module& m,
                                      const std::string& self,
                                      const std::string& x) {
  // Sequential-style composition: each child is fetched then inlined.
  std::string cur = x;
  for (const auto& [name, c] : m.children()) {
    const std::string cv = child(self, name);
    cur = emit_module(*c, cv, cur);
  }
  return cur;
}

std::string ScriptEmitter::emit_residual_block(const nn::Module& m,
                                               const std::string& self,
                                               const std::string& x,
                                               bool bottleneck,
                                               bool has_downsample) {
  auto run = [&](const char* conv, const char* bn, const std::string& v) {
    const std::string c = child(self, conv);
    std::string out = emit_module(*m.get_submodule(conv), c, v);
    const std::string b = child(self, bn);
    return emit_module(*m.get_submodule(bn), b, out);
  };
  std::string out = run("conv1", "bn1", x);
  out = g_.emit("aten::relu", {out});
  out = run("conv2", "bn2", out);
  if (bottleneck) {
    out = g_.emit("aten::relu", {out});
    out = run("conv3", "bn3", out);
  }
  // `if self.downsample is not None:` — scripted as a real branch.
  const std::string down = child(self, "downsample");
  const std::string cond = g_.emit("aten::__isnot__", {down, g_.const_none()});
  const std::string sel = g_.emit("prim::If", {cond});
  JNode* if_node = g_.last_node();
  {
    JGraph::BlockScope then_block(g_, if_node);
    if (has_downsample) {
      emit_chain(*m.get_submodule("downsample"), down, x);
    }
  }
  {
    JGraph::BlockScope else_block(g_, if_node);
  }
  const std::string one = g_.const_int(1);
  out = g_.emit("aten::add", {out, sel.empty() ? x : sel, one});
  return g_.emit("aten::relu", {out});
}

std::string ScriptEmitter::emit_module(const nn::Module& m,
                                       const std::string& self,
                                       const std::string& input) {
  const std::string& k = m.kind();
  // The fused layers are-a Conv2d / Linear whose clamp runs in the kernel
  // epilogue; script spells the clamp out.
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&m)) {
    const std::string y = emit_conv2d(*conv, self, input);
    return dynamic_cast<const nn::Conv2dReLU*>(conv)
               ? g_.emit("aten::relu", {y})
               : y;
  }
  if (const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(&m)) {
    return emit_batch_norm(*bn, self, input);
  }
  if (const auto* lin = dynamic_cast<const nn::Linear*>(&m)) {
    const std::string y = emit_linear(*lin, self, input);
    return dynamic_cast<const nn::LinearReLU*>(lin)
               ? g_.emit("aten::relu", {y})
               : y;
  }
  if (k == "ReLU") return g_.emit("aten::relu", {input});
  if (k == "GELU") return g_.emit("aten::gelu", {input, g_.const_str("none")});
  if (k == "SELU") return g_.emit("aten::selu", {input});
  if (k == "Sigmoid") return g_.emit("aten::sigmoid", {input});
  if (k == "Tanh") return g_.emit("aten::tanh", {input});
  if (k == "Identity") return input;
  if (k == "Flatten") {
    const std::string s = g_.const_int(1);
    const std::string e = g_.const_int(-1);
    return g_.emit("aten::flatten", {input, s, e});
  }
  if (k == "Dropout") {
    // Training-mode branch is part of the scripted functional dropout.
    const std::string training =
        g_.emit("prim::GetAttr", {self}, "name=\"training\"");
    const std::string p = g_.const_double(0.5);
    return g_.emit("aten::dropout", {input, p, training});
  }
  if (dynamic_cast<const nn::MaxPool2d*>(&m) ||
      dynamic_cast<const nn::AdaptiveAvgPool2d*>(&m)) {
    return emit_pool(m, input);
  }
  if (const auto* bb = dynamic_cast<const nn::models::BasicBlock*>(&m)) {
    return emit_residual_block(m, self, input, /*bottleneck=*/false,
                               bb->has_downsample());
  }
  if (const auto* bk = dynamic_cast<const nn::models::Bottleneck*>(&m)) {
    return emit_residual_block(m, self, input, /*bottleneck=*/true,
                               bk->has_downsample());
  }
  if (k == "LayerNorm") {
    const std::string w = g_.emit("prim::GetAttr", {self}, "name=\"weight\"");
    const std::string b = g_.emit("prim::GetAttr", {self}, "name=\"bias\"");
    const std::string shape = g_.int_list({0});
    const std::string eps = g_.const_double(1e-5);
    return g_.emit("aten::layer_norm", {input, shape, w, b, eps});
  }
  // Compound modules (Sequential, ResNet, MLP, DeepRecommender, ...):
  // inline children in registration order, which matches their forwards.
  if (!m.children().empty()) return emit_chain(m, self, input);
  throw std::invalid_argument("jit::script: no emitter for module kind '" +
                              k + "'");
}

}  // namespace

JGraphPtr script(const nn::Module& root, const std::string& input_hint) {
  auto g = std::make_unique<JGraph>();
  const std::string self = g->add_input("self");
  const std::string x = g->add_input(input_hint);
  ScriptEmitter emitter(*g);
  const std::string out = emitter.emit_module(root, self, x);
  g->emit_void("prim::Return", {out});
  return g;
}

}  // namespace fxcpp::jit
