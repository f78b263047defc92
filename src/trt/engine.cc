#include "trt/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "nn/layers.h"
#include "passes/fuse_conv_bn.h"
#include "passes/fuse_linear_relu.h"
#include "passes/memory_planner.h"

namespace fxcpp::trt {

namespace {

// Root of an engine's private module hierarchy; only its children are used.
class FlatRoot : public nn::Module {
 public:
  FlatRoot() : nn::Module("TRTSimRoot") {}
  fx::Value forward(const std::vector<fx::Value>&) override {
    throw std::logic_error("TRTSimRoot::forward should never run");
  }
};

}  // namespace

bool is_supported(const fx::GraphModule& gm, const fx::Node& n) {
  switch (n.op()) {
    case fx::Opcode::Placeholder:
    case fx::Opcode::Output:
      return true;
    case fx::Opcode::GetAttr:
      return false;
    case fx::Opcode::CallModule: {
      const auto m = gm.resolve_module(n.target());
      return dynamic_cast<const nn::Conv2d*>(m.get()) ||
             dynamic_cast<const nn::BatchNorm2d*>(m.get()) ||
             dynamic_cast<const nn::Linear*>(m.get()) ||
             dynamic_cast<const nn::ReLU*>(m.get()) ||
             dynamic_cast<const nn::Sigmoid*>(m.get()) ||
             dynamic_cast<const nn::Tanh*>(m.get()) ||
             dynamic_cast<const nn::MaxPool2d*>(m.get()) ||
             dynamic_cast<const nn::AdaptiveAvgPool2d*>(m.get()) ||
             dynamic_cast<const nn::Flatten*>(m.get()) ||
             dynamic_cast<const nn::Dropout*>(m.get()) ||
             dynamic_cast<const nn::Identity*>(m.get());
    }
    case fx::Opcode::CallFunction:
    case fx::Opcode::CallMethod: {
      const std::string& t = n.target();
      return t == "add" || t == "relu" || t == "flatten" || t == "reshape" ||
             t == "sigmoid" || t == "tanh";
    }
  }
  return false;
}

std::unique_ptr<Engine> Engine::build(const fx::GraphModule& gm,
                                      const Shape& input_shape) {
  const fx::Graph& src = gm.graph();
  if (src.placeholders().size() != 1) {
    throw std::invalid_argument("Engine::build: exactly one input supported");
  }
  for (const fx::Node* n : src.nodes()) {
    if (!is_supported(gm, *n)) {
      throw std::invalid_argument("Engine::build: unsupported node '" +
                                  n->name() + "' (target=" + n->target() +
                                  "); use lower_to_trtsim for auto-split");
    }
  }
  if (!src.output_node() || !src.output_node()->args().at(0).is_node()) {
    throw std::invalid_argument("Engine::build: expected one tensor output");
  }

  // Private program: the cloned graph over a flat root. The fusion passes
  // install their fused modules into this root, never into the source's.
  auto graph = src.clone();
  auto root = std::make_shared<FlatRoot>();
  std::map<std::string, std::string> flat;  // source qualname -> child name
  std::set<std::string> taken;
  for (fx::Node* n : graph->nodes()) {
    if (n->op() != fx::Opcode::CallModule) continue;
    auto [it, fresh] = flat.try_emplace(n->target());
    if (fresh) {
      std::string name = n->target();
      std::replace(name.begin(), name.end(), '.', '_');
      while (!taken.insert(name).second) name += '_';
      root->register_module(name, gm.resolve_module(n->target()));
      it->second = name;
    }
    n->set_target(it->second);
  }

  std::unique_ptr<Engine> e(new Engine());
  e->input_shape_ = input_shape;
  e->gm_ = std::make_shared<fx::GraphModule>(root, std::move(graph),
                                             "TRTSimProgram");
  e->stats_.fused_batchnorms = passes::fuse_conv_bn(*e->gm_);
  e->stats_.fused_relus = passes::fuse_linear_relu(*e->gm_);
  e->gm_->recompile();
  const fx::TapePlan& plan =
      passes::compile_planned(*e->gm_, {Tensor::zeros(input_shape)});

  const auto& instrs = e->gm_->compiled_graph().instrs();
  e->stats_.plan_ops = static_cast<int>(instrs.size());
  e->stats_.arena_bytes = plan.arena_bytes;
  e->stats_.unplanned_bytes = plan.unplanned_bytes;
  for (const fx::Instr& ins : instrs) {
    if (!ins.module) continue;
    for (const auto& [name, t] : ins.module->parameters()) {
      e->stats_.weight_bytes +=
          static_cast<std::size_t>(t.numel()) * dtype_size(t.dtype());
    }
  }
  return e;
}

Tensor Engine::run(const Tensor& input) {
  if (input.sizes() != input_shape_) {
    throw std::invalid_argument(
        "Engine::run: input shape " + shape_str(input.sizes()) +
        " does not match the build shape " + shape_str(input_shape_) +
        " (TRTSim engines are static-shape, like TensorRT)");
  }
  return gm_->run_planned(input);
}

std::string EngineStats::to_string() const {
  std::ostringstream os;
  os << "TRTSim engine: " << plan_ops << " plan ops, " << fused_batchnorms
     << " folded BNs, " << fused_relus << " fused ReLUs, arena "
     << arena_bytes / 1024 << " KiB (" << static_cast<int>(planner_saving() * 100)
     << "% saved vs " << unplanned_bytes / 1024 << " KiB unplanned), weights "
     << weight_bytes / 1024 << " KiB";
  return os.str();
}

}  // namespace fxcpp::trt
