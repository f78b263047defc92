#include "quant/quantize.h"

#include <cmath>
#include <unordered_map>

#include "quant/modules.h"

namespace fxcpp::quant {

namespace {

// Scalar activation functions for LUT-based quantized modules.
float selu_scalar(float v) {
  constexpr float kAlpha = 1.6732632423543772848170429916717f;
  constexpr float kLambda = 1.0507009873554804934193349852946f;
  return v > 0.f ? kLambda * v : kLambda * kAlpha * (std::exp(v) - 1.f);
}
float sigmoid_scalar(float v) { return 1.f / (1.f + std::exp(-v)); }
float tanh_scalar(float v) { return std::tanh(v); }
float gelu_scalar(float v) {
  return 0.5f * v * (1.f + std::erf(v * 0.70710678118654752440f));
}

// Does this module class have an int8 lowering?
enum class ModKind { Linear, Conv, Relu, Lut, PassThrough, None };

ModKind classify_module(const nn::Module& m, float (**lut_fn)(float),
                        const char** lut_name) {
  // LinearReLU / Conv2dReLU are-a Linear / Conv2d, but the quantized
  // modules would re-emit them without the fused clamp — leave them in float
  // precision rather than drop the ReLU.
  if (dynamic_cast<const nn::LinearReLU*>(&m) ||
      dynamic_cast<const nn::Conv2dReLU*>(&m)) {
    return ModKind::None;
  }
  if (dynamic_cast<const nn::Linear*>(&m)) return ModKind::Linear;
  if (dynamic_cast<const nn::Conv2d*>(&m)) return ModKind::Conv;
  if (dynamic_cast<const nn::ReLU*>(&m)) return ModKind::Relu;
  if (dynamic_cast<const nn::SELU*>(&m)) {
    *lut_fn = &selu_scalar; *lut_name = "SELU";
    return ModKind::Lut;
  }
  if (dynamic_cast<const nn::Sigmoid*>(&m)) {
    *lut_fn = &sigmoid_scalar; *lut_name = "Sigmoid";
    return ModKind::Lut;
  }
  if (dynamic_cast<const nn::Tanh*>(&m)) {
    *lut_fn = &tanh_scalar; *lut_name = "Tanh";
    return ModKind::Lut;
  }
  if (dynamic_cast<const nn::GELU*>(&m)) {
    *lut_fn = &gelu_scalar; *lut_name = "GELU";
    return ModKind::Lut;
  }
  if (dynamic_cast<const nn::Dropout*>(&m) ||
      dynamic_cast<const nn::Identity*>(&m) ||
      dynamic_cast<const nn::Flatten*>(&m)) {
    return ModKind::PassThrough;
  }
  return ModKind::None;
}

bool is_quantizable_producer(const fx::GraphModule& gm, const fx::Node& n) {
  if (n.op() == fx::Opcode::CallModule) {
    float (*f)(float) = nullptr;
    const char* name = nullptr;
    const ModKind k = classify_module(*gm.resolve_module(n.target()), &f, &name);
    return k == ModKind::Linear || k == ModKind::Conv || k == ModKind::Lut ||
           k == ModKind::Relu;
  }
  if (n.op() == fx::Opcode::CallFunction) {
    return n.target() == "add" || n.target() == "relu";
  }
  return false;
}

}  // namespace

int prepare(fx::GraphModule& gm, const QConfig& cfg) {
  fx::Graph& g = gm.graph();
  const std::vector<fx::Node*> order = g.nodes();
  int count = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    fx::Node* n = order[i];
    const bool observe = n->op() == fx::Opcode::Placeholder ||
                         is_quantizable_producer(gm, *n);
    if (!observe) continue;
    const std::string name = "activation_obs_" + std::to_string(count++);
    nn::Module::Ptr obs;
    if (cfg.fake_quant) obs = std::make_shared<FakeQuantObserver>();
    else obs = std::make_shared<Observer>();
    gm.root()->set_submodule(name, obs);

    // Insert the observer immediately after n and route n's users through it.
    fx::Node* next = i + 1 < order.size() ? order[i + 1] : nullptr;
    fx::Graph::InsertScope scope(g, next);
    fx::Node* obs_node = g.call_module(name, {fx::Argument(n)});
    n->replace_all_uses_with(obs_node);
    obs_node->set_args({fx::Argument(n)});  // undo self-rewrite
  }
  g.lint();
  gm.recompile();
  return count;
}

void calibrate(fx::GraphModule& gm, const std::vector<Tensor>& batches) {
  for (const Tensor& b : batches) gm.run(b);
}

namespace {

// Strip observer call_modules, returning per-node output qparams.
std::unordered_map<fx::Node*, QParams> strip_observers(fx::GraphModule& gm) {
  std::unordered_map<fx::Node*, QParams> stats;
  fx::Graph& g = gm.graph();
  for (fx::Node* n : g.nodes()) {
    if (n->op() != fx::Opcode::CallModule) continue;
    auto obs = std::dynamic_pointer_cast<Observer>(gm.resolve_module(n->target()));
    if (!obs) continue;
    fx::Node* producer = n->args().at(0).node();
    if (obs->observed()) stats[producer] = obs->qparams();
    const std::string target = n->target();
    n->replace_all_uses_with(producer);
    g.erase_node(n);
    gm.root()->delete_submodule(target);
  }
  return stats;
}

}  // namespace

int convert(fx::GraphModule& gm, const QConfig& cfg) {
  fx::Graph& g = gm.graph();
  auto stats = strip_observers(gm);

  // Nodes currently producing int8 values (original node -> int8 producer).
  std::unordered_map<fx::Node*, fx::Node*> as_q;
  // Cached dequantize nodes for int8 producers consumed by float ops.
  std::unordered_map<fx::Node*, fx::Node*> as_fp;
  int converted = 0;

  // int8 view of `a`, inserting a quantize_per_tensor before `user` if
  // needed and possible (requires calibration stats for `a`).
  auto q_of = [&](fx::Node* a, fx::Node* user) -> fx::Node* {
    auto it = as_q.find(a);
    if (it != as_q.end()) return it->second;
    auto st = stats.find(a);
    if (st == stats.end()) return nullptr;
    fx::Graph::InsertScope scope(g, user);
    fx::Node* qn = g.call_function(
        "quantize_per_tensor",
        {fx::Argument(a), fx::Argument(st->second.scale),
         fx::Argument(static_cast<std::int64_t>(st->second.zero_point))});
    as_q[a] = qn;
    return qn;
  };
  // float view of `a` for non-quantized consumers.
  auto fp_of = [&](fx::Node* a, fx::Node* user) -> fx::Node* {
    if (as_q.find(a) == as_q.end() || as_q[a] != a) return a;
    auto it = as_fp.find(a);
    if (it != as_fp.end()) return it->second;
    fx::Graph::InsertScope scope(g, user);
    fx::Node* dq = g.call_function("dequantize", {fx::Argument(a)});
    as_fp[a] = dq;
    return dq;
  };

  for (fx::Node* n : g.nodes()) {
    switch (n->op()) {
      case fx::Opcode::Placeholder:
      case fx::Opcode::GetAttr:
        break;
      case fx::Opcode::CallModule: {
        auto m = gm.resolve_module(n->target());
        float (*lut_fn)(float) = nullptr;
        const char* lut_name = nullptr;
        const ModKind kind = classify_module(*m, &lut_fn, &lut_name);
        fx::Node* a = n->args().at(0).is_node() ? n->args()[0].node() : nullptr;
        if (!a) break;

        if (kind == ModKind::Linear || kind == ModKind::Conv ||
            kind == ModKind::Lut || kind == ModKind::Relu ||
            kind == ModKind::PassThrough) {
          fx::Node* qa = q_of(a, n);
          if (!qa || (kind != ModKind::PassThrough && !stats.count(n))) {
            // Can't quantize: make sure the float op sees float input.
            n->set_args({fx::Argument(fp_of(a, n))});
            break;
          }
          switch (kind) {
            case ModKind::Linear:
              gm.root()->set_submodule(
                  n->target(),
                  std::make_shared<QuantizedLinear>(
                      dynamic_cast<const nn::Linear&>(*m), stats.at(n),
                      cfg.per_channel_weights));
              break;
            case ModKind::Conv:
              gm.root()->set_submodule(
                  n->target(),
                  std::make_shared<QuantizedConv2d>(
                      dynamic_cast<const nn::Conv2d&>(*m), stats.at(n)));
              break;
            case ModKind::Lut:
              gm.root()->set_submodule(
                  n->target(), std::make_shared<QuantizedUnary>(
                                   lut_name, lut_fn, stats.at(n)));
              break;
            case ModKind::Relu:
              gm.root()->set_submodule(n->target(),
                                       std::make_shared<nn::Identity>());
              // quantized relu keeps scale: rewrite as function instead.
              break;
            default:
              break;
          }
          if (kind == ModKind::Relu) {
            fx::Graph::InsertScope scope(g, n);
            fx::Node* qr =
                g.call_function("quantized_relu", {fx::Argument(qa)});
            n->replace_all_uses_with(qr);
            as_q[n] = qr;
            as_q[qr] = qr;
            g.erase_node(n);
            ++converted;
            break;
          }
          if (kind == ModKind::PassThrough) {
            n->set_args({fx::Argument(qa)});
            n->invalidate_shape_meta();  // now flows int8, not f32
            as_q[n] = n;
            break;
          }
          n->set_args({fx::Argument(qa)});
          n->invalidate_shape_meta();  // module swapped for its int8 lowering
          as_q[n] = n;
          ++converted;
        } else {
          // Unquantizable module: feed it floats.
          n->set_args({fx::Argument(fp_of(a, n))});
        }
        break;
      }
      case fx::Opcode::CallFunction:
      case fx::Opcode::CallMethod: {
        const std::string& t = n->target();
        if (n->op() == fx::Opcode::CallFunction && t == "add" &&
            n->args().size() == 2 && n->args()[0].is_node() &&
            n->args()[1].is_node() && stats.count(n)) {
          fx::Node* qa = q_of(n->args()[0].node(), n);
          fx::Node* qb = q_of(n->args()[1].node(), n);
          if (qa && qb) {
            const QParams& q = stats.at(n);
            fx::Graph::InsertScope scope(g, n);
            fx::Node* qadd = g.call_function(
                "quantized_add",
                {fx::Argument(qa), fx::Argument(qb), fx::Argument(q.scale),
                 fx::Argument(static_cast<std::int64_t>(q.zero_point))});
            n->replace_all_uses_with(qadd);
            as_q[n] = qadd;
            as_q[qadd] = qadd;
            g.erase_node(n);
            ++converted;
            break;
          }
        }
        if (n->op() == fx::Opcode::CallFunction && t == "relu" &&
            n->args()[0].is_node()) {
          if (fx::Node* qa = q_of(n->args()[0].node(), n)) {
            fx::Graph::InsertScope scope(g, n);
            fx::Node* qr = g.call_function("quantized_relu", {fx::Argument(qa)});
            n->replace_all_uses_with(qr);
            as_q[n] = qr;
            as_q[qr] = qr;
            g.erase_node(n);
            ++converted;
            break;
          }
        }
        // int8-transparent shape ops pass through; dropout becomes identity.
        if ((t == "flatten" || t == "reshape") && n->args()[0].is_node()) {
          fx::Node* a = n->args()[0].node();
          if (as_q.count(a) && as_q[a] == a) {
            n->invalidate_shape_meta();  // now flows int8, not f32
            as_q[n] = n;  // args already reference the int8 producer
            break;
          }
        }
        if (t == "dropout" && n->args()[0].is_node()) {
          fx::Node* a = n->args()[0].node();
          if (as_q.count(a)) {
            n->replace_all_uses_with(as_q[a]);
            g.erase_node(n);
            break;
          }
        }
        // Generic float op: dequantize any int8 args.
        std::vector<fx::Argument> new_args;
        for (const auto& arg : n->args()) {
          if (arg.is_node()) {
            new_args.emplace_back(fp_of(arg.node(), n));
          } else {
            new_args.push_back(arg);
          }
        }
        n->set_args(std::move(new_args));
        break;
      }
      case fx::Opcode::Output: {
        if (n->args().at(0).is_node()) {
          fx::Node* a = n->args()[0].node();
          n->set_args({fx::Argument(fp_of(a, n))});
        }
        break;
      }
    }
  }

  g.eliminate_dead_code();
  g.lint();
  gm.recompile();
  return converted;
}

std::shared_ptr<fx::GraphModule> quantize_model(
    nn::Module::Ptr model, const std::vector<Tensor>& calibration,
    const QConfig& cfg) {
  auto gm = fx::symbolic_trace(std::move(model));
  prepare(*gm, cfg);
  calibrate(*gm, calibration);
  convert(*gm, cfg);
  return gm;
}

}  // namespace fxcpp::quant
