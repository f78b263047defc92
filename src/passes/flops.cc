#include "passes/flops.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "nn/layers.h"
#include "passes/shape_prop.h"

namespace fxcpp::passes {

namespace {

double numel_of(const Shape& s) {
  return static_cast<double>(shape_numel(s));
}

bool node_shape(const fx::Node* n, Shape& out) {
  if (!n->has_shape()) return false;
  out = n->shape();
  return true;
}

// FLOPs for a call_module node, dispatching on the module class like the
// isinstance checks an fx analysis pass would do in Python.
double module_flops(const nn::Module& m, const Shape& in, const Shape& out) {
  if (const auto* lin = dynamic_cast<const nn::Linear*>(&m)) {
    const double rows = numel_of(in) / static_cast<double>(lin->in_features());
    return 2.0 * rows * static_cast<double>(lin->in_features()) *
           static_cast<double>(lin->out_features());
  }
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&m)) {
    // 2 * output elements * reduction length.
    const Tensor& w = conv->param("weight");
    const double red = static_cast<double>(w.numel() / w.size(0));
    return 2.0 * numel_of(out) * red;
  }
  if (dynamic_cast<const nn::BatchNorm2d*>(&m) ||
      dynamic_cast<const nn::LayerNorm*>(&m)) {
    return 2.0 * numel_of(out);
  }
  // Activations, pooling, reshapes: ~1 op per output element.
  return numel_of(out);
}

double function_flops(const fx::Node& n, const Shape& out) {
  const std::string& t = n.target();
  auto input_shape = [&](std::size_t i, Shape& s) {
    return n.args().size() > i && n.args()[i].is_node() &&
           node_shape(n.args()[i].node(), s);
  };
  if (t == "linear" || t == "linear_relu" || t == "matmul") {
    Shape ws;
    if (input_shape(1, ws) && ws.size() == 2) {
      const double k = static_cast<double>(t == "matmul" ? ws[0] : ws[1]);
      return 2.0 * numel_of(out) * k;
    }
    return numel_of(out);
  }
  if (t == "conv2d" || t == "conv2d_relu") {
    Shape ws;
    if (input_shape(1, ws) && ws.size() == 4) {
      return 2.0 * numel_of(out) *
             static_cast<double>(ws[1] * ws[2] * ws[3]);
    }
    return numel_of(out);
  }
  if (t == "batch_norm" || t == "layer_norm") return 2.0 * numel_of(out);
  if (t == "softmax") return 5.0 * numel_of(out);
  if (t == "max_pool2d" || t == "avg_pool2d") {
    Shape in;
    if (input_shape(0, in)) return numel_of(in);
    return numel_of(out);
  }
  return numel_of(out);
}

}  // namespace

double CostReport::estimate_seconds(double flops_per_sec,
                                    double bytes_per_sec) const {
  return std::max(total_flops / flops_per_sec, total_bytes / bytes_per_sec);
}

std::string CostReport::to_table() const {
  std::ostringstream os;
  os << std::left << std::setw(28) << "node" << std::setw(16) << "gflops"
     << std::setw(16) << "mbytes" << "\n";
  for (const auto& c : per_node) {
    if (c.flops == 0.0 && c.bytes_read == 0.0) continue;
    os << std::left << std::setw(28) << c.node->name() << std::setw(16)
       << std::setprecision(4) << c.flops / 1e9 << std::setw(16)
       << (c.bytes_read + c.bytes_written) / 1e6 << "\n";
  }
  os << "total: " << total_flops / 1e9 << " GFLOPs, " << total_bytes / 1e6
     << " MB traffic, " << param_bytes / 1e6 << " MB parameters\n";
  if (!unmeasured.empty()) {
    os << "unmeasured: " << unmeasured.size()
       << " node(s) missing shape meta (run ShapeProp):";
    for (const auto* n : unmeasured) os << ' ' << n->name();
    os << "\n";
  }
  return os.str();
}

CostReport estimate_cost(const fx::GraphModule& gm) {
  CostReport report;
  for (const fx::Node* n : gm.graph().nodes()) {
    NodeCost cost;
    cost.node = n;
    Shape out;
    const bool has_out = node_shape(n, out);
    if (!has_out && n->op() != fx::Opcode::Output) {
      // Value-producing node with absent/invalidated shape meta: the zeros
      // below are "unmeasured", not "free" — surface it.
      cost.measured = false;
      report.unmeasured.push_back(n);
    }

    if (has_out && n->op() != fx::Opcode::Placeholder) {
      cost.bytes_written = numel_of(out) * 4.0;
    }
    for (const fx::Node* in : n->input_nodes()) {
      Shape s;
      if (node_shape(in, s)) cost.bytes_read += numel_of(s) * 4.0;
    }

    switch (n->op()) {
      case fx::Opcode::CallModule: {
        if (has_out) {
          const auto m = gm.resolve_module(n->target());
          Shape in;
          if (!n->args().empty() && n->args()[0].is_node()) {
            node_shape(n->args()[0].node(), in);
          }
          cost.flops = module_flops(*m, in, out);
          cost.param_bytes = static_cast<double>(m->num_parameters()) * 4.0;
          cost.bytes_read += cost.param_bytes;
        }
        break;
      }
      case fx::Opcode::CallFunction:
      case fx::Opcode::CallMethod:
        if (has_out) cost.flops = function_flops(*n, out);
        break;
      case fx::Opcode::GetAttr:
        if (has_out) cost.param_bytes = numel_of(out) * 4.0;
        break;
      default:
        break;
    }
    report.total_flops += cost.flops;
    report.total_bytes += cost.bytes_read + cost.bytes_written;
    report.param_bytes += cost.param_bytes;
    report.per_node.push_back(cost);
  }
  return report;
}

CostReport estimate_cost(fx::GraphModule& gm,
                         const std::vector<Tensor>& example_inputs) {
  shape_prop(gm, example_inputs);
  return estimate_cost(static_cast<const fx::GraphModule&>(gm));
}

}  // namespace fxcpp::passes
