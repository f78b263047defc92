#include "passes/type_check.h"

#include <sstream>

namespace fxcpp::passes {

std::string TypeCheckResult::to_string() const {
  std::ostringstream os;
  if (ok()) {
    os << "type check OK; output: " << (output ? sym_shape_str(*output) : "Any")
       << "\n";
    return os.str();
  }
  for (const auto& e : errors) {
    os << "error at '" << e.node->name() << "' (target=" << e.node->target()
       << "): " << e.message << "\n";
  }
  return os.str();
}

TypeCheckResult type_check(
    fx::GraphModule& gm, const std::vector<std::optional<SymShape>>& inputs) {
  // The shared transfer rules (symbolic_shapes.h) in gradual mode: shapes
  // only, and a conflict is recorded while its node becomes Any.
  std::vector<SymTensor> in;
  in.reserve(inputs.size());
  for (const auto& s : inputs) in.push_back(SymTensor{s, std::nullopt});
  TypeCheckResult result;
  transfer_graph(
      gm, in,
      [&](fx::Node& n, const SymTensor& t) {
        if (n.op() == fx::Opcode::Output) {
          result.output = t.shape;
        } else if (t.shape) {
          n.set_meta("gradual_type", sym_shape_str(*t.shape));
        } else {
          n.clear_meta("gradual_type");
        }
      },
      [&](const fx::Node& n, const std::string& msg) {
        result.errors.push_back(TypeError{&n, msg});
      });
  return result;
}

}  // namespace fxcpp::passes
