#include "passes/type_check.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "nn/layers.h"

namespace fxcpp::passes {

namespace {

using GType = std::optional<SymShape>;  // nullopt = unknown rank ("Any")

// Are two dims consistent under gradual typing? (~ relation: unknown is
// consistent with everything; knowns must agree.)
bool dim_consistent(const SymDim& a, const SymDim& b) {
  return !a.is_known || !b.is_known || a.value == b.value;
}

std::string gtype_str(const GType& t) {
  return t ? sym_shape_str(*t) : "Any";
}

class Checker {
 public:
  explicit Checker(fx::GraphModule& gm) : gm_(gm) {}

  TypeCheckResult run(const std::vector<GType>& inputs) {
    std::size_t ph = 0;
    for (fx::Node* n : gm_.graph().nodes()) {
      switch (n->op()) {
        case fx::Opcode::Placeholder:
          env_[n] = ph < inputs.size() ? inputs[ph++] : std::nullopt;
          break;
        case fx::Opcode::GetAttr:
          env_[n] = sym_of(gm_.resolve_attr(n->target()).sizes());
          break;
        case fx::Opcode::CallModule:
          env_[n] = check_module(*n);
          break;
        case fx::Opcode::CallFunction:
        case fx::Opcode::CallMethod:
          env_[n] = check_function(*n);
          break;
        case fx::Opcode::Output:
          if (n->args().at(0).is_node()) {
            result_.output = env_[n->args()[0].node()];
          }
          break;
      }
      if (n->op() != fx::Opcode::Output && env_.count(n) && env_[n]) {
        n->set_meta("gradual_type", gtype_str(env_[n]));
      }
    }
    return std::move(result_);
  }

 private:
  void error(const fx::Node& n, const std::string& msg) {
    result_.errors.push_back(TypeError{&n, msg});
  }

  GType of(const fx::Argument& a) {
    if (!a.is_node()) return std::nullopt;
    auto it = env_.find(a.node());
    return it == env_.end() ? std::nullopt : it->second;
  }

  // Require a known dim at position `i` (from the back if negative) to be
  // consistent with `want`.
  void expect_dim(const fx::Node& n, const GType& t, int i, std::int64_t want,
                  const char* what) {
    if (!t) return;  // gradual: unknown rank is consistent
    const auto nd = static_cast<int>(t->size());
    const int idx = i < 0 ? nd + i : i;
    if (idx < 0 || idx >= nd) {
      error(n, std::string(what) + ": rank " + std::to_string(nd) +
                   " has no dim " + std::to_string(i));
      return;
    }
    const SymDim& d = (*t)[static_cast<std::size_t>(idx)];
    if (!dim_consistent(d, SymDim::known(want))) {
      std::ostringstream os;
      os << what << ": expected dim " << i << " == " << want << ", got "
         << d.str() << " in " << gtype_str(t);
      error(n, os.str());
    }
  }

  GType check_module(const fx::Node& n) {
    const auto m = gm_.resolve_module(n.target());
    GType x = of(n.args().at(0));
    if (const auto* lin = dynamic_cast<const nn::Linear*>(m.get())) {
      expect_dim(n, x, -1, lin->in_features(), "Linear");
      if (!x) return std::nullopt;
      SymShape out = *x;
      out.back() = SymDim::known(lin->out_features());
      return out;
    }
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(m.get())) {
      if (x && x->size() != 4) {
        error(n, "Conv2d: expected rank-4 NCHW input, got " + gtype_str(x));
        return std::nullopt;
      }
      expect_dim(n, x, 1, conv->in_channels(), "Conv2d");
      if (!x) return std::nullopt;
      // Reuse the symbolic transfer for the spatial math.
      try {
        return propagate_module_shape(*m, *x);
      } catch (const std::exception& e) {
        error(n, std::string("Conv2d: ") + e.what());
        return std::nullopt;
      }
    }
    if (const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(m.get())) {
      expect_dim(n, x, 1, bn->num_features(), "BatchNorm2d");
      return x;
    }
    try {
      if (!x) return std::nullopt;
      return propagate_module_shape(*m, *x);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  GType check_function(const fx::Node& n) {
    const std::string& t = n.target();
    GType a = of(n.args().at(0));
    if (t == "add" || t == "sub" || t == "mul" || t == "div") {
      if (n.args().size() > 1 && n.args()[1].is_node()) {
        GType b = of(n.args()[1]);
        if (a && b) {
          // Check broadcast consistency from the back.
          const std::size_t k = std::min(a->size(), b->size());
          for (std::size_t i = 0; i < k; ++i) {
            const SymDim& da = (*a)[a->size() - 1 - i];
            const SymDim& db = (*b)[b->size() - 1 - i];
            const bool one = (da.is_known && da.value == 1) ||
                             (db.is_known && db.value == 1);
            if (!one && !dim_consistent(da, db)) {
              error(n, t + ": shapes " + gtype_str(a) + " and " +
                           gtype_str(b) + " are not broadcastable");
              return std::nullopt;
            }
          }
          return a->size() >= b->size() ? a : b;
        }
        return std::nullopt;
      }
      return a;
    }
    if (t == "linear" || t == "linear_relu") {
      GType w = of(n.args().at(1));
      if (a && w && w->size() == 2 && (*w)[1].is_known) {
        expect_dim(n, a, -1, (*w)[1].value, "linear");
      }
      if (!a || !w) return std::nullopt;
      SymShape out = *a;
      out.back() = (*w)[0];
      return out;
    }
    if (t == "conv2d" || t == "conv2d_relu") {
      GType w = of(n.args().at(1));
      if (a && a->size() != 4) {
        error(n, t + ": expected rank-4 NCHW input, got " + gtype_str(a));
        return std::nullopt;
      }
      if (!a || !w || w->size() != 4) return std::nullopt;
      if ((*w)[1].is_known) expect_dim(n, a, 1, (*w)[1].value, t.c_str());
      const auto stride = n.args().at(3).int_list();
      const auto pad = n.args().at(4).int_list();
      SymShape out{(*a)[0], (*w)[0], SymDim::dynamic(), SymDim::dynamic()};
      for (std::size_t i = 0; i < 2; ++i) {
        const SymDim& in = (*a)[2 + i];
        const SymDim& k = (*w)[2 + i];
        const std::int64_t s = stride.at(std::min(i, stride.size() - 1));
        const std::int64_t p = pad.at(std::min(i, pad.size() - 1));
        if (in.is_known && k.is_known) {
          out[2 + i] = SymDim::known((in.value + 2 * p - k.value) / s + 1);
        }
      }
      return out;
    }
    if (t == "matmul") {
      GType b = of(n.args().at(1));
      if (a && b && b->size() == 2 && (*b)[0].is_known) {
        expect_dim(n, a, -1, (*b)[0].value, "matmul");
      }
      if (!a || !b) return std::nullopt;
      SymShape out = *a;
      out.back() = b->back();
      return out;
    }
    if (t == "cat") {
      // All known inputs must agree on every non-cat dim.
      const auto& items = n.args().at(0).list();
      const std::int64_t dim = n.args().at(1).as_int();
      GType first;
      for (const auto& item : items) {
        GType s = of(item);
        if (!s) return std::nullopt;
        if (!first) {
          first = s;
          continue;
        }
        if (s->size() != first->size()) {
          error(n, "cat: rank mismatch");
          return std::nullopt;
        }
        for (std::size_t i = 0; i < s->size(); ++i) {
          if (static_cast<std::int64_t>(i) == dim) continue;
          if (!dim_consistent((*s)[i], (*first)[i])) {
            error(n, "cat: dim " + std::to_string(i) + " mismatch");
          }
        }
      }
      if (!first) return std::nullopt;
      SymShape out = *first;
      out[static_cast<std::size_t>(dim)] = SymDim::dynamic();
      return out;
    }
    // Shape-preserving / fallthrough ops.
    return a;
  }

  // Bridge into the shared symbolic-shape module transfer table
  // (module_transfer_table in symbolic_shapes.h) — the checker and the
  // symbolic propagator use the same transfer functions by construction.
  static SymShape propagate_module_shape(const nn::Module& m,
                                         const SymShape& in) {
    return module_sym_transfer(m, in);
  }

  fx::GraphModule& gm_;
  std::unordered_map<const fx::Node*, GType> env_;
  TypeCheckResult result_;
};

}  // namespace

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
  Checker c(gm);
  return c.run(inputs);
}

}  // namespace fxcpp::passes
