#include "analysis/dataflow.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "core/functional.h"
#include "core/json.h"
#include "core/op_registry.h"
#include "nn/layers.h"
#include "tensor/shape.h"

namespace fxcpp::analysis {

using fx::Graph;
using fx::GraphModule;
using fx::json_escape;
using fx::Node;
using fx::Opcode;
using fx::OpInfo;
using fx::OpRegistry;

// ---------------------------------------------------------------------------
// Constness
// ---------------------------------------------------------------------------

namespace {

Const meet(Const a, Const b) {
  if (a == Const::NonConst || b == Const::NonConst) return Const::NonConst;
  if (a == Const::Const || b == Const::Const) return Const::Const;
  return Const::Unknown;
}

}  // namespace

ConstFact ConstnessAnalysis::transfer(const Node& n,
                                      const FactMap& facts) const {
  switch (n.op()) {
    case Opcode::Placeholder:
    case Opcode::CallModule:  // potentially stateful / training-dependent
    case Opcode::Output:
      return ConstFact{Const::NonConst};
    case Opcode::GetAttr:
      if (gm_ != nullptr) {
        try {
          gm_->resolve_attr(n.target());
        } catch (const std::exception&) {
          return ConstFact{Const::NonConst};  // nothing could bake it
        }
      }
      return ConstFact{Const::Const};
    case Opcode::CallFunction:
    case Opcode::CallMethod: {
      fx::fn::ensure_registered();
      const OpRegistry& reg = n.op() == Opcode::CallFunction
                                  ? OpRegistry::functions()
                                  : OpRegistry::methods();
      const OpInfo* info = reg.find(n.target());
      if (info == nullptr || !info->pure) return ConstFact{Const::NonConst};
      Const c = Const::Const;
      for (const Node* in : n.input_nodes()) {
        const auto it = facts.find(in);
        const Const ic = it == facts.end() ? Const::NonConst : it->second.value;
        // Unknown inputs stay optimistic (resolved by the next round when a
        // back edge fed them); NonConst taints immediately.
        if (ic == Const::NonConst) c = Const::NonConst;
      }
      return ConstFact{c};
    }
  }
  return ConstFact{Const::NonConst};
}

bool ConstnessAnalysis::join(ConstFact& dst, const ConstFact& src) const {
  const Const merged = meet(dst.value, src.value);
  if (merged == dst.value) return false;
  dst.value = merged;
  return true;
}

std::unordered_map<const Node*, bool> constant_nodes(const Graph& g,
                                                     const GraphModule* gm) {
  ConstnessAnalysis a(gm);
  auto facts = a.run(g);
  std::unordered_map<const Node*, bool> out;
  out.reserve(facts.size());
  for (const auto& [n, f] : facts) out.emplace(n, f.is_const());
  return out;
}

// ---------------------------------------------------------------------------
// Alias sets
// ---------------------------------------------------------------------------

bool module_output_is_fresh(const nn::Module* m) {
  return dynamic_cast<const nn::Linear*>(m) != nullptr ||
         dynamic_cast<const nn::Conv2d*>(m) != nullptr ||
         dynamic_cast<const nn::BatchNorm2d*>(m) != nullptr ||
         dynamic_cast<const nn::LayerNorm*>(m) != nullptr ||
         dynamic_cast<const nn::MaxPool2d*>(m) != nullptr ||
         dynamic_cast<const nn::AdaptiveAvgPool2d*>(m) != nullptr ||
         dynamic_cast<const nn::Embedding*>(m) != nullptr;
}

namespace {

void merge_base(std::vector<const Node*>& dst, const Node* b) {
  if (std::find(dst.begin(), dst.end(), b) == dst.end()) dst.push_back(b);
}

}  // namespace

AliasFact AliasAnalysis::transfer(const Node& n, const FactMap& facts) const {
  AliasFact out;
  switch (n.op()) {
    case Opcode::Placeholder:
    case Opcode::GetAttr:
      // Storage born outside the graph (caller inputs / module state).
      out.external = true;
      return out;
    case Opcode::CallFunction:
    case Opcode::CallMethod: {
      fx::fn::ensure_registered();
      const OpRegistry& reg = n.op() == Opcode::CallFunction
                                  ? OpRegistry::functions()
                                  : OpRegistry::methods();
      const OpInfo* info = reg.find(n.target());
      out.fresh = info != nullptr && info->fresh_output;
      break;
    }
    case Opcode::CallModule:
      if (gm_ != nullptr) {
        try {
          out.fresh = module_output_is_fresh(gm_->resolve_module(n.target()).get());
        } catch (const std::exception&) {
          out.fresh = false;
        }
      }
      break;
    case Opcode::Output:
      break;  // view-like union below: the escape set of the graph
  }
  if (out.fresh) {
    out.bases.push_back(&n);
    return out;
  }
  // View or unknown kernel: the result may alias any input.
  for (const Node* in : n.input_nodes()) {
    const auto it = facts.find(in);
    if (it == facts.end()) continue;
    for (const Node* b : it->second.bases) merge_base(out.bases, b);
    out.external = out.external || it->second.external;
  }
  return out;
}

bool AliasAnalysis::join(AliasFact& dst, const AliasFact& src) const {
  bool changed = false;
  for (const Node* b : src.bases) {
    if (std::find(dst.bases.begin(), dst.bases.end(), b) == dst.bases.end()) {
      dst.bases.push_back(b);
      changed = true;
    }
  }
  if (src.fresh && !dst.fresh) {
    dst.fresh = true;
    changed = true;
  }
  if (src.external && !dst.external) {
    dst.external = true;
    changed = true;
  }
  return changed;
}

AliasSummary alias_summary(const Graph& g, const GraphModule* gm) {
  AliasAnalysis analysis(gm);
  const auto facts = analysis.run(g);

  AliasSummary s;
  s.iterations = analysis.iterations();
  for (Node* n : g.nodes()) {
    if (n->op() == Opcode::Placeholder) continue;  // register fills, not tape
    s.index.emplace(n, static_cast<int>(s.order.size()));
    s.order.push_back(n);
  }
  const std::size_t n = s.order.size();
  s.fresh.assign(n, 0);
  s.external.assign(n, 0);
  s.escaped.assign(n, 0);
  s.bases.assign(n, {});
  s.last_use.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    const AliasFact& f = facts.at(s.order[i]);
    s.fresh[i] = f.fresh ? 1 : 0;
    s.external[i] = f.external ? 1 : 0;
    s.last_use[i] = static_cast<int>(i);
    for (const Node* b : f.bases) {
      const auto it = s.index.find(b);
      if (it != s.index.end()) s.bases[i].push_back(it->second);
    }
  }

  // Forward walk: every read through an alias set extends the base's
  // lifetime; reads by Output mark escapes. This is
  // the planner's former Pass 1, in node coordinates.
  for (std::size_t i = 0; i < n; ++i) {
    const Node* reader = s.order[i];
    const bool is_output = reader->op() == Opcode::Output;
    for (const Node* in : reader->input_nodes()) {
      const AliasFact& f = facts.at(in);
      for (const Node* b : f.bases) {
        const auto it = s.index.find(b);
        if (it == s.index.end()) continue;
        const auto bi = static_cast<std::size_t>(it->second);
        s.last_use[bi] = std::max(s.last_use[bi], static_cast<int>(i));
        if (is_output) s.escaped[bi] = 1;
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

LivenessAnalysis::LivenessAnalysis(const Graph& g) {
  int i = 0;
  for (const Node* n : g.nodes()) index_.emplace(n, i++);
}

LiveFact LivenessAnalysis::transfer(const Node& n, const FactMap&) const {
  LiveFact f;
  for (const Node* u : n.users()) {
    const auto it = index_.find(u);
    if (it != index_.end()) f.last_use = std::max(f.last_use, it->second);
  }
  return f;
}

bool LivenessAnalysis::join(LiveFact& dst, const LiveFact& src) const {
  if (src.last_use <= dst.last_use) return false;
  dst.last_use = src.last_use;
  return true;
}

// ---------------------------------------------------------------------------
// Reachability / dead code
// ---------------------------------------------------------------------------

ReachFact ReachabilityAnalysis::transfer(const Node& n,
                                         const FactMap& facts) const {
  if (n.op() == Opcode::Output) return ReachFact{true};
  for (const Node* u : n.users()) {
    const auto it = facts.find(u);
    if (it != facts.end() && it->second.live) return ReachFact{true};
  }
  return ReachFact{false};
}

bool ReachabilityAnalysis::join(ReachFact& dst, const ReachFact& src) const {
  if (!src.live || dst.live) return false;
  dst.live = true;
  return true;
}

std::vector<const Node*> dead_nodes(const Graph& g) {
  ReachabilityAnalysis a;
  const auto facts = a.run(g);
  std::vector<const Node*> out;
  for (const Node* n : g.nodes()) {
    if (n->op() == Opcode::Placeholder || n->op() == Opcode::Output) continue;
    if (!facts.at(n).live) out.push_back(n);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bundled facts
// ---------------------------------------------------------------------------

namespace {


std::string meta_sym_shape(const Node* n) {
  if (n->has_meta("sym_shape")) {
    if (const auto* s = std::get_if<std::string>(&n->meta("sym_shape"))) {
      return *s;
    }
  }
  if (n->has_shape()) return shape_str(n->shape());
  return "";
}

// A placeholder is shape-polymorphic when nothing pins it to one concrete
// shape: missing shape/dtype meta, or a sym_shape carrying symbolic (lettered)
// dimensions. See NodeFacts::shape_poly.
bool placeholder_shape_poly(const Node* n) {
  if (n->op() != Opcode::Placeholder) return false;
  if (!n->has_shape() || !n->has_meta("dtype")) return true;
  if (n->has_meta("sym_shape")) {
    if (const auto* s = std::get_if<std::string>(&n->meta("sym_shape"))) {
      for (char c : *s) {
        if (std::isalpha(static_cast<unsigned char>(c))) return true;
      }
    }
  }
  return false;
}

}  // namespace

GraphFacts analyze_graph(const Graph& g, const GraphModule* gm) {
  GraphFacts out;

  ConstnessAnalysis constness(gm);
  const auto const_facts = constness.run(g);
  out.constness_iterations = constness.iterations();

  const AliasSummary aliases = alias_summary(g, gm);
  out.alias_iterations = aliases.iterations;

  LivenessAnalysis liveness(g);
  const auto live_facts = liveness.run(g);
  out.liveness_iterations = liveness.iterations();

  ReachabilityAnalysis reach;
  const auto reach_facts = reach.run(g);
  out.reachability_iterations = reach.iterations();

  int def = 0;
  for (const Node* n : g.nodes()) {
    NodeFacts f;
    f.name = n->name();
    f.opcode = fx::opcode_name(n->op());
    f.target = n->target();
    f.is_const = const_facts.at(n).is_const();
    f.def = def++;
    f.last_use = live_facts.at(n).last_use;
    f.dead = !reach_facts.at(n).live && n->op() != Opcode::Placeholder &&
             n->op() != Opcode::Output;
    f.sym_shape = meta_sym_shape(n);
    f.shape_poly = placeholder_shape_poly(n);
    const auto it = aliases.index.find(n);
    if (it != aliases.index.end()) {
      const auto i = static_cast<std::size_t>(it->second);
      f.fresh = aliases.fresh[i] != 0;
      f.external = aliases.external[i] != 0;
      f.escapes = aliases.escaped[i] != 0;
      for (int b : aliases.bases[i]) {
        f.alias_bases.push_back(
            aliases.order[static_cast<std::size_t>(b)]->name());
      }
    } else {
      // Placeholder: external storage by definition.
      f.external = true;
    }
    out.nodes.push_back(std::move(f));
  }
  return out;
}

std::string GraphFacts::to_string() const {
  std::ostringstream os;
  os << "node                 const fresh escapes dead  poly  live-range  "
     << "aliases  sym_shape\n";
  for (const NodeFacts& f : nodes) {
    std::string aliases;
    for (const auto& a : f.alias_bases) {
      aliases += aliases.empty() ? a : "," + a;
    }
    if (aliases.empty()) aliases = f.external ? "<external>" : "-";
    char range[32];
    std::snprintf(range, sizeof(range), "[%d,%d]", f.def, f.last_use);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-20s %-5s %-5s %-7s %-5s %-5s %-11s %s  %s\n",
                  f.name.c_str(), f.is_const ? "yes" : "no",
                  f.fresh ? "yes" : "no", f.escapes ? "yes" : "no",
                  f.dead ? "yes" : "no", f.shape_poly ? "yes" : "no", range,
                  aliases.c_str(), f.sym_shape.c_str());
    os << line;
  }
  return os.str();
}

std::string GraphFacts::to_json() const {
  std::ostringstream os;
  os << "{\n  \"iterations\": {\"constness\": " << constness_iterations
     << ", \"alias\": " << alias_iterations
     << ", \"liveness\": " << liveness_iterations
     << ", \"reachability\": " << reachability_iterations << "},\n"
     << "  \"nodes\": [";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeFacts& f = nodes[i];
    os << (i ? ",\n    {" : "\n    {") << "\"name\": \"" << json_escape(f.name)
       << "\", \"opcode\": \"" << json_escape(f.opcode) << "\", \"target\": \""
       << json_escape(f.target) << "\", \"const\": "
       << (f.is_const ? "true" : "false")
       << ", \"fresh\": " << (f.fresh ? "true" : "false")
       << ", \"external\": " << (f.external ? "true" : "false")
       << ", \"escapes\": " << (f.escapes ? "true" : "false")
       << ", \"dead\": " << (f.dead ? "true" : "false") << ", \"def\": "
       << f.def << ", \"last_use\": " << f.last_use << ", \"aliases\": [";
    for (std::size_t j = 0; j < f.alias_bases.size(); ++j) {
      os << (j ? ", " : "") << "\"" << json_escape(f.alias_bases[j]) << "\"";
    }
    os << "], \"sym_shape\": \"" << json_escape(f.sym_shape)
       << "\", \"shape_poly\": " << (f.shape_poly ? "true" : "false") << "}";
  }
  os << (nodes.empty() ? "]\n}" : "\n  ]\n}");
  return os.str();
}

}  // namespace fxcpp::analysis
