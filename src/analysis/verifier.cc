#include "analysis/verifier.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "analysis/structural_rules.h"
#include "core/functional.h"
#include "core/json.h"
#include "core/memory_plan.h"
#include "core/op_registry.h"
#include "core/plan_cache.h"
#include "passes/shape_prop.h"
#include "passes/type_check.h"

namespace fxcpp::analysis {

using fx::Graph;
using fx::GraphModule;
using fx::json_escape;
using fx::Node;
using fx::Opcode;
using fx::OpInfo;
using fx::OpRegistry;

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

int Report::count(Severity s) const {
  int n = 0;
  for (const auto& d : diagnostics) n += d.severity == s ? 1 : 0;
  return n;
}

int Report::count_rule(const std::string& rule_id) const {
  int n = 0;
  for (const auto& d : diagnostics) n += d.rule == rule_id ? 1 : 0;
  return n;
}

std::vector<std::string> Report::fired_rules() const {
  std::vector<std::string> ids;
  for (const auto& d : diagnostics) {
    if (std::find(ids.begin(), ids.end(), d.rule) == ids.end()) {
      ids.push_back(d.rule);
    }
  }
  return ids;
}

std::string Report::to_string() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) os << d.to_string() << "\n";
  os << count(Severity::Error) << " error(s), " << count(Severity::Warning)
     << " warning(s), " << count(Severity::Info) << " info";
  return os.str();
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\n  \"summary\": {\"errors\": " << count(Severity::Error)
     << ", \"warnings\": " << count(Severity::Warning)
     << ", \"infos\": " << count(Severity::Info) << "},\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    os << (i ? ",\n    {" : "\n    {") << "\"rule\": \"" << json_escape(d.rule)
       << "\", \"severity\": \"" << severity_name(d.severity)
       << "\", \"node\": \"" << json_escape(d.node_name) << "\", \"message\": \""
       << json_escape(d.message) << "\", \"note\": \"" << json_escape(d.note)
       << "\"}";
  }
  os << (diagnostics.empty() ? "]\n}" : "\n  ]\n}");
  return os.str();
}

// ---------------------------------------------------------------------------
// Resolution rules — the checks Python name resolution performs implicitly
// when generated fx code is exec'd (Section 4.4); here they run statically
// against OpRegistry and the owning nn::Module hierarchy.
// ---------------------------------------------------------------------------

namespace {

void check_function_targets(const RuleContext& ctx,
                            std::vector<Diagnostic>& out) {
  fx::fn::ensure_registered();
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() != Opcode::CallFunction) continue;
    if (!OpRegistry::functions().find(n->target())) {
      emit(out, "resolve.function-target", Severity::Error, n, n->name(),
           "call_function target '" + n->target() +
               "' is not registered in OpRegistry::functions()",
           "register it (custom_op) or fix the target string");
    }
  }
}

void check_method_targets(const RuleContext& ctx,
                          std::vector<Diagnostic>& out) {
  fx::fn::ensure_registered();
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() != Opcode::CallMethod) continue;
    if (!OpRegistry::methods().find(n->target())) {
      emit(out, "resolve.method-target", Severity::Error, n, n->name(),
           "call_method target '" + n->target() +
               "' is not registered in OpRegistry::methods()");
    }
  }
}

void check_kwargs(const RuleContext& ctx, std::vector<Diagnostic>& out) {
  fx::fn::ensure_registered();
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() != Opcode::CallFunction && n->op() != Opcode::CallMethod) {
      continue;
    }
    const auto& reg = n->op() == Opcode::CallFunction
                          ? OpRegistry::functions()
                          : OpRegistry::methods();
    const OpInfo* info = reg.find(n->target());
    if (!info) continue;  // resolve.*-target already reports this
    for (const auto& [key, value] : n->kwargs()) {
      (void)value;
      if (std::find(info->param_names.begin(), info->param_names.end(), key) ==
          info->param_names.end()) {
        std::string valid;
        for (const auto& p : info->param_names) {
          valid += valid.empty() ? p : ", " + p;
        }
        emit(out, "resolve.kwargs", Severity::Error, n, n->name(),
             "operator '" + n->target() + "' has no parameter named '" + key +
                 "'",
             "valid parameters: " + valid);
      }
    }
    if (!info->param_names.empty() &&
        n->args().size() > info->param_names.size()) {
      emit(out, "resolve.kwargs", Severity::Warning, n, n->name(),
           "operator '" + n->target() + "' takes " +
               std::to_string(info->param_names.size()) +
               " parameters but is called with " +
               std::to_string(n->args().size()) + " positional args");
    }
  }
}

void check_module_paths(const RuleContext& ctx, std::vector<Diagnostic>& out) {
  if (!ctx.gm) return;
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() != Opcode::CallModule) continue;
    try {
      ctx.gm->resolve_module(n->target());
    } catch (const std::exception& e) {
      emit(out, "resolve.module-path", Severity::Error, n, n->name(),
           "call_module target '" + n->target() +
               "' does not resolve in the module hierarchy: " + e.what(),
           "set_submodule the path or retarget the node");
    }
  }
}

void check_attr_paths(const RuleContext& ctx, std::vector<Diagnostic>& out) {
  if (!ctx.gm) return;
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() != Opcode::GetAttr) continue;
    try {
      ctx.gm->resolve_attr(n->target());
    } catch (const std::exception& e) {
      emit(out, "resolve.attr-path", Severity::Error, n, n->name(),
           "get_attr target '" + n->target() +
               "' does not resolve to a parameter/buffer: " + e.what());
    }
  }
}

// ---------------------------------------------------------------------------
// Metadata rules — pass-attached shape/dtype annotations must stay
// consistent with what the graph actually computes.
// ---------------------------------------------------------------------------

void check_meta_pairs(const RuleContext& ctx, std::vector<Diagnostic>& out) {
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() == Opcode::Output) continue;
    const bool has_shape = n->has_meta("shape");
    const bool has_dtype = n->has_meta("dtype");
    if (has_shape != has_dtype) {
      emit(out, "meta.pair", Severity::Warning, n, n->name(),
           std::string("node has meta[\"") +
               (has_shape ? "shape" : "dtype") + "\"] but no meta[\"" +
               (has_shape ? "dtype" : "shape") + "\"]",
           "ShapeProp and infer_meta set both; partial meta suggests a buggy "
           "transform");
    }
  }
}

// Forward dataflow recheck: clone the graph, re-run passes::ShapeProp on the
// clone (zero inputs synthesized from the placeholder annotations), and
// compare each annotated node's recorded shape/dtype against what the data
// actually does. Catches stale meta left behind by rewrites.
void check_stale_meta(const RuleContext& ctx, std::vector<Diagnostic>& out) {
  if (!ctx.gm) return;
  std::vector<Tensor> inputs;
  for (const Node* ph : ctx.graph.placeholders()) {
    if (!ph->has_meta("shape") || !ph->has_meta("dtype")) return;
    inputs.push_back(Tensor::zeros(ph->shape(), ph->dtype()));
  }
  bool any_annotated = false;
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() != Opcode::Placeholder && n->has_meta("shape")) {
      any_annotated = true;
    }
  }
  if (!any_annotated) return;

  std::unordered_map<const Node*, Node*> node_map;
  std::unique_ptr<Graph> clone = ctx.graph.clone(&node_map);
  // ShapeProp annotates the module it runs over; give it a scratch
  // GraphModule over the same hierarchy so the verified graph stays const.
  GraphModule scratch(ctx.gm->root(), std::move(clone), "VerifierRecheck");
  try {
    passes::shape_prop(scratch, inputs);
  } catch (const std::exception& e) {
    emit(out, "meta.stale", Severity::Info, nullptr, "",
         std::string("shape recheck skipped (graph failed to execute): ") +
             e.what());
    return;
  }
  for (const Node* n : ctx.graph.nodes()) {
    if (n->op() == Opcode::Placeholder || n->op() == Opcode::Output) continue;
    if (!n->has_meta("shape") || !n->has_meta("dtype")) continue;
    const Node* copy = node_map.at(n);
    if (!copy->has_meta("shape")) continue;  // produced a non-tensor
    const Shape& want = std::get<Shape>(copy->meta("shape"));
    const DType want_dt = std::get<DType>(copy->meta("dtype"));
    if (n->shape() != want) {
      emit(out, "meta.stale", Severity::Warning, n, n->name(),
           "meta[\"shape\"] says " + shape_str(n->shape()) +
               " but dataflow recheck infers " + shape_str(want),
           "a transform rewrote this node without clearing its meta");
    } else if (n->dtype() != want_dt) {
      emit(out, "meta.stale", Severity::Warning, n, n->name(),
           std::string("meta[\"dtype\"] says ") + dtype_name(n->dtype()) +
               " but dataflow recheck infers " + dtype_name(want_dt),
           "a transform rewrote this node without clearing its meta");
    }
  }
}

// Gradual type check (passes::type_check) driven by the placeholder
// annotations: known-vs-known shape conflicts are real bugs.
void check_gradual_types(const RuleContext& ctx, std::vector<Diagnostic>& out) {
  if (!ctx.gm) return;
  std::vector<std::optional<passes::SymShape>> in_types;
  bool any_known = false;
  for (const Node* ph : ctx.graph.placeholders()) {
    if (ph->has_meta("shape")) {
      in_types.emplace_back(passes::sym_of(ph->shape()));
      any_known = true;
    } else {
      in_types.emplace_back(std::nullopt);
    }
  }
  if (!any_known) return;

  std::unordered_map<const Node*, Node*> node_map;
  std::unique_ptr<Graph> clone = ctx.graph.clone(&node_map);
  std::unordered_map<const Node*, const Node*> back;
  for (const auto& [src, copy] : node_map) back[copy] = src;
  GraphModule scratch(ctx.gm->root(), std::move(clone), "VerifierTypeCheck");
  try {
    const passes::TypeCheckResult res = passes::type_check(scratch, in_types);
    for (const auto& err : res.errors) {
      const Node* orig =
          err.node && back.count(err.node) ? back.at(err.node) : nullptr;
      emit(out, "meta.type-conflict", Severity::Error, orig,
           orig ? orig->name() : "", err.message);
    }
  } catch (const std::exception&) {
    // Unresolvable targets/attrs: the resolve.* rules already report those.
  }
}

// ---------------------------------------------------------------------------
// Plan-aliasing rule — every cached memory plan (passes::compile_planned
// and each plan-cache miss) must be internally sound: no two
// simultaneously-live planned intervals may overlap in the arena, every
// slot must lie inside the arena, and can_alias in-place reuse may only
// target a planned input that is dead by the aliasing instruction. The
// planner establishes these invariants; this rule re-derives them from each
// plan alone so a transform that edits the tape under a stale plan (or a
// future planner bug) is caught before the plan hands kernels overlapping
// memory.
// ---------------------------------------------------------------------------

void audit_plan_aliasing(const fx::PlanCacheEntry& entry,
                         const std::vector<fx::Instr>& instrs,
                         std::vector<Diagnostic>& out) {
  const fx::TapePlan& plan = *entry.plan();
  const std::string at = "cached plan '" + entry.signature() + "': ";
  const auto& ivs = plan.intervals;
  if (ivs.size() != instrs.size()) {
    emit(out, "plan.aliasing", Severity::Error, nullptr, "",
         at + "plan has " + std::to_string(ivs.size()) + " intervals but the tape "
         "has " + std::to_string(instrs.size()) + " instructions",
         "the module was recompiled under a stale plan; re-run "
         "passes::compile_planned");
    return;
  }
  // Resolve in-place alias chains to their root slot and validate each link.
  std::vector<int> root(ivs.size());
  for (std::size_t i = 0; i < ivs.size(); ++i) root[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    if (!ivs[i].in_place) continue;
    const fx::Node* n = instrs[i].node;
    const int j = ivs[i].alias_of;
    if (j < 0 || static_cast<std::size_t>(j) >= i || !ivs[i].planned ||
        !ivs[static_cast<std::size_t>(j)].planned) {
      emit(out, "plan.aliasing", Severity::Error, n, n ? n->name() : "",
           at + "in-place interval " + std::to_string(i) +
               " has invalid alias target " + std::to_string(j),
           "alias_of must name an earlier planned interval");
      continue;
    }
    const auto& tgt = ivs[static_cast<std::size_t>(j)];
    if (ivs[i].offset != tgt.offset) {
      emit(out, "plan.aliasing", Severity::Error, n, n ? n->name() : "",
           at + "in-place interval " + std::to_string(i) +
               " does not share its target's arena offset",
           "can_alias reuse must write the exact slot the input occupies");
    }
    if (tgt.last_use > ivs[i].def) {
      emit(out, "plan.aliasing", Severity::Error, n, n ? n->name() : "",
           at + "in-place interval " + std::to_string(i) + " overwrites interval " +
               std::to_string(j) + " which is still read at instruction " +
               std::to_string(tgt.last_use),
           "can_alias reuse requires the input to be dead at the aliasing "
           "instruction");
    }
    root[i] = root[static_cast<std::size_t>(j)];
  }
  // Pairwise: overlapping arena byte ranges require disjoint lifetimes
  // (except within one alias chain, whose overlap is the point).
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    const auto& a = ivs[i];
    if (!a.planned) continue;
    if (a.offset + a.padded > plan.arena_bytes) {
      const fx::Node* n = instrs[i].node;
      emit(out, "plan.aliasing", Severity::Error, n, n ? n->name() : "",
           at + "interval " + std::to_string(i) + " extends past the arena (" +
               std::to_string(a.offset + a.padded) + " > " +
               std::to_string(plan.arena_bytes) + " bytes)");
    }
    for (std::size_t j = i + 1; j < ivs.size(); ++j) {
      const auto& b = ivs[j];
      if (!b.planned || root[i] == root[j]) continue;
      const bool bytes_overlap =
          a.offset < b.offset + b.padded && b.offset < a.offset + a.padded;
      const bool live_overlap = a.def <= b.last_use && b.def <= a.last_use;
      if (bytes_overlap && live_overlap) {
        const fx::Node* n = instrs[j].node;
        emit(out, "plan.aliasing", Severity::Error, n, n ? n->name() : "",
             at + "intervals " + std::to_string(i) + " and " + std::to_string(j) +
                 " are simultaneously live but share arena bytes",
             "liveness/first-fit disagreement: the planned run would hand two "
             "kernels overlapping memory");
      }
    }
  }
}

void check_plan_aliasing(const RuleContext& ctx, std::vector<Diagnostic>& out) {
  if (!ctx.gm || !ctx.gm->compiled()) return;
  const std::shared_ptr<fx::PlanCache> cache = ctx.gm->plan_cache();
  if (!cache) return;
  for (const auto& entry : cache->entries()) {
    audit_plan_aliasing(*entry, ctx.gm->compiled_graph().instrs(), out);
  }
}

// ---------------------------------------------------------------------------
// Guard-coverage rule — a GraphModule whose placeholders carry shape meta
// should have a GuardSpec per annotated placeholder, and the specs should
// agree with the meta. Transforms invalidate stale shape meta (PR 1) but
// cannot see guards generated earlier, so after a transform + ShapeProp the
// guards silently describe the *old* program; this rule is the detector.
// ---------------------------------------------------------------------------

void check_guard_coverage(const RuleContext& ctx,
                          std::vector<Diagnostic>& out) {
  if (!ctx.gm) return;
  const auto& guards = ctx.gm->guards();
  std::vector<const Node*> annotated;
  std::vector<Node*> phs;
  for (Node* p : ctx.graph.nodes()) {
    if (p->op() != Opcode::Placeholder) continue;
    phs.push_back(p);
    if (p->has_shape() && p->has_meta("dtype")) annotated.push_back(p);
  }
  if (annotated.empty() && guards.empty()) return;
  if (guards.empty()) {
    emit(out, "guards.coverage", Severity::Warning, nullptr, "",
         std::to_string(annotated.size()) +
             " placeholder(s) carry shape meta but the module has no "
             "generated GuardSpecs",
         "call resilience::generate_guards(gm) after ShapeProp to install "
         "input guards");
    return;
  }
  for (const Node* p : annotated) {
    const fx::GuardSpec* spec = nullptr;
    for (const auto& g : guards) {
      if (g.placeholder == p->name()) {
        spec = &g;
        break;
      }
    }
    if (!spec) {
      emit(out, "guards.coverage", Severity::Warning, p, p->name(),
           "placeholder has shape meta but no GuardSpec",
           "guards were generated before this placeholder was annotated; "
           "regenerate with resilience::generate_guards");
      continue;
    }
    if (spec->shape != p->shape() || spec->dtype != p->dtype()) {
      emit(out, "guards.coverage", Severity::Warning, p, p->name(),
           "GuardSpec is stale: expects shape " + shape_str(spec->shape) +
               " dtype " + dtype_name(spec->dtype) + " but meta says shape " +
               shape_str(p->shape()) + " dtype " + dtype_name(p->dtype()),
           "a transform or ShapeProp changed this placeholder after guards "
           "were generated; regenerate with resilience::generate_guards");
    }
  }
  for (const auto& g : guards) {
    bool exists = false;
    for (const Node* p : phs) exists = exists || p->name() == g.placeholder;
    if (!exists) {
      emit(out, "guards.coverage", Severity::Warning, nullptr, g.placeholder,
           "GuardSpec references placeholder '" + g.placeholder +
               "' which no longer exists in the graph",
           "a transform removed or renamed the placeholder; regenerate "
           "guards");
    }
  }
}

// ---------------------------------------------------------------------------
// Plan-cache coherence rule — every entry in an attached PlanCache must be a
// plan the *current* tape can run, and its guards must pin every dimension
// its arena layout depends on: an interval's slot size was computed from
// shape meta that flowed from the placeholders it transitively reads, so any
// such placeholder without a named GuardSpec means the cache key does not
// actually determine the layout (a differently-shaped input could hash to
// the same entry and silently mis-place). The entry's signature must also
// re-derive from its guards, so key and contract cannot drift apart.
// ---------------------------------------------------------------------------

void check_plan_cache_coherence(const RuleContext& ctx,
                                std::vector<Diagnostic>& out) {
  if (!ctx.gm || !ctx.gm->compiled()) return;
  const std::shared_ptr<fx::PlanCache> cache = ctx.gm->plan_cache();
  if (!cache) return;
  const fx::CompiledGraph& cg = ctx.gm->compiled_graph();
  const auto& instrs = cg.instrs();
  const std::size_t num_ph = cg.input_regs().size();

  // Transitive placeholder ancestry per instruction, walked over the tape's
  // pre-decoded register references (the same dataflow the kernels execute).
  std::unordered_map<int, std::size_t> ph_of_reg;
  for (std::size_t p = 0; p < num_ph; ++p) {
    ph_of_reg[cg.input_regs()[p]] = p;
  }
  std::unordered_map<int, std::size_t> producer;  // reg -> defining instr
  std::vector<std::vector<bool>> deps(instrs.size(),
                                      std::vector<bool>(num_ph, false));
  std::function<void(const fx::Instr::ArgExpr&, std::vector<bool>&)> mark =
      [&](const fx::Instr::ArgExpr& e, std::vector<bool>& d) {
        if (e.kind == fx::Instr::ArgExpr::Kind::Reg) {
          const auto ph = ph_of_reg.find(e.reg);
          if (ph != ph_of_reg.end()) {
            d[ph->second] = true;
            return;
          }
          const auto pr = producer.find(e.reg);
          if (pr != producer.end()) {
            const std::vector<bool>& src = deps[pr->second];
            for (std::size_t k = 0; k < num_ph; ++k) {
              if (src[k]) d[k] = true;
            }
          }
          return;
        }
        for (const auto& item : e.items) mark(item, d);
      };
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    for (const auto& a : instrs[i].args) mark(a, deps[i]);
    if (instrs[i].out_reg >= 0) {
      producer[instrs[i].out_reg] = i;
    }
  }

  for (const auto& entry : cache->entries()) {
    const fx::TapePlan& plan = *entry->plan();
    const std::string& sig = entry->signature();
    if (plan.intervals.size() != instrs.size()) {
      emit(out, "plan.cache-coherence", Severity::Error, nullptr, sig,
           "cached plan '" + sig + "' has " +
               std::to_string(plan.intervals.size()) +
               " intervals but the tape has " +
               std::to_string(instrs.size()) + " instructions",
           "the module was recompiled without clearing its plan cache; "
           "recompile() clears it — do not re-insert stale plans");
      continue;
    }
    if (plan.guards.size() != num_ph) {
      emit(out, "plan.cache-coherence", Severity::Error, nullptr, sig,
           "cached plan '" + sig + "' carries " +
               std::to_string(plan.guards.size()) + " guard spec(s) for " +
               std::to_string(num_ph) + " placeholder(s)",
           "plans must pin every input; re-plan via passes::plan_tape");
      continue;
    }
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (!plan.intervals[i].planned) continue;
      for (std::size_t p = 0; p < num_ph; ++p) {
        if (!deps[i][p] || !plan.guards[p].placeholder.empty()) continue;
        const Node* n = instrs[i].node;
        const Node* pn = cg.input_nodes()[p];
        emit(out, "plan.cache-coherence", Severity::Error, n,
             n ? n->name() : "",
             "cached plan '" + sig + "' gives instruction " +
                 std::to_string(i) + " an arena slot whose size depends on "
                 "placeholder '" + (pn ? pn->name() : "?") +
                 "', but that placeholder has no named guard",
             "every dimension a cached layout depends on must be pinned by "
             "the entry's guards, or the cache key under-determines it");
      }
    }
    // Key <-> contract cross-check: re-deriving the signature from the
    // plan's own guards must give the key the entry is filed under (modulo
    // bucketing, which signature_of_guards applies identically).
    const std::string gsig = cache->signature_of_guards(plan.guards);
    if (!gsig.empty() && gsig != sig) {
      emit(out, "plan.cache-coherence", Severity::Error, nullptr, sig,
           "cache entry is keyed '" + sig + "' but its plan's guards derive "
           "signature '" + gsig + "'",
           "the entry would serve inputs its plan was never specialized "
           "for; evict and re-plan");
    }
  }
}

Rule structural_rule(const char* id, Severity sev, const char* desc,
                     void (*fn)(const Graph&, std::vector<Diagnostic>&)) {
  return Rule{id, sev, desc,
              [fn](const RuleContext& ctx, std::vector<Diagnostic>& out) {
                fn(ctx.graph, out);
              }};
}

}  // namespace

// ---------------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------------

std::vector<Rule> Verifier::default_rules() {
  std::vector<Rule> r;
  r.push_back(structural_rule("structure.duplicate-name", Severity::Error,
                              "node names are unique", rules::duplicate_names));
  r.push_back(structural_rule("structure.placeholders-first", Severity::Error,
                              "placeholders precede compute nodes",
                              rules::placeholders_first));
  r.push_back(structural_rule("structure.output-last", Severity::Error,
                              "single output node, last in the list",
                              rules::output_last));
  r.push_back(structural_rule("structure.missing-output", Severity::Warning,
                              "graph has an output node",
                              rules::missing_output));
  r.push_back(structural_rule("structure.use-before-def", Severity::Error,
                              "arguments reference earlier definitions",
                              rules::use_before_def));
  r.push_back(structural_rule("structure.stale-use-def", Severity::Error,
                              "use-def chains consistent in both directions",
                              rules::use_def_consistency));
  r.push_back(structural_rule("structure.unused-placeholder", Severity::Warning,
                              "every placeholder has users",
                              rules::unused_placeholders));
  r.push_back(structural_rule("structure.dead-code", Severity::Info,
                              "no pure nodes without users", rules::dead_code));
  r.push_back(Rule{"resolve.function-target", Severity::Error,
                   "call_function targets exist in OpRegistry::functions()",
                   check_function_targets});
  r.push_back(Rule{"resolve.method-target", Severity::Error,
                   "call_method targets exist in OpRegistry::methods()",
                   check_method_targets});
  r.push_back(Rule{"resolve.kwargs", Severity::Error,
                   "kwarg names and arity match the operator schema",
                   check_kwargs});
  r.push_back(Rule{"resolve.module-path", Severity::Error,
                   "call_module paths resolve in the module hierarchy",
                   check_module_paths});
  r.push_back(Rule{"resolve.attr-path", Severity::Error,
                   "get_attr paths resolve to parameters/buffers",
                   check_attr_paths});
  r.push_back(Rule{"meta.pair", Severity::Warning,
                   "shape/dtype meta always set together", check_meta_pairs});
  r.push_back(Rule{"meta.stale", Severity::Warning,
                   "shape/dtype meta consistent with a dataflow recheck",
                   check_stale_meta});
  r.push_back(Rule{"meta.type-conflict", Severity::Error,
                   "gradual type check over annotated placeholders",
                   check_gradual_types});
  r.push_back(Rule{"guards.coverage", Severity::Warning,
                   "annotated placeholders have fresh GuardSpecs "
                   "(stale-guard detection after transforms)",
                   check_guard_coverage});
  r.push_back(Rule{"plan.aliasing", Severity::Error,
                   "installed memory plan is sound: no simultaneously-live "
                   "arena overlap, in-place reuse only of dead inputs",
                   check_plan_aliasing});
  r.push_back(Rule{"plan.cache-coherence", Severity::Error,
                   "every cached plan matches the current tape and its "
                   "guards pin every dimension the arena layout depends on",
                   check_plan_cache_coherence});
  return r;
}

Verifier::Verifier() : rules_(default_rules()) {}

Verifier::Verifier(bool with_defaults) {
  if (with_defaults) rules_ = default_rules();
}

void Verifier::add_rule(Rule r) { rules_.push_back(std::move(r)); }

void Verifier::disable(const std::string& rule_id) {
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&](const Rule& r) { return r.id == rule_id; }),
               rules_.end());
}

Report Verifier::run(const RuleContext& ctx) const {
  Report report;
  for (const Rule& r : rules_) r.check(ctx, report.diagnostics);
  return report;
}

Report Verifier::verify(const Graph& g) const {
  return run(RuleContext{g, nullptr});
}

Report Verifier::verify(const GraphModule& gm) const {
  return run(RuleContext{gm.graph(), &gm});
}

Report verify(const GraphModule& gm) { return Verifier().verify(gm); }
Report verify(const Graph& g) { return Verifier().verify(g); }

}  // namespace fxcpp::analysis
