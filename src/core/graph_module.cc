#include "core/graph_module.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/codegen.h"
#include "core/exec_hooks.h"
#include "core/functional.h"
#include "core/graph_io.h"
#include "core/interpreter.h"
#include "core/memory_plan.h"
#include "core/plan_cache.h"
#include "tensor/ops.h"

namespace fxcpp::fx {

namespace {

RtValue value_to_rt(const Value& v) {
  if (v.is_tensor()) return v.tensor();
  if (v.is_tuple()) {
    std::vector<Tensor> ts;
    ts.reserve(v.tuple().size());
    for (const auto& item : v.tuple()) ts.push_back(item.tensor());
    return ts;
  }
  if (!v.defined()) return RtValue();
  throw std::logic_error("cannot lower Value (Proxy?) to a runtime value");
}

Value rt_to_value(RtValue v) {
  if (rt_is_tensor(v)) return Value(std::move(std::get<Tensor>(v)));
  if (std::holds_alternative<std::vector<Tensor>>(v)) {
    std::vector<Value> items;
    for (auto& t : std::get<std::vector<Tensor>>(v)) {
      items.emplace_back(std::move(t));
    }
    return Value(std::move(items));
  }
  if (std::holds_alternative<std::monostate>(v)) return Value();
  throw std::logic_error("graph produced a non-tensor output");
}

}  // namespace

// ---------------------------------------------------------------------------
// CompiledGraph
// ---------------------------------------------------------------------------

namespace {

RtValue eval_arg_expr(const Instr::ArgExpr& e, std::vector<RtValue>& regs) {
  using Kind = Instr::ArgExpr::Kind;
  switch (e.kind) {
    case Kind::Reg:
      return regs[static_cast<std::size_t>(e.reg)];
    case Kind::Imm:
      return e.imm;
    case Kind::List: {
      // all_int seeded true: an empty list is an empty int list, consistent
      // with Interpreter::eval_arg and recompile()'s immediate pre-decode.
      bool all_tensor = !e.items.empty();
      bool all_int = true;
      std::vector<RtValue> vals;
      vals.reserve(e.items.size());
      for (const auto& item : e.items) {
        vals.push_back(eval_arg_expr(item, regs));
        all_tensor = all_tensor && rt_is_tensor(vals.back());
        all_int = all_int && std::holds_alternative<std::int64_t>(vals.back());
      }
      if (all_tensor) {
        std::vector<Tensor> ts;
        ts.reserve(vals.size());
        for (auto& v : vals) ts.push_back(std::move(std::get<Tensor>(v)));
        return ts;
      }
      if (all_int) {
        std::vector<std::int64_t> is;
        is.reserve(vals.size());
        for (auto& v : vals) is.push_back(std::get<std::int64_t>(v));
        return is;
      }
      throw std::logic_error("heterogeneous list argument at runtime");
    }
  }
  return RtValue();
}

}  // namespace

RtValue CompiledGraph::exec_instr(const Instr& ins, std::vector<RtValue>& regs) {
  switch (ins.op) {
    case Opcode::CallFunction:
    case Opcode::CallMethod: {
      std::vector<RtValue> args;
      args.reserve(ins.args.size());
      for (const auto& a : ins.args) args.push_back(eval_arg_expr(a, regs));
      return ins.fn->run(args);
    }
    case Opcode::CallModule: {
      std::vector<Value> args;
      args.reserve(ins.args.size());
      for (const auto& a : ins.args) {
        args.push_back(rt_to_value(eval_arg_expr(a, regs)));
      }
      return value_to_rt((*ins.module)(std::move(args)));
    }
    case Opcode::GetAttr:
      return ins.attr;
    case Opcode::Output:
      return eval_arg_expr(ins.args.at(0), regs);
    case Opcode::Placeholder:
      break;
  }
  return RtValue();
}

namespace {

// Names of registers still holding values, in tape (= graph) order — the
// partial environment snapshot an ExecError carries out of a failed run.
std::vector<std::string> live_register_names(
    const std::vector<const Node*>& input_nodes,
    const std::vector<int>& input_regs, const std::vector<Instr>& instrs,
    const std::vector<RtValue>& regs) {
  std::vector<std::string> live;
  for (std::size_t i = 0; i < input_nodes.size() && i < input_regs.size();
       ++i) {
    if (input_nodes[i] &&
        !std::holds_alternative<std::monostate>(
            regs[static_cast<std::size_t>(input_regs[i])])) {
      live.push_back(input_nodes[i]->name());
    }
  }
  for (const Instr& ins : instrs) {
    if (ins.out_reg >= 0 && ins.node &&
        !std::holds_alternative<std::monostate>(
            regs[static_cast<std::size_t>(ins.out_reg)])) {
      live.push_back(ins.node->name());
    }
  }
  return live;
}

}  // namespace

namespace {

// Run one instruction with its arena slot armed (planned) or plainly.
RtValue exec_instr_planned(const Instr& ins, std::vector<RtValue>& regs,
                           const TapePlan* plan, std::size_t idx,
                           std::byte* arena_base) {
  if (plan && arena_base && idx < plan->intervals.size() &&
      plan->intervals[idx].planned) {
    const PlanInterval& iv = plan->intervals[idx];
    PlacementGuard slot(arena_base + iv.offset, iv.nbytes);
    return CompiledGraph::exec_instr(ins, regs);
  }
  return CompiledGraph::exec_instr(ins, regs);
}

}  // namespace

std::vector<RtValue> CompiledGraph::run(std::vector<RtValue> inputs,
                                        ExecHooks* hooks) const {
  return run_impl(std::move(inputs), hooks, nullptr, nullptr);
}

std::vector<RtValue> CompiledGraph::run_planned(std::vector<RtValue> inputs,
                                                const TapePlan& plan,
                                                std::byte* arena_base,
                                                ExecHooks* hooks) const {
  return run_impl(std::move(inputs), hooks, &plan, arena_base);
}

std::vector<RtValue> CompiledGraph::run_impl(std::vector<RtValue> inputs,
                                             ExecHooks* hooks,
                                             const TapePlan* plan,
                                             std::byte* arena_base) const {
  if (inputs.size() != input_regs_.size()) {
    throw arity_error(input_regs_.size(), inputs.size())
        .with_engine(Engine::Tape);
  }
  std::vector<RtValue> regs(static_cast<std::size_t>(num_regs_));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    regs[static_cast<std::size_t>(input_regs_[i])] = std::move(inputs[i]);
  }
  if (hooks) hooks->on_run_begin(instrs_.size());
  std::vector<RtValue> result;
  try {
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
      const Instr& ins = instrs_[i];
      RtValue out;
      try {
        if (hooks && ins.node) hooks->on_node_begin(*ins.node);
        out = exec_instr_planned(ins, regs, plan, i, arena_base);
        if (hooks && ins.node) hooks->on_node_output(*ins.node, out);
        if (hooks && ins.node) hooks->on_node_end(*ins.node, out);
      } catch (...) {
        rethrow_annotated(
            ins.node, Engine::Tape,
            live_register_names(input_nodes_, input_regs_, instrs_, regs));
      }
      if (ins.op == Opcode::Output) {
        result.push_back(std::move(out));
      } else if (ins.out_reg >= 0) {
        regs[static_cast<std::size_t>(ins.out_reg)] = std::move(out);
      }
      // Release dead registers (the `v = None` of generated Python): tensors
      // free their storage at last use exactly as fx's generated code does.
      for (int r : ins.frees) regs[static_cast<std::size_t>(r)] = RtValue();
    }
  } catch (...) {
    // Hook contract: on_run_end fires even for aborted runs.
    if (hooks) hooks->on_run_end();
    throw;
  }
  if (hooks) hooks->on_run_end();
  return result;
}

// ---------------------------------------------------------------------------
// GraphModule
// ---------------------------------------------------------------------------

GraphModule::GraphModule(nn::Module::Ptr root, std::unique_ptr<Graph> graph,
                         std::string class_name)
    : nn::Module(std::move(class_name)),
      root_(std::move(root)),
      graph_(std::move(graph)) {
  if (!graph_) throw std::invalid_argument("GraphModule: null graph");
}

nn::Module::Ptr GraphModule::resolve_module(const std::string& qualname) const {
  if (!root_) {
    throw std::out_of_range("GraphModule has no module hierarchy for '" +
                            qualname + "'");
  }
  return root_->get_submodule(qualname);
}

nn::Module::Ptr GraphModule::get_submodule(const std::string& qualname) const {
  try {
    return nn::Module::get_submodule(qualname);
  } catch (const std::out_of_range&) {
    return resolve_module(qualname);
  }
}

Tensor GraphModule::get_parameter(const std::string& qualname) const {
  try {
    return nn::Module::get_parameter(qualname);
  } catch (const std::out_of_range&) {
    return resolve_attr(qualname);
  }
}

Tensor GraphModule::resolve_attr(const std::string& qualname) const {
  // The GraphModule's own state first: passes that bake tensors (constant
  // folding's "_folded_N" attrs) register them on the GraphModule itself,
  // which must resolve even when the module wraps a root hierarchy.
  try {
    return nn::Module::get_parameter(qualname);
  } catch (const std::out_of_range&) {
  }
  if (!root_) {
    throw std::out_of_range("GraphModule has no module hierarchy for '" +
                            qualname + "'");
  }
  return root_->get_parameter(qualname);
}

void GraphModule::recompile() {
  fn::ensure_registered();
  graph_->lint();
  code_ = generate_code(*graph_);

  auto compiled = std::make_unique<CompiledGraph>();
  const std::vector<Node*> order = graph_->nodes();
  const auto last = last_use_index(order);

  std::unordered_map<const Node*, int> reg_of;
  int next_reg = 0;
  // Pre-decode an Argument into an ArgExpr.
  std::function<Instr::ArgExpr(const Argument&)> build =
      [&](const Argument& a) -> Instr::ArgExpr {
    Instr::ArgExpr e;
    if (a.is_node()) {
      e.kind = Instr::ArgExpr::Kind::Reg;
      e.reg = reg_of.at(a.node());
      return e;
    }
    if (a.is_list()) {
      bool all_int = true;
      for (const auto& item : a.list()) all_int = all_int && item.is_int();
      if (all_int) {
        e.kind = Instr::ArgExpr::Kind::Imm;
        e.imm = a.int_list();
        return e;
      }
      e.kind = Instr::ArgExpr::Kind::List;
      for (const auto& item : a.list()) e.items.push_back(build(item));
      return e;
    }
    e.kind = Instr::ArgExpr::Kind::Imm;
    if (a.is_int()) e.imm = a.as_int();
    else if (a.is_double()) e.imm = a.as_double();
    else if (a.is_bool()) e.imm = a.as_bool();
    else if (a.is_string()) e.imm = a.as_string();
    // None stays monostate.
    return e;
  };

  for (std::size_t i = 0; i < order.size(); ++i) {
    Node* n = order[i];
    if (n->op() == Opcode::Placeholder) {
      reg_of[n] = next_reg;
      compiled->input_regs_.push_back(next_reg);
      compiled->input_nodes_.push_back(n);
      ++next_reg;
      continue;
    }
    Instr ins;
    ins.op = n->op();
    ins.node = n;
    for (const auto& a : n->args()) ins.args.push_back(build(a));

    switch (n->op()) {
      case Opcode::CallFunction:
      case Opcode::CallMethod: {
        const auto& reg = n->op() == Opcode::CallFunction
                              ? OpRegistry::functions()
                              : OpRegistry::methods();
        ins.fn = &reg.at(n->target());
        // Merge kwargs into positional slots once, at compile time.
        if (!n->kwargs().empty()) {
          if (ins.args.size() < ins.fn->param_names.size()) {
            ins.args.resize(ins.fn->param_names.size());
          }
          for (const auto& [key, v] : n->kwargs()) {
            bool placed = false;
            for (std::size_t s = 0; s < ins.fn->param_names.size(); ++s) {
              if (ins.fn->param_names[s] == key) {
                ins.args[s] = build(v);
                placed = true;
                break;
              }
            }
            if (!placed) {
              throw std::invalid_argument("node '" + n->name() +
                                          "': unknown kwarg '" + key + "'");
            }
          }
        }
        break;
      }
      case Opcode::CallModule:
        ins.module = resolve_module(n->target());
        break;
      case Opcode::GetAttr:
        ins.attr = resolve_attr(n->target());
        break;
      case Opcode::Output:
        break;
      case Opcode::Placeholder:
        break;
    }
    if (n->op() != Opcode::Output) {
      ins.out_reg = next_reg;
      reg_of[n] = next_reg;
      ++next_reg;
    }
    compiled->instrs_.push_back(std::move(ins));
  }

  // Attach register frees at each node's last use.
  std::unordered_map<const Node*, Instr*> instr_of;
  for (auto& ins : compiled->instrs_) instr_of[ins.node] = &ins;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node* n = order[i];
    auto it = last.find(n);
    if (it == last.end() || it->second < 0) continue;
    const Node* last_user = order[static_cast<std::size_t>(it->second)];
    auto reg_it = reg_of.find(n);
    auto ins_it = instr_of.find(last_user);
    if (reg_it != reg_of.end() && ins_it != instr_of.end()) {
      ins_it->second->frees.push_back(reg_it->second);
    }
  }

  compiled->num_regs_ = next_reg;
  compiled_ = std::move(compiled);
  // Every cached specialization indexed the old tape; drop them all. The
  // replanner rebuilds a matching plan on the next run_planned().
  if (std::shared_ptr<PlanCache> cache = plan_cache()) cache->clear();
}

void GraphModule::set_plan_cache(std::shared_ptr<PlanCache> cache,
                                 Replanner replanner) {
  std::lock_guard<std::mutex> lk(plan_mu_);
  plan_cache_ = std::move(cache);
  replanner_ = std::move(replanner);
}

std::shared_ptr<PlanCache> GraphModule::plan_cache() const {
  std::lock_guard<std::mutex> lk(plan_mu_);
  return plan_cache_;
}

std::shared_ptr<PlanCacheEntry> GraphModule::replan_into_cache(
    PlanCache& cache, const std::vector<RtValue>& inputs) {
  Replanner replanner;
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    replanner = replanner_;
  }
  if (!replanner) return nullptr;
  const std::string sig = cache.signature_of(inputs);
  std::lock_guard<std::mutex> lk(replan_mu_);
  // Double-checked: another thread may have planned this signature while we
  // waited for the planning lock.
  if (std::shared_ptr<PlanCacheEntry> raced = cache.peek(sig)) return raced;
  // Plan at the signature's canonical shapes (dim 0 rounded up under
  // bucketing) so one plan serves the whole bucket. Graphs that reject the
  // canonical shapes (e.g. square-matmul graphs where rounding one dim
  // breaks the contract) fall back to planning at the exact inputs — the
  // entry still serves the bucket, with off-canonical sizes degrading to
  // heap allocation (see core/plan_cache.h).
  std::shared_ptr<const TapePlan> plan;
  std::vector<Tensor> canon;
  if (cache.canonical_inputs(inputs, &canon)) {
    try {
      plan = replanner(*this, std::vector<RtValue>(canon.begin(), canon.end()));
    } catch (...) {
      // Rejected: plan at the exact inputs below.
    }
  }
  if (!plan) {
    try {
      plan = replanner(*this, inputs);
    } catch (const std::invalid_argument& e) {
      // The shape rules reject the exact inputs, so no engine can run them:
      // report the caller's input error, as a failed guard would.
      throw ExecError(ErrorCode::GuardViolation, e.what());
    }
  }
  if (!plan) return nullptr;
  return cache.insert(inputs, std::move(plan));
}

std::shared_ptr<PlanCacheEntry> GraphModule::planned_entry(
    const std::vector<RtValue>& inputs) {
  std::shared_ptr<PlanCache> cache = plan_cache();
  if (!cache) return nullptr;
  std::shared_ptr<PlanCacheEntry> entry = cache->lookup(inputs);
  if (!entry) entry = replan_into_cache(*cache, inputs);
  // Stale-tape backstop: recompile() clears the cache, but an entry
  // obtained just before that clear could index the old tape.
  if (entry && entry->plan()->intervals.size() != compiled_->instrs().size()) {
    return nullptr;
  }
  return entry;
}

std::vector<RtValue> GraphModule::run_planned(std::vector<RtValue> inputs,
                                              ExecHooks* hooks) {
  if (!compiled_) recompile();
  // Hit: signature hash + guard check, zero planning work; a miss plans
  // once and inserts. Each run leases its own arena, so concurrent callers
  // of any shape mix are safe. No plan (no cache attached, non-tensor
  // inputs, planner failure): the unplanned tape.
  if (std::shared_ptr<PlanCacheEntry> entry = planned_entry(inputs)) {
    ArenaLease lease(entry);
    return compiled_->run_planned(std::move(inputs), *entry->plan(),
                                  lease.base(), hooks);
  }
  return compiled_->run(std::move(inputs), hooks);
}

Tensor GraphModule::run_planned(const Tensor& input) {
  std::vector<RtValue> out = run_planned(std::vector<RtValue>{input});
  if (out.empty() || !rt_is_tensor(out.front())) {
    throw std::logic_error("graph produced a non-tensor output");
  }
  return std::move(std::get<Tensor>(out.front()));
}

std::vector<Tensor> GraphModule::run_planned_batched(
    const std::vector<Tensor>& rows, ExecHooks* hooks) {
  if (rows.empty()) return {};
  const Tensor& head = rows.front();
  if (head.dim() < 1) {
    throw std::invalid_argument(
        "run_planned_batched: rows must have a batch dim");
  }
  std::int64_t total = 0;
  for (const Tensor& r : rows) {
    bool ok = r.dtype() == head.dtype() && r.dim() == head.dim();
    for (std::int64_t d = 1; ok && d < head.dim(); ++d) {
      ok = r.size(static_cast<int>(d)) == head.size(static_cast<int>(d));
    }
    if (!ok) {
      throw std::invalid_argument(
          "run_planned_batched: rows disagree on dtype or trailing dims");
    }
    total += r.size(0);
  }
  // One planned run over the whole batch. A single-request batch skips the
  // concat copy and runs on the caller's tensor directly.
  Tensor batched = rows.size() == 1 ? head : ops::cat(rows, 0);
  std::vector<RtValue> out =
      run_planned(std::vector<RtValue>{RtValue(std::move(batched))}, hooks);
  if (out.size() != 1 || !rt_is_tensor(out.front())) {
    throw ExecError(ErrorCode::NodeFailure,
                    "run_planned_batched: graph did not produce a single "
                    "tensor output");
  }
  Tensor result = std::move(std::get<Tensor>(out.front()));
  if (result.dim() < 1 || result.size(0) != total) {
    throw ExecError(
        ErrorCode::NodeFailure,
        "run_planned_batched: graph is not row-count-preserving (output "
        "dim 0 is " +
            std::to_string(result.dim() < 1 ? -1 : result.size(0)) +
            ", batch has " + std::to_string(total) + " rows)");
  }
  std::vector<Tensor> split;
  split.reserve(rows.size());
  std::int64_t off = 0;
  for (const Tensor& r : rows) {
    const std::int64_t k = r.size(0);
    // clone(): each response owns its bytes — never a view into the batch
    // (whose storage may be arena-backed and recycled by the next run).
    split.push_back(result.narrow(0, off, k).clone());
    off += k;
  }
  return split;
}

const CompiledGraph& GraphModule::compiled_graph() const {
  if (!compiled_) throw std::logic_error("GraphModule: call recompile() first");
  return *compiled_;
}

const std::string& GraphModule::code() const {
  if (!compiled_) throw std::logic_error("GraphModule: call recompile() first");
  return code_;
}

Value GraphModule::forward(const std::vector<Value>& inputs) {
  if (!compiled_) recompile();
  std::vector<RtValue> rt;
  rt.reserve(inputs.size());
  for (const auto& v : inputs) rt.push_back(value_to_rt(v));
  std::vector<RtValue> out = compiled_->run(std::move(rt));
  if (out.empty()) return Value();
  return rt_to_value(std::move(out.front()));
}

Tensor GraphModule::run(const std::vector<Tensor>& inputs) {
  std::vector<Value> vs;
  vs.reserve(inputs.size());
  for (const auto& t : inputs) vs.emplace_back(t);
  return forward(vs).tensor();
}

void check_guards_strict(const GraphModule& gm,
                         const std::vector<RtValue>& inputs) {
  const std::vector<Node*> phs = gm.graph().placeholders();
  if (inputs.size() != phs.size()) throw arity_error(phs.size(), inputs.size());
  for (const GuardSpec& g : gm.guards()) {
    std::size_t idx = phs.size();
    for (std::size_t i = 0; i < phs.size(); ++i) {
      if (phs[i]->name() == g.placeholder) {
        idx = i;
        break;
      }
    }
    if (idx == phs.size()) {
      throw ExecError(ErrorCode::GuardViolation,
                      "guard references placeholder '" + g.placeholder +
                          "' which no longer exists in the graph (stale "
                          "guards; regenerate after transforms)");
    }
    const RtValue& v = inputs[idx];
    const std::string want =
        "shape " + shape_str(g.shape) + " dtype " + dtype_name(g.dtype);
    if (!rt_is_tensor(v)) {
      throw ExecError(ErrorCode::GuardViolation,
                      "input for placeholder '" + g.placeholder +
                          "' is not a tensor; guard expects " + want)
          .with_node(*phs[idx]);
    }
    const Tensor& t = std::get<Tensor>(v);
    if (t.sizes() != g.shape || t.dtype() != g.dtype) {
      throw ExecError(ErrorCode::GuardViolation,
                      "input for placeholder '" + g.placeholder +
                          "' violates its guard: expected " + want +
                          ", got shape " + shape_str(t.sizes()) + " dtype " +
                          dtype_name(t.dtype()))
          .with_node(*phs[idx]);
    }
  }
}

std::vector<RtValue> GraphModule::run_resilient(std::vector<RtValue> inputs,
                                                const ResilientOptions& opts,
                                                ResilientReport* report) {
  if (!compiled_) recompile();
  if (report) *report = ResilientReport{};
  // Guard/arity violations are the caller's bug, identical on every engine:
  // fail once, up front, before any rung runs.
  if (opts.check_guards) check_guards_strict(*this, inputs);

  std::exception_ptr last;
  std::vector<RtValue> out;
  auto attempt = [&](Engine eng, auto&& body) -> bool {
    EngineAttempt a;
    a.engine = eng;
    try {
      out = body();
      a.ok = true;
      if (report) {
        report->attempts.push_back(a);
        report->succeeded = eng;
      }
      return true;
    } catch (const ExecError& e) {
      a.code = e.code();
      a.error = e.what();
      last = std::current_exception();
      if (report) report->attempts.push_back(a);
      if (is_input_error(e.code())) throw;
      return false;
    } catch (const std::exception& e) {
      a.error = e.what();
      last = std::current_exception();
      if (report) report->attempts.push_back(a);
      return false;
    }
  };

  // Each rung gets its own copy of the inputs (tensor copies share storage,
  // so this is pointer-cheap): a failed rung may already have moved its copy
  // into registers, and recovery must start from pristine inputs to stay
  // bit-identical with a fault-free run.
  if (opts.try_tape) {
    const bool ok = attempt(Engine::Tape,
                            [&] { return compiled_->run(inputs, opts.hooks); });
    if (ok) return out;
  }
  if (opts.try_interpreter) {
    const bool ok = attempt(Engine::Interpreter, [&] {
      Interpreter interp(*this);
      interp.set_hooks(opts.hooks);
      std::vector<RtValue> single;
      single.push_back(interp.run(inputs));
      return single;
    });
    if (ok) return out;
  }
  if (last) std::rethrow_exception(last);
  throw ExecError(ErrorCode::Unknown,
                  "run_resilient: every engine is disabled in "
                  "ResilientOptions");
}

Tensor GraphModule::run_resilient(const Tensor& input,
                                  const ResilientOptions& opts,
                                  ResilientReport* report) {
  std::vector<RtValue> out =
      run_resilient(std::vector<RtValue>{input}, opts, report);
  if (out.empty() || !rt_is_tensor(out.front())) {
    throw ExecError(ErrorCode::Unknown, "graph produced a non-tensor output");
  }
  return std::move(std::get<Tensor>(out.front()));
}

void GraphModule::to_folder(const std::string& dir) const {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/module.py");
    f << code();
  }
  {
    // Parseable encoding (core/graph_io.h): reload with parse_graph() and
    // rebind against the same module hierarchy.
    std::ofstream f(dir + "/graph.txt");
    f << serialize_graph(*graph_);
  }
  {
    std::ofstream f(dir + "/state.txt");
    if (root_) {
      for (const auto& [name, t] : root_->named_state()) {
        f << name << " " << shape_str(t.sizes()) << " " << dtype_name(t.dtype())
          << "\n";
      }
    }
  }
}

}  // namespace fxcpp::fx
