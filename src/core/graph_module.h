// GraphModule — the container for transformed programs (Section 4.2): a
// Graph plus the stateful Module hierarchy it references, itself a Module so
// transformed code drops back into the ecosystem (Section 4.3).
//
// The paper's code generation emits Python source and `exec`s it; the C++
// analog is recompile(), which lowers the Graph to a flat execution tape
// (CompiledGraph) with pre-resolved call targets, pre-decoded immediate
// arguments, and liveness-based register freeing — the same properties
// loaded generated code has. code() still renders the Python-like source
// text of Figures 1-3 for inspection and golden-testing.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/module.h"
#include "core/op_registry.h"
#include "resilience/exec_error.h"

namespace fxcpp::fx {

class ExecHooks;
struct TapePlan;   // core/memory_plan.h
class PlanCache;       // core/plan_cache.h
class PlanCacheEntry;  // core/plan_cache.h

// Input contract for one placeholder, generated from traced shape/dtype meta
// (resilience::generate_guards). Checked at run entry by
// check_guards_strict() / run_resilient(); a violation is an ExecError with
// code GuardViolation naming the offending placeholder.
struct GuardSpec {
  std::string placeholder;
  Shape shape;
  DType dtype = DType::Float32;
};

// One step of the lowered execution tape.
struct Instr {
  // Pre-decoded argument: a register reference, an immediate RtValue, or a
  // (possibly nested) list of either.
  struct ArgExpr {
    enum class Kind { Reg, Imm, List };
    Kind kind = Kind::Imm;
    int reg = -1;
    RtValue imm;
    std::vector<ArgExpr> items;
  };

  Opcode op = Opcode::CallFunction;
  const OpInfo* fn = nullptr;    // CallFunction / CallMethod
  // CallModule target, resolved at recompile. Shared ownership: if a
  // transform later swaps the module in the hierarchy, this tape keeps (and
  // keeps running) the module it was compiled against, exactly as a Python
  // GraphModule would keep its bound attribute.
  nn::Module::Ptr module;
  Tensor attr;                  // GetAttr (bound at recompile)
  std::vector<ArgExpr> args;    // kwargs already merged positionally
  int out_reg = -1;
  std::vector<int> frees;       // registers dead after this instruction
  const Node* node = nullptr;   // provenance (error messages)
};

class CompiledGraph {
 public:
  // Execute the tape. `hooks` (optional, core/exec_hooks.h) receives
  // begin/end callbacks around every instruction — the profiler's seam.
  // Placeholders are register fills, not instructions, so they produce no
  // hook events here (unlike Interpreter::run).
  std::vector<RtValue> run(std::vector<RtValue> inputs,
                           ExecHooks* hooks = nullptr) const;

  // Planned execution: identical to run(), but before each planned
  // instruction the thread-local placement hint (Storage::arm_placement) is
  // armed with the instruction's arena slot, so the kernel's output
  // allocation adopts pre-sized arena memory instead of hitting the heap.
  // `arena_base` must point at (at least) plan.arena_bytes of 64-byte-
  // aligned memory that outlives the returned values' last use. The caller
  // is responsible for having validated the inputs against plan.guards —
  // GraphModule::run_planned does, and re-plans on mismatch.
  std::vector<RtValue> run_planned(std::vector<RtValue> inputs,
                                   const TapePlan& plan, std::byte* arena_base,
                                   ExecHooks* hooks = nullptr) const;

  // Execute one instruction against a register file and return its result
  // (the caller stores it into ins.out_reg / the output list). Used by the
  // tape loop; does not apply Instr::frees — register lifetime is the
  // caller's concern.
  static RtValue exec_instr(const Instr& ins, std::vector<RtValue>& regs);

  int num_registers() const { return num_regs_; }
  const std::vector<Instr>& instrs() const { return instrs_; }
  const std::vector<int>& input_regs() const { return input_regs_; }
  // Placeholder nodes parallel to input_regs() (provenance for diagnostics).
  const std::vector<const Node*>& input_nodes() const { return input_nodes_; }

 private:
  friend class GraphModule;
  std::vector<RtValue> run_impl(std::vector<RtValue> inputs, ExecHooks* hooks,
                                const TapePlan* plan,
                                std::byte* arena_base) const;
  std::vector<Instr> instrs_;
  std::vector<int> input_regs_;
  // Placeholder provenance parallel to input_regs_, so failure diagnostics
  // can name live inputs even though placeholders are not instructions.
  std::vector<const Node*> input_nodes_;
  int num_regs_ = 0;
};

// Configuration for GraphModule::run_resilient's fallback ladder. Engines
// are attempted in the order tape -> interpreter; disable a rung to skip it.
struct ResilientOptions {
  bool try_tape = true;
  bool try_interpreter = true;
  // Check generated GuardSpecs before executing (a violation is never
  // retried — no engine can fix the caller's inputs).
  bool check_guards = true;
  ExecHooks* hooks = nullptr;  // observed by every attempted engine
};

// One rung of the ladder as it actually ran.
struct EngineAttempt {
  Engine engine = Engine::Unknown;
  bool ok = false;
  ErrorCode code = ErrorCode::Unknown;
  std::string error;  // what() of the failure, empty when ok
};

struct ResilientReport {
  std::vector<EngineAttempt> attempts;
  Engine succeeded = Engine::Unknown;  // Unknown = every rung failed
};

class GraphModule : public nn::Module {
 public:
  // `root` supplies the module hierarchy call_module/get_attr targets
  // resolve against (may be nullptr for traced free functions).
  GraphModule(nn::Module::Ptr root, std::unique_ptr<Graph> graph,
              std::string class_name = "GraphModule");

  Graph& graph() { return *graph_; }
  const Graph& graph() const { return *graph_; }
  nn::Module::Ptr root() const { return root_; }

  // Regenerate the executable tape (and cached source text) from the
  // current Graph. Must be called after mutating the Graph, like
  // GraphModule.recompile() in torch.fx.
  void recompile();
  bool compiled() const { return compiled_ != nullptr; }
  const CompiledGraph& compiled_graph() const;

  // Python-like generated source (Figures 1-3), regenerated on recompile().
  const std::string& code() const;

  // Run the tape. Auto-recompiles on first call.
  Value forward(const std::vector<Value>& inputs) override;

  // Tensor-in / tensor-out convenience for tests and benches.
  Tensor run(const std::vector<Tensor>& inputs);
  Tensor run(const Tensor& input) { return run(std::vector<Tensor>{input}); }

  // --- memory planning (computed by passes/memory_planner) --------------
  // A TapePlan maps each instruction's output to a slot in one pre-sized
  // arena; planned runs reuse arenas run-to-run instead of re-allocating
  // every intermediate. Plans live only in a guard-keyed PlanCache
  // (core/plan_cache.h), attached by passes::compile_planned together with
  // a replanner, so mixed-shape traffic plans each distinct input signature
  // once and every later arrival of that signature runs with zero planning
  // work.

  // Plans the tape at `inputs` — a missed signature's canonical shapes, or
  // the exact inputs when the graph rejects those — and returns the plan,
  // or nullptr when no plan applies (non-tensor inputs). Pure: it reads the
  // graph and writes nothing, so node meta and guards stay those of the
  // compile shapes.
  using Replanner = std::function<std::shared_ptr<const TapePlan>(
      GraphModule&, const std::vector<RtValue>&)>;

  // Attach the multi-plan cache and the replanner that fills it on a miss
  // (passes::compile_planned does). A hit reuses the cached specialized
  // plan and a pooled arena (zero planning work). Evicted entries stay
  // alive for threads still running them (shared_ptr-held).
  void set_plan_cache(std::shared_ptr<PlanCache> cache, Replanner replanner);
  std::shared_ptr<PlanCache> plan_cache() const;

  // Execute the tape into a planned arena leased from the input signature's
  // cache entry. A miss plans once through the replanner and inserts; with
  // no cache attached, or no plan for these inputs, the run transparently
  // uses the unplanned tape — planned execution is an optimization, not a
  // new failure mode. Inputs the replanner's shape rules reject (e.g. a
  // wrong trailing dim) throw ExecError{GuardViolation} with the rule's
  // message. Thread-safe for concurrent callers of any shape mix (each run
  // leases its own arena).
  std::vector<RtValue> run_planned(std::vector<RtValue> inputs,
                                   ExecHooks* hooks = nullptr);
  Tensor run_planned(const Tensor& input);

  // Dynamic-batching entry (the serving layer's hot path): concatenate
  // `rows` — per-request tensors that must agree on dtype and every dim but
  // dim 0 — along dim 0, execute ONE planned run over the combined batch,
  // and split the batched output back into one contiguous per-request tensor
  // (row-count-preserving graphs only: the single tensor output's dim 0 must
  // equal the summed input rows, else ExecError{NodeFailure} — callers
  // degrade to per-request runs). Outputs are cloned out of the batch so a
  // response never aliases arena or batch memory. Row-independent kernels
  // (elementwise chains, GEMM over rows) make each split bit-identical to
  // running that row alone.
  std::vector<Tensor> run_planned_batched(const std::vector<Tensor>& rows,
                                          ExecHooks* hooks = nullptr);

  // --- input guards (resilience) ----------------------------------------
  // GuardSpecs are generated from traced shape/dtype meta by
  // resilience::generate_guards and validated at entry by run_resilient (or
  // explicitly via check_guards_strict / resilience::check_inputs). Graph
  // transforms that invalidate shape meta leave guards stale; the verifier
  // rule `guards.coverage` flags that.
  void set_guards(std::vector<GuardSpec> guards) {
    guards_ = std::move(guards);
  }
  const std::vector<GuardSpec>& guards() const { return guards_; }
  void clear_guards() { guards_.clear(); }

  // Hardened entry point: optionally checks guards, then walks the engine
  // fallback ladder (serial tape -> Interpreter, each rung
  // gated by `opts`), retrying on the next engine when a rung fails with an
  // engine-local error. Input-shaped errors (arity, guard violations) are
  // rethrown immediately — no engine can repair the caller's inputs. When
  // every rung fails, the last failure is rethrown. `report`, if non-null,
  // receives one EngineAttempt per rung tried.
  std::vector<RtValue> run_resilient(std::vector<RtValue> inputs,
                                     const ResilientOptions& opts = {},
                                     ResilientReport* report = nullptr);
  Tensor run_resilient(const Tensor& input, const ResilientOptions& opts = {},
                       ResilientReport* report = nullptr);

  // Delegated state lookup: searches this module's own children first, then
  // the root hierarchy (so targets recorded during tracing resolve).
  nn::Module::Ptr resolve_module(const std::string& qualname) const;
  Tensor resolve_attr(const std::string& qualname) const;

  // Module-hierarchy lookups delegate to the root so a GraphModule behaves
  // like the module it was traced from (needed for re-tracing and nesting).
  nn::Module::Ptr get_submodule(const std::string& qualname) const override;
  Tensor get_parameter(const std::string& qualname) const override;

  // Dump the generated code and graph listing to a directory
  // (GraphModule.to_folder in the paper, Section 5.4).
  void to_folder(const std::string& dir) const;

 private:
  // The cache entry run_planned executes: lookup, else plan once and
  // insert. nullptr when no cache is attached, no plan could be produced,
  // or the entry indexes a stale tape (caller runs unplanned).
  std::shared_ptr<PlanCacheEntry> planned_entry(
      const std::vector<RtValue>& inputs);
  // Miss path: double-checked peek, then plan at the signature's canonical
  // shapes (replanner) and insert what it returns. A rejection at the exact
  // inputs is rethrown as ExecError{GuardViolation}.
  std::shared_ptr<PlanCacheEntry> replan_into_cache(
      PlanCache& cache, const std::vector<RtValue>& inputs);

  nn::Module::Ptr root_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<CompiledGraph> compiled_;
  std::string code_;
  std::vector<GuardSpec> guards_;
  // plan_mu_ guards the attached (plan_cache_, replanner_) pair.
  // replan_mu_ serializes misses, so concurrent misses of one signature plan
  // it once. The two are never held together.
  mutable std::mutex plan_mu_;
  std::mutex replan_mu_;
  std::shared_ptr<PlanCache> plan_cache_;
  Replanner replanner_;
};

// Validate `inputs` against the module's GuardSpecs (strict mode): arity
// first (shared with the engines' own check), then per-placeholder shape and
// dtype. Throws ExecError{GuardViolation} naming the violating placeholder,
// its expected spec, and what arrived. A module with no guards passes
// trivially. The permissive variant (re-run ShapeProp and regenerate) lives
// in resilience::check_inputs, which layers on passes.
void check_guards_strict(const GraphModule& gm,
                         const std::vector<RtValue>& inputs);

}  // namespace fxcpp::fx
