// Dataflow analysis framework over the fx IR.
//
// The paper's analyses (shape_prop, Section 6.3) exploit the basic-block IR:
// one forward transfer per node, no join, no fixpoint. This framework keeps
// that fast path — on a DAG every analysis below converges in one changing
// pass plus one confirming pass — but is written as a real optimistic
// fixpoint engine (per-node fact maps, a lattice join, iterate-to-stable),
// so the same analyses keep working when `prim::If`/`prim::Loop` style
// control flow (src/jit, Figure 4) introduces back edges.
//
// Four concrete analyses are hosted here and consumed by real passes:
//   - ConstnessAnalysis   -> passes::constant_folding
//   - AliasAnalysis       -> passes::plan_tape (via alias_summary)
//   - LivenessAnalysis    -> cross-checked against the core last_use_index
//                            liveness shared by codegen / tape / Interpreter
//   - ReachabilityAnalysis-> dead-code facts (mirrors eliminate_dead_code)
//
// analyze_graph() bundles all four into per-node facts for fxlint --analyze.
//
// This header depends only on core (+nn in the .cc for module
// classification) so that passes can consume analyses without a cycle:
// fxcpp_passes -> fxcpp_dataflow -> fxcpp_core.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/graph.h"
#include "core/graph_module.h"

namespace fxcpp::analysis {

// ---------------------------------------------------------------------------
// Generic framework
// ---------------------------------------------------------------------------

enum class Direction { Forward, Backward };

// A monotone dataflow analysis: facts start at `initial` (the lattice
// bottom), every round recomputes each node's fact with `transfer` and
// accumulates it into the map with `join`, and iteration stops when a full
// round changes nothing. On the repo's basic-block IR the node list is a
// topological order, so a Forward analysis stabilizes after one changing
// round; `iterations()` reports the confirming round too (== 2 on a DAG).
template <typename Fact>
class DataflowAnalysis {
 public:
  using FactMap = std::unordered_map<const fx::Node*, Fact>;

  virtual ~DataflowAnalysis() = default;

  virtual Direction direction() const { return Direction::Forward; }
  // Lattice bottom for this node (before any transfer has run).
  virtual Fact initial(const fx::Node& n) const {
    (void)n;
    return Fact{};
  }
  // Recompute n's fact from the current map (reads predecessor facts for a
  // Forward analysis, successor facts for a Backward one).
  virtual Fact transfer(const fx::Node& n, const FactMap& facts) const = 0;
  // Merge `src` into `dst`; returns true when `dst` changed. Must be
  // monotone for the fixpoint loop to terminate.
  virtual bool join(Fact& dst, const Fact& src) const = 0;

  FactMap run(const fx::Graph& g, int max_iterations = 64) {
    const std::vector<fx::Node*> order = g.nodes();
    FactMap facts;
    facts.reserve(order.size());
    for (const fx::Node* n : order) facts.emplace(n, initial(*n));

    iterations_ = 0;
    converged_ = false;
    const bool forward = direction() == Direction::Forward;
    for (int round = 0; round < max_iterations; ++round) {
      ++iterations_;
      bool changed = false;
      auto visit = [&](const fx::Node* n) {
        Fact next = transfer(*n, facts);
        changed = join(facts.at(n), next) || changed;
      };
      if (forward) {
        for (const fx::Node* n : order) visit(n);
      } else {
        for (auto it = order.rbegin(); it != order.rend(); ++it) visit(*it);
      }
      if (!changed) {
        converged_ = true;
        break;
      }
    }
    return facts;
  }

  // Rounds executed by the last run(), including the confirming round.
  int iterations() const { return iterations_; }
  bool converged() const { return converged_; }

 private:
  int iterations_ = 0;
  bool converged_ = false;
};

// ---------------------------------------------------------------------------
// Constness — which values are compile-time constants
// ---------------------------------------------------------------------------

// Three-point lattice Unknown < Const < NonConst: facts start optimistic
// (Unknown) and only ever move down, so a loop-carried join terminates.
enum class Const : std::uint8_t { Unknown, Const, NonConst };

struct ConstFact {
  Const value = Const::Unknown;
  bool is_const() const { return value == Const::Const; }
};

// get_attr reads are constant (module state is fixed at compile time; with a
// GraphModule the target must actually resolve, or nothing could bake it),
// and calls to pure registered ops (OpInfo::pure) with all-constant inputs
// fold through. Placeholders, impure ops (dropout's RNG), unregistered
// targets, and module calls (potentially stateful) are non-constant.
class ConstnessAnalysis : public DataflowAnalysis<ConstFact> {
 public:
  explicit ConstnessAnalysis(const fx::GraphModule* gm = nullptr) : gm_(gm) {}

  ConstFact transfer(const fx::Node& n, const FactMap& facts) const override;
  bool join(ConstFact& dst, const ConstFact& src) const override;

 private:
  const fx::GraphModule* gm_;
};

// Convenience: node -> is_const over one run.
std::unordered_map<const fx::Node*, bool> constant_nodes(
    const fx::Graph& g, const fx::GraphModule* gm = nullptr);

// ---------------------------------------------------------------------------
// Alias sets — which producers' storage a value may share
// ---------------------------------------------------------------------------

// nn modules whose forward always materializes fresh storage for its result.
// Extracted from passes/memory_planner so the planner and this analysis
// share one classification and can never disagree.
bool module_output_is_fresh(const nn::Module* m);

struct AliasFact {
  // Producer nodes whose storage this value may alias. A fresh kernel
  // output's set is {self}; a view's set is the union of its inputs' sets.
  // Empty + external means "aliases only storage born outside the graph"
  // (placeholder / get_attr / module state), which no plan ever owns.
  std::vector<const fx::Node*> bases;
  bool fresh = false;     // kernel materializes new storage for this value
  bool external = false;  // may alias storage not produced by graph nodes
};

class AliasAnalysis : public DataflowAnalysis<AliasFact> {
 public:
  explicit AliasAnalysis(const fx::GraphModule* gm = nullptr) : gm_(gm) {}

  AliasFact transfer(const fx::Node& n, const FactMap& facts) const override;
  bool join(AliasFact& dst, const AliasFact& src) const override;

 private:
  const fx::GraphModule* gm_;
};

// Alias facts flattened to tape coordinates: entry i describes the i-th
// non-placeholder node in graph order, which recompile() lowers to tape
// instruction i. This is exactly the planner's former Pass 1 (base sets,
// escape, alias-extended lifetimes), now derived from
// AliasAnalysis so plan_tape and the analysis cannot diverge.
struct AliasSummary {
  std::vector<const fx::Node*> order;  // entry -> node (tape order)
  std::unordered_map<const fx::Node*, int> index;  // node -> entry
  std::vector<char> fresh;     // entry's value is freshly allocated
  std::vector<char> external;  // entry's value may alias external storage
  std::vector<char> escaped;   // entry's storage is read by Output
  std::vector<std::vector<int>> bases;    // per entry: base entries
  std::vector<int> last_use;              // alias-extended lifetime (>= self)
  int iterations = 0;                     // fixpoint rounds taken

  // Is `entry` a direct fresh output (not a view, not external)? The
  // planner's in-place precondition (c).
  bool direct_fresh(int entry) const {
    const auto e = static_cast<std::size_t>(entry);
    return fresh[e] != 0 && bases[e].size() == 1 && bases[e][0] == entry;
  }
};

AliasSummary alias_summary(const fx::Graph& g,
                           const fx::GraphModule* gm = nullptr);

// ---------------------------------------------------------------------------
// Liveness — last-use intervals
// ---------------------------------------------------------------------------

struct LiveFact {
  int last_use = -1;  // graph-order index of the last consumer; -1 = unused
};

// Backward analysis over use-def chains. Matches fx::last_use_index (the
// core liveness shared by codegen's `; v = None` annotations, the tape's
// register frees, and the Interpreter's env eviction) node for node; the
// test suite asserts that agreement.
class LivenessAnalysis : public DataflowAnalysis<LiveFact> {
 public:
  explicit LivenessAnalysis(const fx::Graph& g);

  Direction direction() const override { return Direction::Backward; }
  LiveFact transfer(const fx::Node& n, const FactMap& facts) const override;
  bool join(LiveFact& dst, const LiveFact& src) const override;

 private:
  std::unordered_map<const fx::Node*, int> index_;
};

// ---------------------------------------------------------------------------
// Reachability / dead code
// ---------------------------------------------------------------------------

struct ReachFact {
  bool live = false;  // value (transitively) feeds the output node
};

class ReachabilityAnalysis : public DataflowAnalysis<ReachFact> {
 public:
  Direction direction() const override { return Direction::Backward; }
  ReachFact transfer(const fx::Node& n, const FactMap& facts) const override;
  bool join(ReachFact& dst, const ReachFact& src) const override;
};

// Erasable dead nodes (non-placeholder, non-output, unreachable from the
// output). Agrees with what Graph::eliminate_dead_code would remove — the
// purity argument of Section 5.6 makes both trivially correct.
std::vector<const fx::Node*> dead_nodes(const fx::Graph& g);

// ---------------------------------------------------------------------------
// Bundled per-node facts (fxlint --analyze)
// ---------------------------------------------------------------------------

struct NodeFacts {
  std::string name;
  std::string opcode;
  std::string target;
  bool is_const = false;
  bool fresh = false;
  bool external = false;
  bool escapes = false;  // this node's storage is read by Output
  std::vector<std::string> alias_bases;  // names of base producers
  int def = -1;       // graph-order index
  int last_use = -1;  // last consumer index; -1 = unused
  bool dead = false;  // erasable (unreachable from the output)
  std::string sym_shape;  // meta["sym_shape"], else stringified meta shape
  // Placeholder whose shape is not pinned to one concrete value: no
  // shape/dtype meta, or symbolic dims in sym_shape. These are the inputs
  // whose variation drives plan-cache traffic (one cached specialization per
  // concrete signature); always false for non-placeholders.
  bool shape_poly = false;
};

struct GraphFacts {
  std::vector<NodeFacts> nodes;  // graph order
  int constness_iterations = 0;
  int alias_iterations = 0;
  int liveness_iterations = 0;
  int reachability_iterations = 0;

  std::string to_string() const;
  // Stable machine-readable dump: fixed key order, nodes in graph order.
  std::string to_json() const;
};

GraphFacts analyze_graph(const fx::Graph& g,
                         const fx::GraphModule* gm = nullptr);

}  // namespace fxcpp::analysis
