// Symbolic shape propagation — one of the "additional systems ... in
// development" the paper lists beside naive shape_prop (Section 6.3), and
// the machinery behind the Figure 4 discussion: on a basic-block IR a single
// forward transfer suffices, while control flow forces a fixpoint analysis
// whose join can diverge to "dynamic".
//
// The same transfer rules also give the memory planner its shape/dtype meta
// without running the model (infer_meta below), the static alternative to
// ShapeProp's interpretation that Relay-style type relations use.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/graph_module.h"

namespace fxcpp::passes {

// A dimension that is either statically known or dynamic (unknown).
struct SymDim {
  static SymDim known(std::int64_t v) { return SymDim{true, v}; }
  static SymDim dynamic() { return SymDim{false, -1}; }

  bool is_known = false;
  std::int64_t value = -1;

  bool operator==(const SymDim& o) const {
    return is_known == o.is_known && (!is_known || value == o.value);
  }
  std::string str() const {
    return is_known ? std::to_string(value) : "*dynamic*";
  }
};

using SymShape = std::vector<SymDim>;

std::string sym_shape_str(const SymShape& s);
SymShape sym_of(const Shape& s);

// Lattice join: dims that disagree become dynamic; rank mismatch joins to a
// fully-dynamic shape of unknown rank (empty optional).
std::optional<SymShape> join(const SymShape& a, const SymShape& b);

// A value's static type: shape and dtype, each possibly unknown. An empty
// shape optional is the gradual "Any" (unknown rank). The rules below never
// guess: a value no exact rule covers — an unknown module or target, or one
// computed from such a value — is fully unknown.
struct SymTensor {
  std::optional<SymShape> shape;
  std::optional<DType> dtype;
};

// Shared module transfer-function table, one entry per nn module kind,
// matched on the module's exact dynamic type (a subclass may override
// forward, so it is only covered when listed). Symbolic propagation,
// infer_meta and the gradual type checker (type_check.cc) all key off this
// single table through transfer_graph, so their answers for "what shape
// does this module produce" can never drift apart.
struct ModuleTransfer {
  const char* kind;
  bool (*matches)(const nn::Module&);
  // Output shape (nullopt: no exact answer, e.g. an out-of-range flatten
  // start). Throws std::invalid_argument where the module's kernel would
  // reject the known input dims.
  std::optional<SymShape> (*shape)(const nn::Module&, const SymShape&);
  // Output dtype; nullopt when the kernel does not accept `in`.
  std::optional<DType> (*dtype)(const nn::Module&, DType in);
};
const std::vector<ModuleTransfer>& module_transfer_table();

// One forward pass of the transfer rules over gm's graph from one type per
// placeholder (placeholders past the end are unknown). `visit(node, type)`
// sees every node in graph order, Output included (typed as its value). A
// definite conflict at a node goes to `on_conflict(node, message)` and the
// node's type becomes unknown (gradual checking); with no handler it is
// thrown as std::invalid_argument naming the node. The engine behind
// propagate_symbolic, infer_meta and type_check.
using TypeVisitor = std::function<void(fx::Node&, const SymTensor&)>;
using ConflictHandler =
    std::function<void(const fx::Node&, const std::string&)>;
void transfer_graph(fx::GraphModule& gm, const std::vector<SymTensor>& inputs,
                    const TypeVisitor& visit,
                    const ConflictHandler& on_conflict = nullptr);

// Forward-propagate symbolic shapes through a (basic block) fx graph given
// one symbolic shape per placeholder. Annotates each node whose shape is
// determined with meta["sym_shape"] (stringified) and returns the output
// node's shape (empty when undetermined). Single pass — the payoff of
// Section 5.5's no-control-flow decision.
SymShape propagate_symbolic(fx::GraphModule& gm,
                            const std::vector<SymShape>& input_shapes);

// One node's exact shape and dtype, as ShapeProp records them in meta.
struct TensorMeta {
  Shape shape;
  DType dtype = DType::Float32;
};
using MetaTable = std::unordered_map<const fx::Node*, TensorMeta>;

// Metadata-only shape propagation from example inputs: the shape/dtype the
// transfer rules give each node, from one transfer_graph walk instead of a
// forward pass. A node whose shape or dtype the rules do not determine
// exactly (unknown module or target, or fed by such a node) is absent, so
// the planner leaves it on the heap. Throws std::invalid_argument naming the
// node on a definite conflict between exact shapes (wrong rank, broadcast
// mismatch, channel mismatch), the engines' ArityMismatch ExecError on an
// input-count mismatch, and never for a missing rule. Reads the graph only:
// the plan-cache replanner plans from this table, so a miss never touches
// node meta.
MetaTable infer_meta_table(fx::GraphModule& gm,
                           const std::vector<Tensor>& example_inputs);

// infer_meta_table, then written to the nodes as the same meta["shape"] /
// meta["dtype"] that ShapeProp records. Every node gets both keys or
// neither. ShapeProp remains the concrete reference this pass is tested
// against.
void infer_meta(fx::GraphModule& gm, const std::vector<Tensor>& example_inputs);

// Figure 4: the loop `for _ in range(itr): x = cat((x, x), dim=0)` as a
// fixpoint problem. Repeatedly applies the body transfer function and joins
// with the accumulated state until convergence (returns iterations taken)
// or divergence to dynamic in the loop-carried dimension.
struct LoopAnalysis {
  SymShape result;
  int iterations = 0;
  bool converged = false;
};
LoopAnalysis analyze_loop_cat(const SymShape& init, int cat_dim,
                              int max_iterations = 64);

}  // namespace fxcpp::passes
