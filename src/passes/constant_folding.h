// Constant folding driven by the shared constness dataflow analysis
// (analysis/dataflow.h).
//
// With frozen weights a traced model carries whole subgraphs whose inputs
// are only get_attr tensors — the BN scale/shift chains decompose leaves
// behind, weight transposes, fused epsilon adds. The constness analysis
// proves which nodes are compile-time constants (pure ops fed only by
// constants; OpInfo::pure excludes RNG ops like dropout), this pass
// evaluates each maximal constant subgraph ONCE through the Interpreter and
// replaces its boundary nodes with get_attr references to baked "_folded_N"
// tensors. Every later run skips the whole cone: less dispatch, fewer
// kernels, fewer allocations.
//
// Semantics-preserving by construction — the baked tensor is the value the
// Interpreter would have computed, bit for bit — and validated two ways:
// PassValidator in the tests, and the differential fuzzer
// (fuzz_constant_fold) comparing folded vs unfolded outputs across both
// engines.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/graph_module.h"

namespace fxcpp::passes {

struct FoldOptions {
  // Per-tensor size cap in bytes; a constant whose baked value would exceed
  // it is left in the graph (folding trades compute for residency, which is
  // a bad trade for huge intermediates). 0 = unlimited.
  std::size_t max_bytes = 0;
};

struct FoldStats {
  int folded = 0;     // boundary nodes replaced by get_attr
  int erased = 0;     // interior nodes removed by the follow-up DCE
  std::size_t baked_bytes = 0;        // total bytes of baked tensors
  std::vector<std::string> attr_names;  // the registered "_folded_N" names
};

// Fold every constant subgraph of `gm`. Baked tensors are registered on the
// root hierarchy when one exists (so scratch GraphModules over the same root
// still resolve them), else on `gm` itself. Recompiles when anything folded.
FoldStats constant_folding(fx::GraphModule& gm, const FoldOptions& opts = {});

}  // namespace fxcpp::passes
