// FLOPs / memory-traffic / size estimation (Section 6.3): the basis of the
// paper's "framework for simulation of deep learning inference at scale" —
// estimating program runtime and memory consumption from the captured graph
// instead of running on real devices.
//
// Requires ShapeProp to have annotated the graph first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_module.h"

namespace fxcpp::passes {

struct NodeCost {
  const fx::Node* node = nullptr;
  double flops = 0.0;          // multiply-accumulates counted as 2 ops
  double bytes_read = 0.0;     // activations + parameters
  double bytes_written = 0.0;  // output activations
  double param_bytes = 0.0;
  // False when this node produces a value but carries no shape meta (absent
  // or invalidated by a transform): its zeros mean "unmeasured", not "free".
  bool measured = true;
};

struct CostReport {
  std::vector<NodeCost> per_node;
  double total_flops = 0.0;
  double total_bytes = 0.0;    // read + written
  double param_bytes = 0.0;
  // Value-producing nodes skipped for missing shape meta. Non-empty means
  // the totals undercount; run ShapeProp (or use the example-input overload
  // of estimate_cost) to measure them.
  std::vector<const fx::Node*> unmeasured;

  // Predicted runtime on a roofline device model: max(compute, memory) time.
  double estimate_seconds(double flops_per_sec, double bytes_per_sec) const;

  std::string to_table() const;
};

// Estimate per-node costs. Nodes without shape metadata contribute zero and
// are surfaced in `unmeasured` (and by to_table()) — transforms invalidate
// stale meta, so a silent 0 would misreport freshly rewritten graphs.
CostReport estimate_cost(const fx::GraphModule& gm);

// Like the above, but re-runs ShapeProp on `example_inputs` first, so the
// report always describes those shapes — never whatever meta the graph
// held (compile_planned leaves the compile shapes' meta).
CostReport estimate_cost(fx::GraphModule& gm,
                         const std::vector<Tensor>& example_inputs);

}  // namespace fxcpp::passes
