// Program scheduling / software pipelining (Section 6.2.3): split a model
// into stages with split_module and overlap stage execution across a stream
// of inputs — the "overlapping synchronous CPU operations with asynchronous
// device operations" pattern the paper reports being used in production.
//
// The pipeline runs stage 1 as rt::TaskGroup tasks on the inter-op pool.
#pragma once

#include <functional>
#include <vector>

#include "core/split.h"

namespace fxcpp::passes {

// Split `gm` into two stages at `boundary`: nodes before the boundary node
// (inclusive) form stage 0. Returns the SplitResult (parent + 2 submodules).
fx::SplitResult split_at(fx::GraphModule& gm, const std::string& boundary_node);

// Run a stream of inputs through a 2-stage split serially (baseline).
std::vector<Tensor> run_serial(fx::SplitResult& split,
                               const std::vector<Tensor>& stream);

// Run the same stream with stage 1 executing as an inter-op pool task,
// overlapping stage 0 of item i+1 with stage 1 of item i (software
// pipelining).
std::vector<Tensor> run_pipelined(fx::SplitResult& split,
                                  const std::vector<Tensor>& stream);

}  // namespace fxcpp::passes
