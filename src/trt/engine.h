// TRTSim — an ahead-of-time graph compiler standing in for NVIDIA TensorRT
// in the paper's Section 6.4 lowering experiment (no GPU exists here; see
// DESIGN.md's substitution table).
//
// An engine is a lowering, not a second interpreter: it is the ordered pass
// pipeline below applied to a private copy of the segment, run on the same
// planned tape and kernel layer as every other backend.
//   1. clone   — Graph::clone into an engine-owned GraphModule whose root is
//                a fresh, flat module holding the segment's call_module
//                targets (same module objects, flattened qualnames), so the
//                passes below can never rewrite the caller's hierarchy
//   2. fuse    — passes::fuse_conv_bn folds BN into conv weights;
//                passes::fuse_linear_relu moves ReLU into the GEMM epilogue
//                of the preceding Conv2d / Linear
//   3. plan    — passes::compile_planned at the fixed build shape: every
//                intermediate gets a static slot in one pooled arena
//   4. run     — run_planned: a flat tape whose call targets and op-registry
//                entries were resolved at recompile, no per-op dispatch
// Engines are built for a static input shape, exactly like a TensorRT
// engine built for fixed dims. run() is safe to call from many threads at
// once (each run leases its own arena from the plan cache).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/graph_module.h"

namespace fxcpp::trt {

struct EngineStats {
  int plan_ops = 0;                // instructions on the planned tape
  int fused_batchnorms = 0;        // fuse_conv_bn's count
  int fused_relus = 0;             // fuse_linear_relu's count
  std::size_t arena_bytes = 0;     // TapePlan::arena_bytes (after reuse)
  std::size_t unplanned_bytes = 0; // TapePlan::unplanned_bytes (no reuse)
  std::size_t weight_bytes = 0;    // parameters of the modules the tape calls
  // Memory saved by the static planner (the paper's "memory
  // planning/scheduling" requirement for specialized processors, §6.4).
  double planner_saving() const {
    return unplanned_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(arena_bytes) /
                           static_cast<double>(unplanned_bytes);
  }
  std::string to_string() const;
};

class Engine {
 public:
  // Compile `gm` for a fixed input shape. The source GraphModule, its module
  // hierarchy, weights and node meta are never mutated. Throws
  // std::invalid_argument when the graph contains an unsupported node (use
  // lower_to_trtsim() for auto-splitting instead).
  static std::unique_ptr<Engine> build(const fx::GraphModule& gm,
                                       const Shape& input_shape);

  // Execute the plan. `input` must match the build shape.
  Tensor run(const Tensor& input);

  const EngineStats& stats() const { return stats_; }

 private:
  Engine() = default;

  std::shared_ptr<fx::GraphModule> gm_;
  Shape input_shape_;
  EngineStats stats_;
};

// Is this node lowerable to a TRTSim engine? (The operator-support table
// driving the paper's "automatic splitting of the model based on supported
// operators".)
bool is_supported(const fx::GraphModule& gm, const fx::Node& n);

}  // namespace fxcpp::trt
