// Static memory plan for the compiled tape — core data structures.
//
// A TapePlan assigns each instruction's output a slot in one pre-sized
// arena, computed from per-register live intervals (the tape's ref-counted
// last-use info) by passes/memory_planner. The tape consumes the plan:
// before running instruction i it arms a thread-local placement hint
// (Storage::arm_placement) naming the slot, so the kernel's output
// allocation adopts arena memory instead of hitting the heap. The split
// mirrors the repo's layering: plan *computation* (liveness, alias analysis,
// first-fit packing, module classification) needs passes and nn; plan
// *representation and execution* need only core, so they live here.
//
// Safety comes from two properties:
//  - The hint is exact-size and single-shot: a kernel whose actual output
//    size disagrees with the plan (stale meta, shape drift) simply falls
//    back to the heap — a wrong size can slow a planned run down, never
//    corrupt it. Correctness rests only on the liveness/alias analysis.
//  - The plan carries the input contract (GuardSpecs) it was computed
//    under; planned entry points verify it and re-plan on mismatch.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/graph_module.h"
#include "tensor/tensor.h"

namespace fxcpp::fx {

// One planned buffer: the output of tape instruction `def`.
struct PlanInterval {
  int def = -1;          // defining instruction (== index in TapePlan)
  int last_use = -1;     // last instruction reading it (through any alias)
  std::size_t nbytes = 0;  // logical tensor bytes (exact, for the hint)
  std::size_t padded = 0;  // 64-byte padded slot size
  std::size_t offset = 0;  // byte offset in the arena (valid iff planned)
  bool planned = false;    // served from the arena (false = heap)
  bool in_place = false;   // reuses a dead input's slot (can_alias)
  int alias_of = -1;       // interval whose slot this one reuses (in_place)
};

struct TapePlan {
  std::vector<PlanInterval> intervals;  // parallel to CompiledGraph::instrs()
  std::size_t arena_bytes = 0;      // first-fit high water (arena size)
  std::size_t planned_bytes = 0;    // padded bytes served per run
  std::size_t unplanned_bytes = 0;  // sum of all padded output sizes
  int planned_count = 0;            // instructions served from the arena
  int aliased_count = 0;            // of those, in-place reuses
  // Input contract the plan was computed under (one spec per placeholder,
  // in input order; empty shape+Float32 for non-tensor inputs, which are
  // not checked). A mismatch at run entry triggers transparent re-plan.
  std::vector<GuardSpec> guards;

  // Fraction of per-run output bytes the arena absorbs.
  double planned_fraction() const {
    return unplanned_bytes == 0
               ? 0.0
               : static_cast<double>(planned_bytes) /
                     static_cast<double>(unplanned_bytes);
  }
};

// The 64-byte-aligned block planned runs execute into. Backed by one Storage
// so it shows up exactly once in the allocator counters, however many runs
// reuse it.
class MemoryArena {
 public:
  explicit MemoryArena(std::size_t nbytes)
      : backing_(std::make_shared<Storage>(nbytes)) {}
  std::byte* base() { return backing_->data(); }
  std::size_t nbytes() const { return backing_->nbytes(); }

 private:
  std::shared_ptr<Storage> backing_;
};

// RAII placement hint: arms the slot for one instruction, guarantees
// disarm even when the kernel throws (the hint must never leak into the
// next instruction or an unwinding allocation).
class PlacementGuard {
 public:
  PlacementGuard(std::byte* slot, std::size_t nbytes) {
    Storage::arm_placement(slot, nbytes);
  }
  ~PlacementGuard() { Storage::disarm_placement(); }
  PlacementGuard(const PlacementGuard&) = delete;
  PlacementGuard& operator=(const PlacementGuard&) = delete;
};

// Do `inputs` satisfy the contract the plan was computed under? Non-tensor
// inputs and specs with empty placeholder names pass trivially; any shape
// or dtype difference (or arity mismatch) fails.
bool plan_matches_inputs(const TapePlan& plan,
                         const std::vector<RtValue>& inputs);

}  // namespace fxcpp::fx
