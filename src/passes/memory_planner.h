// Static memory planner — computes a core TapePlan from the compiled tape.
//
// The planner side of core/memory_plan.h: per-instruction live intervals are
// derived from the tape's register reads (the same use-def info that drives
// Instr::frees), alias-propagated through
// view-producing ops, and packed into one arena by a greedy first-fit over
// freed blocks (`first_fit_pack`: inputs allocated before step 0, per step
// allocate definitions in buffer order *then* free last-uses). TRTSim
// engines (trt/engine.h) are planned by this same pass.
//
// Conservatism rules (what keeps a wrong plan impossible, not just unlikely):
//  - Only ops whose OpInfo::fresh_output trait is set (and a whitelist of nn
//    modules whose kernels materialize new storage) get arena slots. Any
//    other instruction is treated as a view: its output's base set is the
//    union of its inputs' base sets, reads through it extend the bases'
//    lifetimes, and the bases are never considered dead early.
//  - Buffers reachable from the Output instruction escape the run; they are
//    demoted to the heap (arena reuse would mutate values the caller holds).
//  - can_alias in-place reuse additionally requires the input to be the
//    producing instruction's own register (not a view), the same shape and
//    dtype per traced meta, and a live interval that dies exactly at the
//    aliasing instruction.
// Everything else falls back to the heap via the exact-size single-shot
// placement hint (see tensor/tensor.h) — a stale shape meta degrades a
// planned run to heap allocation, never corrupts it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/graph_module.h"
#include "core/memory_plan.h"
#include "core/plan_cache.h"
#include "passes/symbolic_shapes.h"

namespace fxcpp::passes {

// One buffer's lifetime for first_fit_pack. Sizes are in caller units
// (bytes for the tape planner).
struct LiveRange {
  std::int64_t size = 0;
  int def = -1;       // step that materializes it; < 0 = before step 0
  int last_use = -1;  // last step reading it; < 0 or >= num_steps = kept
};

struct FirstFitPacking {
  std::vector<std::int64_t> offsets;  // parallel to the input ranges
  std::int64_t high_water = 0;        // arena size, in the caller's units
};

// Greedy first-fit arena assignment over freed blocks: ranges defined
// before step 0 are allocated first in index order; then per step i, ranges
// with def == i are allocated in index order *before* ranges with
// last_use == i are returned to the free list — so a value consumed and
// produced at the same step never aliases itself. Freeing splits blocks
// first-fit (exact-size blocks are removed, larger ones shrink from the
// front); no coalescing.
FirstFitPacking first_fit_pack(const std::vector<LiveRange>& ranges,
                               int num_steps);

// Compute a memory plan for gm's current tape from the shape/dtype meta on
// its nodes (infer_meta or shape_prop first). Instructions without meta —
// or whose outputs alias inputs or escape through Output — stay on the
// heap. Pure analysis: installs nothing on the module.
std::shared_ptr<const fx::TapePlan> plan_tape(fx::GraphModule& gm);
// The same plan, computed from `meta` instead of node meta (the graph is
// only read). The plan-cache replanner plans each missed signature this
// way, from infer_meta_table at its inputs.
std::shared_ptr<const fx::TapePlan> plan_tape(fx::GraphModule& gm,
                                              const MetaTable& meta);

// One-call planned-mode setup: infers shape/dtype meta from the example
// inputs' shapes with passes::infer_meta (symbolic_shapes.h) — the
// transfer rules, not a forward pass, so the model never runs here — plans
// the tape, sets the module's input guards from that plan, and attaches a
// guard-keyed PlanCache (core/plan_cache.h) seeded with it, together with a
// replanner that plans each new input signature into the cache. Node meta
// and guards stay those of the example inputs; mixed-shape traffic plans
// each distinct signature once and every repeat is a pure cache hit. The
// seeded entry's pool gets its first arena here, which the first planned
// run at the example shape leases; the module itself holds no arena.
// Nodes the rules cannot type (custom ops and their dependents) run from
// the heap. Throws std::invalid_argument naming the node when the example
// inputs' shapes definitely conflict with the graph. Returns the seeded
// entry's plan, valid until that entry is evicted or recompile() clears the
// cache.
const fx::TapePlan& compile_planned(fx::GraphModule& gm,
                                    const std::vector<Tensor>& example_inputs);
// Same, with explicit cache knobs (LRU capacity, batch-dim bucketing,
// per-entry arena pooling). See fx::PlanCacheOptions.
const fx::TapePlan& compile_planned(fx::GraphModule& gm,
                                    const std::vector<Tensor>& example_inputs,
                                    const fx::PlanCacheOptions& cache_opts);

}  // namespace fxcpp::passes
