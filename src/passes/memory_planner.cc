#include "passes/memory_planner.h"

#include <algorithm>
#include <cstddef>

#include "analysis/dataflow.h"  // alias_summary: shared freshness/lifetime facts
#include "tensor/dtype.h"

namespace fxcpp::passes {

using fx::CompiledGraph;
using fx::GraphModule;
using fx::GuardSpec;
using fx::Instr;
using fx::Opcode;
using fx::PlanInterval;
using fx::RtValue;
using fx::TapePlan;

FirstFitPacking first_fit_pack(const std::vector<LiveRange>& ranges,
                               int num_steps) {
  struct Block {
    std::int64_t off, size;
  };
  FirstFitPacking out;
  out.offsets.assign(ranges.size(), -1);
  std::vector<Block> free_blocks;
  auto alloc = [&](std::int64_t size) {
    for (std::size_t i = 0; i < free_blocks.size(); ++i) {
      if (free_blocks[i].size >= size) {
        const std::int64_t off = free_blocks[i].off;
        if (free_blocks[i].size == size) {
          free_blocks.erase(free_blocks.begin() +
                            static_cast<std::ptrdiff_t>(i));
        } else {
          free_blocks[i].off += size;
          free_blocks[i].size -= size;
        }
        return off;
      }
    }
    const std::int64_t off = out.high_water;
    out.high_water += size;
    return off;
  };

  // Buffers live before the first step (graph inputs) get memory first.
  for (std::size_t b = 0; b < ranges.size(); ++b) {
    if (ranges[b].def < 0 && out.offsets[b] < 0) {
      out.offsets[b] = alloc(ranges[b].size);
    }
  }
  for (int i = 0; i < num_steps; ++i) {
    // Allocate outputs defined at step i...
    for (std::size_t b = 0; b < ranges.size(); ++b) {
      if (ranges[b].def == i && out.offsets[b] < 0) {
        out.offsets[b] = alloc(ranges[b].size);
      }
    }
    // ...then free buffers whose last use is step i.
    for (std::size_t b = 0; b < ranges.size(); ++b) {
      if (ranges[b].last_use == i && out.offsets[b] >= 0) {
        free_blocks.push_back(Block{out.offsets[b], ranges[b].size});
      }
    }
  }
  return out;
}

namespace {

std::size_t meta_nbytes(const TensorMeta* m) {
  if (!m) return 0;
  std::int64_t numel = 1;
  for (std::int64_t d : m->shape) {
    if (d < 0) return 0;  // symbolic / unknown dimension
    numel *= d;
  }
  return static_cast<std::size_t>(numel) * dtype_size(m->dtype);
}

// Slot granularity: matches Storage's own 64-byte padding, so adjacent
// slots never share a cache line and an adopting allocation's padded tail
// stays inside its slot.
constexpr std::size_t kSlotAlign = 64;

std::size_t pad_slot(std::size_t nbytes) {
  const std::size_t p = (nbytes + kSlotAlign - 1) / kSlotAlign * kSlotAlign;
  return p == 0 ? kSlotAlign : p;
}

bool meta_matches(const TensorMeta* a, const TensorMeta* b) {
  return a && b && a->shape == b->shape && a->dtype == b->dtype;
}

}  // namespace

std::shared_ptr<const TapePlan> plan_tape(GraphModule& gm) {
  MetaTable meta;
  for (const fx::Node* node : gm.graph().nodes()) {
    if (node->has_shape() && node->has_meta("dtype")) {
      meta.emplace(node, TensorMeta{node->shape(), node->dtype()});
    }
  }
  return plan_tape(gm, meta);
}

std::shared_ptr<const TapePlan> plan_tape(GraphModule& gm,
                                          const MetaTable& meta) {
  if (!gm.compiled()) gm.recompile();
  auto meta_of = [&](const fx::Node* node) -> const TensorMeta* {
    const auto it = meta.find(node);
    return it == meta.end() ? nullptr : &it->second;
  };
  const CompiledGraph& cg = gm.compiled_graph();
  const auto& instrs = cg.instrs();
  const int n = static_cast<int>(instrs.size());

  // Pass 1 — alias facts from the shared dataflow layer (analysis/dataflow.h).
  // Summary entries are the graph's non-placeholder nodes in graph order,
  // which is exactly the tape's instruction order: summary index i IS
  // instruction i. Freshness, base sets, lifetimes, and escapes all
  // come from the one analysis the verifier and fxlint --analyze also run,
  // so the planner can never disagree with them.
  const analysis::AliasSummary aliases =
      analysis::alias_summary(gm.graph(), &gm);

  auto plan = std::make_shared<TapePlan>();
  plan->intervals.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    PlanInterval& iv = plan->intervals[iu];
    iv.def = i;
    iv.last_use = aliases.last_use[iu];
  }

  // Planned candidacy: fresh output, known static size, does not escape.
  std::vector<bool> candidate(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (!aliases.fresh[iu]) continue;
    const std::size_t nb = meta_nbytes(meta_of(instrs[iu].node));
    if (nb == 0) continue;
    plan->intervals[iu].nbytes = nb;
    plan->intervals[iu].padded = pad_slot(nb);
    plan->unplanned_bytes += pad_slot(nb);
    candidate[iu] = !aliases.escaped[iu];
  }

  // Pass 2 — in-place merging (can_alias). Instruction i may write over
  // input j's slot when:
  //  (a) j is read directly (not through a view), is a planned candidate,
  //      and its interval dies exactly at i;
  //  (b) i's and j's traced shape/dtype match (the kernels' index-aligned
  //      path: o[k] is written only after pa[k] is read);
  //  (c) every OTHER tensor operand of i is itself a directly-read fresh
  //      instruction output (AliasSummary::direct_fresh). Fresh kernel
  //      outputs are always contiguous, so no operand triggers a defensive
  //      .contiguous() copy inside i's kernel — such a copy could be
  //      slot-sized and would adopt the armed hint, clobbering j's live
  //      bytes before the kernel reads them.
  std::vector<int> alias_root(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) alias_root[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (!candidate[iu]) continue;
    const Instr& ins = instrs[iu];
    if (ins.op != Opcode::CallFunction && ins.op != Opcode::CallMethod)
      continue;
    if (!ins.fn || !ins.fn->can_alias) continue;
    // (c): every operand must be a directly-read fresh instruction output.
    // Placeholder / get_attr operands (absent from or external in the
    // summary) fail the test, exactly as their empty base sets used to.
    std::vector<int> operand_entries;
    bool all_direct_fresh = true;
    for (const fx::Node* in : aliases.order[iu]->input_nodes()) {
      const auto it = aliases.index.find(in);
      if (it == aliases.index.end() || !aliases.direct_fresh(it->second)) {
        all_direct_fresh = false;
        break;
      }
      operand_entries.push_back(it->second);
    }
    if (!all_direct_fresh) continue;
    for (int j : operand_entries) {
      const auto ju = static_cast<std::size_t>(j);
      if (!candidate[ju]) continue;
      if (plan->intervals[ju].last_use != i) continue;  // must die here
      if (!meta_matches(meta_of(ins.node), meta_of(instrs[ju].node))) {
        continue;
      }
      alias_root[iu] = alias_root[ju];
      plan->intervals[iu].in_place = true;
      plan->intervals[iu].alias_of = j;
      break;
    }
  }

  // Pass 3 — pack the alias-merged live ranges first-fit into one arena.
  // Ranges are created in def order (an alias chain's root always precedes
  // its members), so index order == allocation order, exactly like the TRT
  // prototype this routine was extracted from.
  std::vector<LiveRange> ranges;
  std::vector<int> range_of(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (!candidate[iu]) continue;
    const int root = alias_root[iu];
    if (root == i) {
      range_of[iu] = static_cast<int>(ranges.size());
      ranges.push_back(
          LiveRange{static_cast<std::int64_t>(plan->intervals[iu].padded), i,
                    plan->intervals[iu].last_use});
    } else {
      const int ri = range_of[static_cast<std::size_t>(root)];
      ranges[static_cast<std::size_t>(ri)].last_use =
          std::max(ranges[static_cast<std::size_t>(ri)].last_use,
                   plan->intervals[iu].last_use);
      range_of[iu] = ri;
    }
  }
  const FirstFitPacking packed = first_fit_pack(ranges, n);
  plan->arena_bytes = static_cast<std::size_t>(packed.high_water);
  for (int i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (!candidate[iu]) continue;
    PlanInterval& iv = plan->intervals[iu];
    iv.offset = static_cast<std::size_t>(
        packed.offsets[static_cast<std::size_t>(range_of[iu])]);
    iv.planned = true;
    plan->planned_bytes += iv.padded;
    ++plan->planned_count;
    if (iv.in_place) ++plan->aliased_count;
  }

  // Input contract: one spec per placeholder; meta-less placeholders get an
  // unnamed (unchecked) spec, and their downstream nodes have no meta either
  // so nothing unsound is planned from them.
  plan->guards.reserve(cg.input_nodes().size());
  for (const fx::Node* pn : cg.input_nodes()) {
    GuardSpec g;
    if (const TensorMeta* m = meta_of(pn)) {
      g.placeholder = pn->name();
      g.shape = m->shape;
      g.dtype = m->dtype;
    }
    plan->guards.push_back(std::move(g));
  }
  return plan;
}

const TapePlan& compile_planned(GraphModule& gm,
                                const std::vector<Tensor>& example_inputs) {
  return compile_planned(gm, example_inputs, fx::PlanCacheOptions{});
}

const TapePlan& compile_planned(GraphModule& gm,
                                const std::vector<Tensor>& example_inputs,
                                const fx::PlanCacheOptions& cache_opts) {
  infer_meta(gm, example_inputs);
  std::shared_ptr<const TapePlan> plan = plan_tape(gm);
  // Mirror the plan's input contract onto the module's resilience guards
  // when every placeholder has a named spec; unnamed specs mean
  // non-tensor or meta-less placeholders, which strict guards can't express.
  // Meta and guards stay those of the example inputs: a later miss plans
  // into the cache only.
  if (std::all_of(plan->guards.begin(), plan->guards.end(),
                  [](const GuardSpec& g) { return !g.placeholder.empty(); })) {
    gm.set_guards(plan->guards);
  }
  // Seed the cache with the example-shape specialization so the first real
  // request at the traced shape is already a hit.
  auto cache = std::make_shared<fx::PlanCache>(cache_opts);
  std::vector<RtValue> example_rt(example_inputs.begin(), example_inputs.end());
  const std::shared_ptr<fx::PlanCacheEntry> seeded =
      cache->insert(example_rt, std::move(plan));
  // Pool the seeded entry's first arena now; the first run at the example
  // shape leases it rather than allocating its own.
  seeded->release_arena(seeded->acquire_arena());
  // The replanner makes planned entry points shape-polymorphic: on a miss
  // it plans at the actual inputs from its own meta table, reading the
  // graph only (stateless, so it survives recompile()). Non-tensor inputs
  // get no plan and run unplanned.
  gm.set_plan_cache(
      std::move(cache),
      [](GraphModule& g, const std::vector<RtValue>& inputs)
          -> std::shared_ptr<const TapePlan> {
        std::vector<Tensor> ts;
        ts.reserve(inputs.size());
        for (const RtValue& v : inputs) {
          if (!fx::rt_is_tensor(v)) return nullptr;
          ts.push_back(fx::rt_tensor(v));
        }
        return plan_tape(g, infer_meta_table(g, ts));
      });
  return *seeded->plan();
}

}  // namespace fxcpp::passes
