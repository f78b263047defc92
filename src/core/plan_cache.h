// Guard-keyed multi-plan cache for dynamic input shapes.
//
// The replanner (passes::compile_planned) makes planned execution shape-
// polymorphic: it plans the tape at given inputs — shape inference over the
// graph (passes::infer_meta_table) plus alias analysis plus first-fit
// packing — and returns the plan without touching the module. This cache is
// the only place plans live. Production traffic has a few hot shapes; the
// cache maps an input-shape signature (the same shape/dtype facts the
// GuardSpecs pin) to a fully specialized planned tape, so mixed-shape
// traffic plans each distinct signature once and then never again on the
// hot path. A cache hit performs a signature hash plus a guard check — zero
// planning work.
//
// Keying. The signature is the canonical rendering of each input's dtype and
// dims ("f32[8,16];f32[8]"); non-tensor inputs contribute an unchecked tag.
// With bucketing enabled (PlanCacheOptions::bucket_batch_dim), dim 0 of every
// tensor input is rounded up to the next power-of-two bucket before keying
// ("f32[~16,64]"), so a long tail of batch sizes collapses into a bounded
// set of entries. Degenerate batches do not alias: a dim-0 of 0 keys to its
// own "~0" bucket (never rounded up into the 1..bucket_min bucket), so the
// empty-tensor requests a dynamic batcher generates can't be served by a
// plan specialized at batch >= 1. A bucketed entry's plan is specialized at the bucket's
// rounded-up canonical shape where the graph admits it; smaller batches in
// the bucket still execute that plan *safely* — the planner's exact-size
// single-shot placement hint means any instruction whose actual output size
// disagrees with the planned slot simply falls back to the heap, it never
// corrupts (see core/memory_plan.h). Such serves are counted as bucket_hits.
//
// Concurrency & eviction safety. The cache is internally synchronized, and
// entries are handed out as shared_ptrs: evicting an entry only drops the
// cache's reference, so threads still executing an evicted plan keep both
// the plan and any leased arena alive until they finish. Each entry pools a
// small number of arenas (acquire_arena/release_arena), so concurrent runs
// of the same plan never share arena bytes and steady-state hits allocate
// nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/memory_plan.h"

namespace fxcpp::fx {

struct PlanCacheOptions {
  // LRU bound on cached specializations (>= 1; excess insertions evict the
  // least recently used entry).
  std::size_t capacity = 8;
  // Round dim 0 of every tensor input up to the next power-of-two bucket
  // (at least bucket_min) when deriving the signature. Off = exact match.
  bool bucket_batch_dim = false;
  std::int64_t bucket_min = 1;
  // Arenas pooled per entry; concurrency beyond this allocates transient
  // arenas instead of blocking.
  std::size_t max_arenas_per_entry = 4;
};

// Per-entry slice of the aggregate stats (see PlanCacheStats::per_entry).
struct PlanCacheEntryStats {
  std::string signature;
  std::uint64_t hits = 0;
  std::uint64_t bucket_hits = 0;  // hits whose exact shape differed from the
                                  // plan's guards (bucketed keying only)
  std::size_t arena_bytes = 0;
  int planned_count = 0;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;         // signature matches (includes bucket_hits)
  std::uint64_t bucket_hits = 0;  // hits served by a bucket-canonical plan
  std::uint64_t misses = 0;       // lookups with no entry for the signature
  std::uint64_t replans = 0;      // plans inserted (one planning pass each)
  std::uint64_t evictions = 0;    // entries dropped by the LRU bound
  std::size_t entries = 0;        // current size
  std::vector<PlanCacheEntryStats> per_entry;  // MRU -> LRU order

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
  // Machine-readable dump; embedded in the profiler's summary JSON.
  std::string to_json() const;
};

// One cached specialization: an immutable plan plus a pool of arenas sized
// for it. Held by shared_ptr so eviction is safe under running threads.
class PlanCacheEntry {
 public:
  PlanCacheEntry(std::string signature, std::shared_ptr<const TapePlan> plan,
                 std::size_t max_arenas);

  const std::shared_ptr<const TapePlan>& plan() const { return plan_; }
  const std::string& signature() const { return signature_; }

  // Lease an arena for one run: pops from the pool or allocates a fresh one
  // sized plan()->arena_bytes. Return it with release_arena when the run's
  // outputs no longer live in it (planned outputs that escape are heap-held,
  // so "when the run returns" is always safe).
  std::shared_ptr<MemoryArena> acquire_arena();
  void release_arena(std::shared_ptr<MemoryArena> arena);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_hits() const {
    return bucket_hits_.load(std::memory_order_relaxed);
  }

 private:
  friend class PlanCache;
  std::string signature_;
  std::shared_ptr<const TapePlan> plan_;
  std::size_t max_arenas_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> bucket_hits_{0};
  std::mutex pool_mu_;
  std::vector<std::shared_ptr<MemoryArena>> pool_;
};

// RAII arena lease: acquire on construction, release on destruction even
// when the run throws.
class ArenaLease {
 public:
  explicit ArenaLease(const std::shared_ptr<PlanCacheEntry>& entry)
      : entry_(entry), arena_(entry->acquire_arena()) {}
  ~ArenaLease() { entry_->release_arena(std::move(arena_)); }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;
  std::byte* base() { return arena_->base(); }

 private:
  std::shared_ptr<PlanCacheEntry> entry_;
  std::shared_ptr<MemoryArena> arena_;
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions opts = {});

  // Canonical signature of an input vector under this cache's keying rules.
  std::string signature_of(const std::vector<RtValue>& inputs) const;
  // Signature derived from a plan's input contract (named specs only);
  // empty when any spec is unnamed. Used by the plan.cache-coherence rule
  // to cross-check that an entry's key and its guards agree.
  std::string signature_of_guards(const std::vector<GuardSpec>& guards) const;

  // Counted lookup: returns the entry for inputs' signature and marks it
  // most recently used, or nullptr on a miss. A hit whose exact shapes
  // differ from the entry plan's guards (bucketed keying) still returns the
  // entry and is additionally counted as a bucket hit.
  std::shared_ptr<PlanCacheEntry> lookup(const std::vector<RtValue>& inputs);
  // Uncounted peek by signature (double-checked locking on the miss path).
  std::shared_ptr<PlanCacheEntry> peek(const std::string& signature) const;

  // Insert (or replace) the entry for inputs' signature, evicting LRU
  // entries above capacity. Counted as one replan. Returns the new entry.
  std::shared_ptr<PlanCacheEntry> insert(const std::vector<RtValue>& inputs,
                                         std::shared_ptr<const TapePlan> plan);

  // The inputs' shapes at the signature's canonical planning point: dim 0
  // rounded up to the bucket (identity when bucketing is off). Returns false
  // — and leaves `out` untouched — when any input is a non-tensor, in which
  // case callers plan at the exact inputs instead.
  bool canonical_inputs(const std::vector<RtValue>& inputs,
                        std::vector<Tensor>* out) const;

  PlanCacheStats stats() const;
  std::size_t size() const;
  void clear();
  // Shrinks (evicting LRU entries) or grows the bound; capacity >= 1.
  void set_capacity(std::size_t capacity);
  PlanCacheOptions options() const;  // copy (capacity may change under us)

  // Snapshot of the live entries, MRU first (verifier rule + tests).
  std::vector<std::shared_ptr<PlanCacheEntry>> entries() const;

 private:
  std::int64_t bucket_dim(std::int64_t d) const;
  std::string render_signature(
      const std::vector<std::pair<Shape, DType>>& shapes,
      const std::vector<bool>& is_tensor) const;
  void evict_over_capacity_locked();

  PlanCacheOptions opts_;
  mutable std::mutex mu_;
  // front = most recently used.
  std::list<std::shared_ptr<PlanCacheEntry>> lru_;
  std::unordered_map<std::string,
                     std::list<std::shared_ptr<PlanCacheEntry>>::iterator>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t bucket_hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t replans_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace fxcpp::fx
