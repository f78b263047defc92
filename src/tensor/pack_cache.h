// Per-thread cache of packed GEMM weights and activation scratch space.
//
// Eager dispatch re-derives kernel-private data on every call: `linear` and
// `conv2d` materialize a contiguous ("packed" row-major) copy of any
// non-contiguous weight per forward, and `conv2d` needs scratch for its
// input's B panels and its staged output on every call. Once a program is
// captured as a graph, the weights are module state with stable identity
// across runs (the paper's Section 2.3 point: fx keeps parameters out of
// the IR, in Modules), so the packing can be computed once and reused until
// the weight actually mutates.
//
// Beyond the original contiguize cache ("plain" packs), the cache holds
// micro-kernel panel packs for the kernels layer (src/kernels): fp32 B
// panels (B = W^T, nn.Linear orientation), fp32 prepacked A strips (conv
// weights as the GEMM left-hand side; keyed by the strip height mr, which
// differs per ISA tier), and int8 quad panels for the quantized paths.
// Panel entries are shared_ptr-owned so an eviction or clear() can never
// free a buffer a caller is still reading from. Only weights are ever
// cached — activations go through the per-call workspaces below.
//
// The cache is thread-local: each thread running planned or unplanned tapes
// keeps its own entries, so lookups take no locks and the cache is trivially race-free
// under TSan. Entries are keyed by storage identity and validated against
// the storage's mutation version (Storage::version(), bumped by every
// in-place tensor mutation) plus the view geometry — mutate a weight and the
// next lookup silently re-packs. Each entry retains the source tensor, so a
// storage address can never be recycled into a stale key while its entry
// lives. Every miss first drops the entries whose source storage this cache
// alone still owns (the weight is gone, e.g. an earlier build of a model),
// so dead weights are not pinned; a weight that other threads' caches also
// hold stays until the FIFO capacity bound, the backstop that keeps
// pathological many-weight workloads from pinning unbounded memory.
// Aggregated hit/miss counts are additionally mirrored into process-wide
// atomics (global_stats()) so the profiler and serving stats can report
// cache behavior across all worker threads.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace fxcpp {

class PackCache {
 public:
  // The calling thread's cache.
  static PackCache& local();

  // Contiguous row-major view of `w`, suitable for the GEMM/conv kernels.
  // Already-contiguous weights pass through untouched (no cache traffic);
  // non-contiguous weights are packed once per (storage identity, version,
  // geometry) and the cached pack is returned on subsequent calls.
  Tensor packed_weight(const Tensor& w);

  // --- micro-kernel panel packs (see src/kernels/kernels.h layouts) -------
  // All three treat `w` as a 2-D matrix [rows = sizes()[0], cols = rest]
  // (nn.Linear weights are [out, in]; conv weights [O, C*kh*kw]), packing
  // from a contiguous copy when needed. Hits require identical storage
  // version and view geometry, like packed_weight.

  // fp32 B panels of W^T: kernels::pack_b_f32_nt (tier-independent layout).
  std::shared_ptr<const std::vector<float>> panel_b_f32_nt(const Tensor& w);
  // fp32 prepacked A strips at strip height `mr` (pass kernels::gemm_f32_mr();
  // the key includes mr, so a tier switch re-packs instead of misreading).
  std::shared_ptr<const std::vector<float>> panel_a_f32(const Tensor& w,
                                                        int mr);
  // int8 quad panels of W^T: kernels::pack_b_s8_nt.
  std::shared_ptr<const std::vector<std::int8_t>> panel_b_s8_nt(
      const Tensor& w);

  // Grow-only float scratch buffer: conv2d's staging buffer, the
  // [O, g*oh*ow] GEMM output of a column block that holds g > 1 images,
  // before it is scattered into NCHW. Returns a pointer valid until the
  // next workspace() call with a larger count, or clear(). Contents are
  // unspecified on entry.
  float* workspace(std::size_t count);
  // A second, independent float scratch buffer for per-call B panels: the
  // current column block of conv2d's input, matmul's activation rhs. conv2d
  // needs it and the staging buffer alive at the same time.
  float* panel_workspace(std::size_t count);
  // int8 scratch buffers for the quantized paths (same lifetime rules).
  std::int8_t* workspace_s8(std::size_t count);
  std::int8_t* panel_workspace_s8(std::size_t count);

  struct Stats {
    std::int64_t hits = 0;       // packed_weight served from cache
    std::int64_t misses = 0;     // packed_weight had to pack
    std::int64_t repacks = 0;    // misses caused by a version/geometry change
    std::int64_t evictions = 0;  // entries dropped by the capacity bound
    std::size_t workspace_floats = 0;  // current workspace size
    // Panel-pack counters (micro-kernel layer), split from the plain
    // contiguize counters above.
    std::int64_t panel_hits = 0;
    std::int64_t panel_misses = 0;
    std::int64_t panel_repacks = 0;
    std::size_t panel_bytes = 0;  // bytes held by live panel entries
  };
  const Stats& stats() const { return stats_; }

  // Process-wide aggregation of hits/misses across every thread's cache
  // (monotonic; unaffected by per-thread clear()). Snapshot is approximate
  // under concurrent mutation — fine for diagnostics.
  struct GlobalStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t panel_hits = 0;
    std::int64_t panel_misses = 0;
  };
  static GlobalStats global_stats();

  // Drop all entries and the workspaces; per-thread stats reset too.
  void clear();

  // Capacity bound on cached packs (separately for plain and panel
  // entries). Shrinking evicts oldest. The default holds two planned
  // ResNet-50 weight sets (54 panel entries each) on one thread, so a
  // caller alternating between two fused copies of a model never repacks.
  static constexpr std::size_t kDefaultCapacity = 256;
  void set_capacity(std::size_t max_entries);
  std::size_t size() const { return entries_.size(); }
  std::size_t panel_size() const { return panel_entries_.size(); }

 private:
  struct Entry {
    Tensor source;  // pins the storage so its address cannot be recycled
    Tensor packed;
    std::uint64_t version = 0;
  };

  // (storage id, pack kind, mr) — mr is 0 for B-panel kinds.
  struct PanelKey {
    std::uintptr_t id = 0;
    int kind = 0;
    int mr = 0;
    bool operator==(const PanelKey&) const = default;
  };
  struct PanelKeyHash {
    std::size_t operator()(const PanelKey& k) const {
      std::size_t h = std::hash<std::uintptr_t>{}(k.id);
      h ^= std::hash<int>{}(k.kind) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      h ^= std::hash<int>{}(k.mr) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return h;
    }
  };
  struct PanelEntry {
    Tensor source;
    std::uint64_t version = 0;
    std::shared_ptr<const std::vector<float>> f32;
    std::shared_ptr<const std::vector<std::int8_t>> s8;
    std::size_t bytes = 0;
  };

  enum PanelKind : int { kPanelBF32Nt = 0, kPanelAF32 = 1, kPanelBS8Nt = 2 };

  // Shared lookup/validate/insert for the three panel kinds; `pack` fills a
  // fresh PanelEntry when (re)packing is needed. Returns by value (two
  // shared_ptr copies) so an immediate eviction can never dangle.
  template <typename PackFn>
  PanelEntry panel_lookup(const Tensor& w, int kind, int mr, PackFn&& pack);

  // Drops every plain and panel entry whose source storage has no owner but
  // this cache's entries. Called on a miss, before inserting.
  void drop_dead_entries();
  void evict_to_capacity();
  void evict_panels_to_capacity();

  std::unordered_map<std::uintptr_t, Entry> entries_;
  std::vector<std::uintptr_t> insertion_order_;  // FIFO eviction order
  std::unordered_map<PanelKey, PanelEntry, PanelKeyHash> panel_entries_;
  std::vector<PanelKey> panel_insertion_order_;
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<float> workspace_;
  std::vector<float> panel_workspace_;
  std::vector<std::int8_t> workspace_s8_;
  std::vector<std::int8_t> panel_workspace_s8_;
  Stats stats_;
};

}  // namespace fxcpp
