#include "tensor/pack_cache.h"

#include <algorithm>
#include <atomic>

#include "kernels/kernels.h"

namespace fxcpp {

namespace {

// Process-wide mirrors of the per-thread counters (relaxed: diagnostics).
std::atomic<std::int64_t> g_hits{0};
std::atomic<std::int64_t> g_misses{0};
std::atomic<std::int64_t> g_panel_hits{0};
std::atomic<std::int64_t> g_panel_misses{0};

// Rows/cols of the 2-D matrix interpretation used by the panel packs.
std::int64_t panel_rows(const Tensor& w) {
  return w.dim() > 0 ? w.sizes()[0] : 1;
}
std::int64_t panel_cols(const Tensor& w) {
  const std::int64_t rows = panel_rows(w);
  return rows > 0 ? w.numel() / rows : 0;
}

}  // namespace

PackCache& PackCache::local() {
  thread_local PackCache cache;
  return cache;
}

Tensor PackCache::packed_weight(const Tensor& w) {
  if (!w.defined() || w.is_contiguous()) return w;
  const std::uintptr_t id = w.storage_id();
  const std::uint64_t version = w.storage_version();
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    Entry& e = it->second;
    // Same storage — but only a hit if nothing moved underneath: the bytes
    // (version) and the view geometry must both still match. Two live views
    // of one storage alternate into repacks, which is slow but never wrong.
    if (e.version == version && e.source.sizes() == w.sizes() &&
        e.source.strides() == w.strides() &&
        e.source.storage_offset() == w.storage_offset()) {
      ++stats_.hits;
      g_hits.fetch_add(1, std::memory_order_relaxed);
      return e.packed;
    }
    ++stats_.repacks;
    ++stats_.misses;
    g_misses.fetch_add(1, std::memory_order_relaxed);
    e.source = w;
    e.packed = w.contiguous();
    e.version = version;
    return e.packed;
  }
  ++stats_.misses;
  g_misses.fetch_add(1, std::memory_order_relaxed);
  drop_dead_entries();
  Entry e;
  e.source = w;
  e.packed = w.contiguous();
  e.version = version;
  entries_.emplace(id, std::move(e));
  insertion_order_.push_back(id);
  evict_to_capacity();
  auto found = entries_.find(id);
  return found != entries_.end() ? found->second.packed : w.contiguous();
}

template <typename PackFn>
PackCache::PanelEntry PackCache::panel_lookup(const Tensor& w, int kind,
                                              int mr, PackFn&& pack) {
  const PanelKey key{w.storage_id(), kind, mr};
  const std::uint64_t version = w.storage_version();
  auto it = panel_entries_.find(key);
  if (it != panel_entries_.end()) {
    PanelEntry& e = it->second;
    if (e.version == version && e.source.sizes() == w.sizes() &&
        e.source.strides() == w.strides() &&
        e.source.storage_offset() == w.storage_offset()) {
      ++stats_.panel_hits;
      g_panel_hits.fetch_add(1, std::memory_order_relaxed);
      return e;
    }
    ++stats_.panel_repacks;
    ++stats_.panel_misses;
    g_panel_misses.fetch_add(1, std::memory_order_relaxed);
    stats_.panel_bytes -= e.bytes;
    e = pack();
    e.version = version;
    stats_.panel_bytes += e.bytes;
    return e;
  }
  ++stats_.panel_misses;
  g_panel_misses.fetch_add(1, std::memory_order_relaxed);
  drop_dead_entries();
  PanelEntry e = pack();
  e.version = version;
  stats_.panel_bytes += e.bytes;
  PanelEntry out = e;  // survives even if the fresh entry is evicted below
  panel_entries_.emplace(key, std::move(e));
  panel_insertion_order_.push_back(key);
  evict_panels_to_capacity();
  return out;
}

std::shared_ptr<const std::vector<float>> PackCache::panel_b_f32_nt(
    const Tensor& w) {
  const std::int64_t n = panel_rows(w);
  const std::int64_t k = panel_cols(w);
  const PanelEntry e =
      panel_lookup(w, kPanelBF32Nt, 0, [&]() {
        const Tensor wc = packed_weight(w);
        auto buf = std::make_shared<std::vector<float>>(
            kernels::packed_b_f32_size(k, n));
        kernels::pack_b_f32_nt(wc.data<float>(), k, k, n, buf->data());
        PanelEntry fresh;
        fresh.source = w;
        fresh.bytes = buf->size() * sizeof(float);
        fresh.f32 = std::move(buf);
        return fresh;
      });
  return e.f32;
}

std::shared_ptr<const std::vector<float>> PackCache::panel_a_f32(
    const Tensor& w, int mr) {
  const std::int64_t m = panel_rows(w);
  const std::int64_t k = panel_cols(w);
  const PanelEntry e =
      panel_lookup(w, kPanelAF32, mr, [&]() {
        const Tensor wc = packed_weight(w);
        auto buf = std::make_shared<std::vector<float>>(
            kernels::packed_a_f32_size(m, k, mr));
        kernels::pack_a_f32(wc.data<float>(), k, m, k, mr, buf->data());
        PanelEntry fresh;
        fresh.source = w;
        fresh.bytes = buf->size() * sizeof(float);
        fresh.f32 = std::move(buf);
        return fresh;
      });
  return e.f32;
}

std::shared_ptr<const std::vector<std::int8_t>> PackCache::panel_b_s8_nt(
    const Tensor& w) {
  const std::int64_t n = panel_rows(w);
  const std::int64_t k = panel_cols(w);
  const PanelEntry e =
      panel_lookup(w, kPanelBS8Nt, 0, [&]() {
        const Tensor wc = packed_weight(w);
        auto buf = std::make_shared<std::vector<std::int8_t>>(
            kernels::packed_b_s8_size(k, n));
        kernels::pack_b_s8_nt(wc.data<std::int8_t>(), k, k, n, buf->data());
        PanelEntry fresh;
        fresh.source = w;
        fresh.bytes = buf->size();
        fresh.s8 = std::move(buf);
        return fresh;
      });
  return e.s8;
}

float* PackCache::workspace(std::size_t count) {
  if (workspace_.size() < count) workspace_.resize(count);
  stats_.workspace_floats = workspace_.size();
  return workspace_.data();
}

float* PackCache::panel_workspace(std::size_t count) {
  if (panel_workspace_.size() < count) panel_workspace_.resize(count);
  return panel_workspace_.data();
}

std::int8_t* PackCache::workspace_s8(std::size_t count) {
  if (workspace_s8_.size() < count) workspace_s8_.resize(count);
  return workspace_s8_.data();
}

std::int8_t* PackCache::panel_workspace_s8(std::size_t count) {
  if (panel_workspace_s8_.size() < count) panel_workspace_s8_.resize(count);
  return panel_workspace_s8_.data();
}

PackCache::GlobalStats PackCache::global_stats() {
  GlobalStats g;
  g.hits = g_hits.load(std::memory_order_relaxed);
  g.misses = g_misses.load(std::memory_order_relaxed);
  g.panel_hits = g_panel_hits.load(std::memory_order_relaxed);
  g.panel_misses = g_panel_misses.load(std::memory_order_relaxed);
  return g;
}

void PackCache::clear() {
  entries_.clear();
  insertion_order_.clear();
  panel_entries_.clear();
  panel_insertion_order_.clear();
  workspace_.clear();
  workspace_.shrink_to_fit();
  panel_workspace_.clear();
  panel_workspace_.shrink_to_fit();
  workspace_s8_.clear();
  workspace_s8_.shrink_to_fit();
  panel_workspace_s8_.clear();
  panel_workspace_s8_.shrink_to_fit();
  stats_ = Stats{};
}

void PackCache::set_capacity(std::size_t max_entries) {
  capacity_ = max_entries;
  evict_to_capacity();
  evict_panels_to_capacity();
}

void PackCache::drop_dead_entries() {
  // A storage is dead when every reference to it is one of our entries'
  // sources (a plain entry and panel entries of several kinds can share it).
  std::unordered_map<std::uintptr_t, long> held;
  for (const auto& [id, e] : entries_) ++held[id];
  for (const auto& [key, e] : panel_entries_) ++held[key.id];
  const auto dead = [&](const Tensor& source) {
    return source.storage_use_count() <= held[source.storage_id()];
  };
  std::erase_if(entries_,
                [&](const auto& kv) { return dead(kv.second.source); });
  std::erase_if(panel_entries_, [&](const auto& kv) {
    if (!dead(kv.second.source)) return false;
    stats_.panel_bytes -= kv.second.bytes;
    return true;
  });
  std::erase_if(insertion_order_,
                [&](std::uintptr_t id) { return !entries_.contains(id); });
  std::erase_if(panel_insertion_order_,
                [&](const PanelKey& k) { return !panel_entries_.contains(k); });
}

void PackCache::evict_to_capacity() {
  while (entries_.size() > capacity_ && !insertion_order_.empty()) {
    const std::uintptr_t victim = insertion_order_.front();
    insertion_order_.erase(insertion_order_.begin());
    if (entries_.erase(victim) > 0) ++stats_.evictions;
  }
}

void PackCache::evict_panels_to_capacity() {
  while (panel_entries_.size() > capacity_ &&
         !panel_insertion_order_.empty()) {
    const PanelKey victim = panel_insertion_order_.front();
    panel_insertion_order_.erase(panel_insertion_order_.begin());
    auto it = panel_entries_.find(victim);
    if (it != panel_entries_.end()) {
      stats_.panel_bytes -= it->second.bytes;
      panel_entries_.erase(it);
      ++stats_.evictions;
    }
  }
}

}  // namespace fxcpp
