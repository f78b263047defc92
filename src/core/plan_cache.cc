#include "core/plan_cache.h"

#include <algorithm>
#include <sstream>

#include "core/json.h"
#include "tensor/dtype.h"

namespace fxcpp::fx {

// ---------------------------------------------------------------------------
// PlanCacheStats
// ---------------------------------------------------------------------------

std::string PlanCacheStats::to_json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"hits\": " << hits << ", \"bucket_hits\": " << bucket_hits
     << ", \"misses\": " << misses << ", \"replans\": " << replans
     << ", \"evictions\": " << evictions << ", \"entries\": " << entries
     << ", \"hit_rate\": " << hit_rate() << ", \"per_entry\": [";
  for (std::size_t i = 0; i < per_entry.size(); ++i) {
    const PlanCacheEntryStats& e = per_entry[i];
    os << (i ? ", " : "") << "{\"signature\": \"" << json_escape(e.signature)
       << "\", \"hits\": " << e.hits << ", \"bucket_hits\": " << e.bucket_hits
       << ", \"arena_bytes\": " << e.arena_bytes
       << ", \"planned_count\": " << e.planned_count << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// PlanCacheEntry
// ---------------------------------------------------------------------------

PlanCacheEntry::PlanCacheEntry(std::string signature,
                               std::shared_ptr<const TapePlan> plan,
                               std::size_t max_arenas)
    : signature_(std::move(signature)),
      plan_(std::move(plan)),
      max_arenas_(max_arenas == 0 ? 1 : max_arenas) {}

std::shared_ptr<MemoryArena> PlanCacheEntry::acquire_arena() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (!pool_.empty()) {
      std::shared_ptr<MemoryArena> a = std::move(pool_.back());
      pool_.pop_back();
      return a;
    }
  }
  return std::make_shared<MemoryArena>(plan_->arena_bytes);
}

void PlanCacheEntry::release_arena(std::shared_ptr<MemoryArena> arena) {
  if (!arena) return;
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (pool_.size() < max_arenas_) pool_.push_back(std::move(arena));
  // Over the pool bound the arena simply dies with the last shared_ptr.
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache::PlanCache(PlanCacheOptions opts) : opts_(opts) {
  if (opts_.capacity == 0) opts_.capacity = 1;
  if (opts_.bucket_min < 1) opts_.bucket_min = 1;
}

std::int64_t PlanCache::bucket_dim(std::int64_t d) const {
  // An empty batch is its own bucket ("~0"): rounding 0 up into bucket_min
  // would collide empty-tensor requests with the 1..bucket_min bucket, and a
  // plan specialized at batch>=1 is the wrong contract for a 0-row run.
  if (d <= 0) return 0;
  if (d <= opts_.bucket_min) return opts_.bucket_min;
  std::int64_t b = opts_.bucket_min;
  while (b < d) b <<= 1;  // next power-of-two multiple of the minimum bucket
  return b;
}

std::string PlanCache::render_signature(
    const std::vector<std::pair<Shape, DType>>& shapes,
    const std::vector<bool>& is_tensor) const {
  std::string sig;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (i) sig += ';';
    if (!is_tensor[i]) {
      sig += "<other>";
      continue;
    }
    sig += dtype_name(shapes[i].second);
    sig += '[';
    const Shape& s = shapes[i].first;
    for (std::size_t d = 0; d < s.size(); ++d) {
      if (d) sig += ',';
      if (d == 0 && opts_.bucket_batch_dim) {
        sig += '~';
        sig += std::to_string(bucket_dim(s[d]));
      } else {
        sig += std::to_string(s[d]);
      }
    }
    sig += ']';
  }
  return sig;
}

std::string PlanCache::signature_of(const std::vector<RtValue>& inputs) const {
  std::vector<std::pair<Shape, DType>> shapes;
  std::vector<bool> is_tensor;
  shapes.reserve(inputs.size());
  is_tensor.reserve(inputs.size());
  for (const RtValue& v : inputs) {
    if (rt_is_tensor(v)) {
      const Tensor& t = rt_tensor(v);
      shapes.emplace_back(t.sizes(), t.dtype());
      is_tensor.push_back(true);
    } else {
      shapes.emplace_back(Shape{}, DType::Float32);
      is_tensor.push_back(false);
    }
  }
  return render_signature(shapes, is_tensor);
}

std::string PlanCache::signature_of_guards(
    const std::vector<GuardSpec>& guards) const {
  std::vector<std::pair<Shape, DType>> shapes;
  std::vector<bool> is_tensor;
  for (const GuardSpec& g : guards) {
    if (g.placeholder.empty()) return "";  // unnamed spec: underivable
    shapes.emplace_back(g.shape, g.dtype);
    is_tensor.push_back(true);
  }
  return render_signature(shapes, is_tensor);
}

std::shared_ptr<PlanCacheEntry> PlanCache::lookup(
    const std::vector<RtValue>& inputs) {
  const std::string sig = signature_of(inputs);
  std::shared_ptr<PlanCacheEntry> entry;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(sig);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // mark MRU
    entry = *it->second;
    ++hits_;
  }
  entry->hits_.fetch_add(1, std::memory_order_relaxed);
  // A signature hit whose exact shapes differ from the plan's contract can
  // only happen under bucketed keying: the entry serves the whole bucket,
  // with off-canonical sizes degrading to heap allocation, never corrupting.
  if (!plan_matches_inputs(*entry->plan(), inputs)) {
    entry->bucket_hits_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu_);
    ++bucket_hits_;
  }
  return entry;
}

std::shared_ptr<PlanCacheEntry> PlanCache::peek(
    const std::string& signature) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(signature);
  return it == index_.end() ? nullptr : *it->second;
}

std::shared_ptr<PlanCacheEntry> PlanCache::insert(
    const std::vector<RtValue>& inputs,
    std::shared_ptr<const TapePlan> plan) {
  const std::string sig = signature_of(inputs);
  auto entry = std::make_shared<PlanCacheEntry>(sig, std::move(plan),
                                                opts_.max_arenas_per_entry);
  std::lock_guard<std::mutex> lk(mu_);
  ++replans_;
  const auto it = index_.find(sig);
  if (it != index_.end()) {
    // Replace in place (bucketed re-specialization); running threads keep
    // the old entry alive through their shared_ptrs.
    *it->second = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return entry;
  }
  lru_.push_front(entry);
  index_[sig] = lru_.begin();
  evict_over_capacity_locked();
  return entry;
}

void PlanCache::evict_over_capacity_locked() {
  while (lru_.size() > opts_.capacity) {
    index_.erase(lru_.back()->signature());
    lru_.pop_back();
    ++evictions_;
  }
}

bool PlanCache::canonical_inputs(const std::vector<RtValue>& inputs,
                                 std::vector<Tensor>* out) const {
  std::vector<Tensor> canon;
  canon.reserve(inputs.size());
  for (const RtValue& v : inputs) {
    if (!rt_is_tensor(v)) return false;
    const Tensor& t = rt_tensor(v);
    Shape s = t.sizes();
    if (opts_.bucket_batch_dim && !s.empty()) s[0] = bucket_dim(s[0]);
    if (s == t.sizes()) {
      canon.push_back(t);  // already canonical: plan on the real data
    } else {
      canon.push_back(Tensor::zeros(s, t.dtype()));
    }
  }
  *out = std::move(canon);
  return true;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  std::lock_guard<std::mutex> lk(mu_);
  s.hits = hits_;
  s.bucket_hits = bucket_hits_;
  s.misses = misses_;
  s.replans = replans_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.per_entry.reserve(lru_.size());
  for (const auto& e : lru_) {
    PlanCacheEntryStats es;
    es.signature = e->signature();
    es.hits = e->hits();
    es.bucket_hits = e->bucket_hits();
    es.arena_bytes = e->plan()->arena_bytes;
    es.planned_count = e->plan()->planned_count;
    s.per_entry.push_back(std::move(es));
  }
  return s;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  index_.clear();
}

void PlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  opts_.capacity = capacity == 0 ? 1 : capacity;
  evict_over_capacity_locked();
}

PlanCacheOptions PlanCache::options() const {
  std::lock_guard<std::mutex> lk(mu_);
  return opts_;
}

std::vector<std::shared_ptr<PlanCacheEntry>> PlanCache::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {lru_.begin(), lru_.end()};
}

}  // namespace fxcpp::fx
