// Guard-keyed multi-plan cache: TorchProbe-style shape-fuzz harness plus
// targeted unit/concurrency coverage. The fuzz runs ~150 seeded random DAGs,
// each over a randomized shape sequence (growing / shrinking / alternating
// batch dims, rank changes, repeated hot shapes), through the interpreter
// and the cached-planned tape, asserting bit-equality everywhere and
// hit/miss/evict/replan accounting against a reference LRU model. Concurrency tests race mixed-shape run_planned calls
// against cache eviction and capacity churn (the TSan leg of
// scripts/check.sh), and pin that concurrent misses change nothing but the
// cache: the module's guards stay those of the compile shape. All
// randomness is seeded.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <thread>
#include <vector>

#include "analysis/verifier.h"
#include "core/interpreter.h"
#include "core/memory_plan.h"
#include "core/plan_cache.h"
#include "passes/memory_planner.h"
#include "profile/profiler.h"
#include "runtime/rng.h"
#include "tensor/ops.h"

namespace fxcpp {
namespace {

using fx::Argument;
using fx::Graph;
using fx::GraphModule;
using fx::Node;
using fx::PlanCache;
using fx::PlanCacheOptions;
using fx::RtValue;

// --------------------------------------------------------------------------
// Bit-level tensor equality (NaN-safe, unlike operator== / allclose).
// --------------------------------------------------------------------------

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

bool bit_equal(const RtValue& a, const RtValue& b) {
  if (a.index() != b.index()) return false;
  if (fx::rt_is_tensor(a)) return bit_equal(fx::rt_tensor(a), fx::rt_tensor(b));
  return true;  // fuzzed graphs only produce tensors
}

// --------------------------------------------------------------------------
// Seeded shape-polymorphic DAG corpus: elementwise-only ops (no matmul), so
// one graph runs at every batch size and rank the shape sequences throw at
// it — exactly the dynamic-shape traffic the cache exists for.
// --------------------------------------------------------------------------

Tensor random_tensor(rt::Rng& rng, const Shape& s) {
  std::int64_t numel = 1;
  for (const std::int64_t d : s) numel *= d;
  std::vector<float> v(static_cast<std::size_t>(numel));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, s);
}

struct FuzzCase {
  std::shared_ptr<GraphModule> gm;
  int n_inputs = 1;
};

FuzzCase elementwise_dag(std::uint64_t seed) {
  rt::Rng rng(seed);
  auto g = std::make_unique<Graph>();
  std::vector<Node*> pool;

  const int n_inputs = 1 + static_cast<int>(rng.randint(0, 1));
  for (int i = 0; i < n_inputs; ++i) {
    pool.push_back(g->placeholder("x" + std::to_string(i)));
  }

  static const char* kBinary[] = {"add", "sub", "mul"};
  static const char* kUnary[] = {"relu", "neg", "sigmoid", "tanh", "gelu"};

  const int n_ops = 5 + static_cast<int>(rng.randint(0, 20));
  for (int i = 0; i < n_ops; ++i) {
    auto pick = [&]() -> Node* {
      return pool[static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(pool.size()) - 1))];
    };
    Node* n = nullptr;
    switch (rng.randint(0, 2)) {
      case 0:
        n = g->call_function(kBinary[rng.randint(0, 2)], {pick(), pick()});
        break;
      case 1:
        n = g->call_function(kUnary[rng.randint(0, 4)], {pick()});
        break;
      default:
        n = g->call_function(kBinary[rng.randint(0, 2)],
                             {pick(), Argument(rng.uniform(-2.0, 2.0))});
        break;
    }
    pool.push_back(n);
  }

  std::vector<Node*> sinks;
  for (Node* n : pool) {
    if (n->op() != fx::Opcode::Placeholder && n->users().empty()) {
      sinks.push_back(n);
    }
  }
  Node* acc = sinks.empty() ? pool.back() : sinks[0];
  for (std::size_t i = 1; i < sinks.size(); ++i) {
    acc = g->call_function("add", {acc, sinks[i]});
  }
  g->output(acc);

  FuzzCase fc;
  fc.gm = std::make_shared<GraphModule>(nullptr, std::move(g), "ShapeFuzz");
  fc.gm->recompile();
  fc.n_inputs = n_inputs;
  return fc;
}

std::vector<RtValue> inputs_for(rt::Rng& rng, int n_inputs, const Shape& s) {
  std::vector<RtValue> in;
  in.reserve(static_cast<std::size_t>(n_inputs));
  for (int i = 0; i < n_inputs; ++i) in.emplace_back(random_tensor(rng, s));
  return in;
}

std::vector<Tensor> as_tensors(const std::vector<RtValue>& in) {
  std::vector<Tensor> ts;
  for (const auto& v : in) ts.push_back(fx::rt_tensor(v));
  return ts;
}

// One randomized shape sequence: the axes TorchProbe mutates on a dynamic
// compiler — batch growth/shrink, ping-pong, a hot shape with cold noise,
// and whole-rank changes.
std::vector<Shape> shape_sequence(rt::Rng& rng) {
  const std::int64_t f = 4;
  switch (rng.randint(0, 4)) {
    case 0:  // growing batch
      return {{2, f}, {4, f}, {8, f}, {16, f}};
    case 1:  // shrinking batch
      return {{16, f}, {8, f}, {4, f}, {2, f}};
    case 2:  // alternating
      return {{2, f}, {8, f}, {2, f}, {8, f}, {2, f}, {8, f}};
    case 3:  // hot shape with cold noise
      return {{8, f}, {8, f}, {3, f}, {8, f}, {5, f}, {8, f}, {8, f}};
    default:  // rank changes
      return {{f}, {2, f}, {3, 2, f}, {2, f}, {f}};
  }
}

// Reference LRU model the real cache's accounting is fuzzed against.
struct LruModel {
  std::size_t capacity;
  std::list<std::string> order;  // front = MRU
  std::uint64_t hits = 0, misses = 0, replans = 0, evictions = 0;

  explicit LruModel(std::size_t cap) : capacity(cap) {}
  void seed(const std::string& sig) {
    ++replans;
    order.push_front(sig);
  }
  void lookup(const std::string& sig) {
    const auto it = std::find(order.begin(), order.end(), sig);
    if (it != order.end()) {
      ++hits;
      order.splice(order.begin(), order, it);
      return;
    }
    ++misses;
    ++replans;
    order.push_front(sig);
    while (order.size() > capacity) {
      order.pop_back();
      ++evictions;
    }
  }
};

// --------------------------------------------------------------------------
// Signature keying
// --------------------------------------------------------------------------

TEST(PlanCacheSignature, ExactRenderingAndNonTensorTag) {
  PlanCache cache;
  std::vector<RtValue> in{RtValue(Tensor::zeros({8, 16})),
                          RtValue(Tensor::zeros({8}))};
  EXPECT_EQ(cache.signature_of(in), "float32[8,16];float32[8]");
  in.emplace_back(std::int64_t{3});
  EXPECT_EQ(cache.signature_of(in), "float32[8,16];float32[8];<other>");
}

TEST(PlanCacheSignature, BucketingRoundsBatchDimUp) {
  PlanCacheOptions po;
  po.bucket_batch_dim = true;
  po.bucket_min = 4;
  PlanCache cache(po);
  const std::vector<RtValue> a{RtValue(Tensor::zeros({3, 16}))};
  const std::vector<RtValue> b{RtValue(Tensor::zeros({4, 16}))};
  const std::vector<RtValue> c{RtValue(Tensor::zeros({6, 16}))};
  EXPECT_EQ(cache.signature_of(a), "float32[~4,16]");
  EXPECT_EQ(cache.signature_of(a), cache.signature_of(b));
  EXPECT_EQ(cache.signature_of(c), "float32[~8,16]");
  // Only dim 0 buckets; the feature dim stays exact.
  const std::vector<RtValue> d{RtValue(Tensor::zeros({4, 17}))};
  EXPECT_NE(cache.signature_of(b), cache.signature_of(d));
}

// Regression: degenerate dim-0 sizes must not collide under bucketing. The
// old bucket_dim rounded 0 up into the bucket_min bucket, so an empty-tensor
// request (which a dynamic batcher legitimately generates) would be served a
// plan specialized at batch >= 1.
TEST(PlanCacheSignature, BucketKeyingZeroBatchDoesNotCollideWithOne) {
  PlanCacheOptions po;
  po.bucket_batch_dim = true;
  PlanCache cache(po);  // bucket_min = 1
  const std::vector<RtValue> zero{RtValue(Tensor::zeros({0, 16}))};
  const std::vector<RtValue> one{RtValue(Tensor::zeros({1, 16}))};
  EXPECT_EQ(cache.signature_of(zero), "float32[~0,16]");
  EXPECT_EQ(cache.signature_of(one), "float32[~1,16]");
  EXPECT_NE(cache.signature_of(zero), cache.signature_of(one));
}

TEST(PlanCacheSignature, BucketKeyingDegenerateShapeUniqueness) {
  PlanCacheOptions po;
  po.bucket_batch_dim = true;
  po.bucket_min = 4;
  PlanCache cache(po);
  // 0 keys alone; 1..bucket_min share the bucket_min bucket by design.
  EXPECT_EQ(cache.signature_of({RtValue(Tensor::zeros({0, 8}))}),
            "float32[~0,8]");
  for (std::int64_t d : {1, 2, 3, 4}) {
    EXPECT_EQ(cache.signature_of({RtValue(Tensor::zeros({d, 8}))}),
              "float32[~4,8]");
  }
  // And the keys stay distinct end to end, not just textually: a canonical
  // planning shape for the zero bucket keeps dim 0 at 0.
  std::vector<Tensor> canon;
  ASSERT_TRUE(cache.canonical_inputs({RtValue(Tensor::zeros({0, 8}))}, &canon));
  ASSERT_EQ(canon.size(), 1u);
  EXPECT_EQ(canon[0].size(0), 0);
}

TEST(PlanCacheSignature, GuardDerivationMatchesInputDerivation) {
  PlanCache cache;
  const std::vector<RtValue> in{RtValue(Tensor::zeros({8, 16}))};
  std::vector<fx::GuardSpec> guards;
  guards.push_back({"x", Shape({8, 16}), DType::Float32});
  EXPECT_EQ(cache.signature_of_guards(guards), cache.signature_of(in));
  guards.push_back(fx::GuardSpec{});  // unnamed spec: underivable
  EXPECT_EQ(cache.signature_of_guards(guards), "");
}

// --------------------------------------------------------------------------
// Hit / miss / replan accounting and LRU behavior
// --------------------------------------------------------------------------

TEST(PlanCacheAccounting, HitsAndMissesMatchTraffic) {
  FuzzCase fc = elementwise_dag(0x5EED);
  rt::Rng rng(11);
  const std::vector<RtValue> a = inputs_for(rng, fc.n_inputs, {4, 4});
  const std::vector<RtValue> b = inputs_for(rng, fc.n_inputs, {16, 4});
  passes::compile_planned(*fc.gm, as_tensors(a));
  const auto cache = fc.gm->plan_cache();
  ASSERT_NE(cache, nullptr);

  // Seeded with a's signature; a stream of a,a,a,b,a,b yields 1 miss (b).
  for (const auto* in : {&a, &a, &a, &b, &a, &b}) fc.gm->run_planned(*in);
  const fx::PlanCacheStats s = cache->stats();
  EXPECT_EQ(s.hits, 5u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.replans, 2u);  // the compile_planned seed + the b miss
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 5.0 / 6.0);
  // Per-entry slices carry the same traffic, MRU first (b ran last).
  ASSERT_EQ(s.per_entry.size(), 2u);
  EXPECT_EQ(s.per_entry[0].signature, cache->signature_of(b));
  EXPECT_EQ(s.per_entry[0].hits, 1u);
  EXPECT_EQ(s.per_entry[1].hits, 4u);
}

TEST(PlanCacheAccounting, RepeatedHotShapeNeverReplans) {
  FuzzCase fc = elementwise_dag(0xB0B);
  rt::Rng rng(12);
  const std::vector<RtValue> hot = inputs_for(rng, fc.n_inputs, {8, 4});
  passes::compile_planned(*fc.gm, as_tensors(hot));
  const auto cache = fc.gm->plan_cache();
  const RtValue ref = fx::Interpreter(*fc.gm).run(hot);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned(hot).front()));
  }
  const fx::PlanCacheStats s = cache->stats();
  EXPECT_EQ(s.replans, 1u) << "a pure hit performed planning work";
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, 10u);
}

TEST(PlanCacheAccounting, LruEvictionAndReinsertionRoundTrips) {
  FuzzCase fc = elementwise_dag(0xE71C);
  rt::Rng rng(13);
  const std::vector<RtValue> a = inputs_for(rng, fc.n_inputs, {2, 4});
  const std::vector<RtValue> b = inputs_for(rng, fc.n_inputs, {4, 4});
  const std::vector<RtValue> c = inputs_for(rng, fc.n_inputs, {8, 4});
  PlanCacheOptions po;
  po.capacity = 2;
  passes::compile_planned(*fc.gm, as_tensors(a), po);
  const auto cache = fc.gm->plan_cache();

  const RtValue ref_a = fx::Interpreter(*fc.gm).run(a);
  fc.gm->run_planned(b);               // entries: {b, a}
  fc.gm->run_planned(c);               // evicts a -> {c, b}
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->peek(cache->signature_of(a)), nullptr);

  // Re-insertion after eviction must plan again and produce identical bits.
  EXPECT_TRUE(bit_equal(ref_a, fc.gm->run_planned(a).front()));
  const fx::PlanCacheStats s = cache->stats();
  EXPECT_EQ(s.evictions, 2u);          // a's return evicted b
  EXPECT_EQ(s.replans, 4u);            // seed + b + c + a-again
  EXPECT_NE(cache->peek(cache->signature_of(a)), nullptr);
}

TEST(PlanCache, ShrinkingCapacityEvictsAndGrowingKeeps) {
  FuzzCase fc = elementwise_dag(0xCAFE);
  rt::Rng rng(14);
  passes::compile_planned(*fc.gm,
                          as_tensors(inputs_for(rng, fc.n_inputs, {2, 4})));
  const auto cache = fc.gm->plan_cache();
  for (const std::int64_t bs : {4, 8, 16}) {
    fc.gm->run_planned(inputs_for(rng, fc.n_inputs, {bs, 4}));
  }
  EXPECT_EQ(cache->size(), 4u);
  cache->set_capacity(2);
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->stats().evictions, 2u);
  cache->set_capacity(8);
  EXPECT_EQ(cache->size(), 2u);  // growing never drops entries
}

// --------------------------------------------------------------------------
// Eviction safety: an evicted entry's plan keeps running to completion.
// --------------------------------------------------------------------------

TEST(PlanCache, EvictedEntryStaysRunnableThroughItsSharedPtr) {
  FuzzCase fc = elementwise_dag(0xDEAD);
  rt::Rng rng(15);
  const std::vector<RtValue> in = inputs_for(rng, fc.n_inputs, {8, 4});
  passes::compile_planned(*fc.gm, as_tensors(in));
  const auto cache = fc.gm->plan_cache();
  const RtValue ref = fx::Interpreter(*fc.gm).run(in);

  const std::shared_ptr<fx::PlanCacheEntry> entry = cache->lookup(in);
  ASSERT_NE(entry, nullptr);
  cache->clear();  // evict everything while we still hold the entry
  EXPECT_EQ(cache->size(), 0u);

  // The held entry is fully intact: plan + a leased arena still execute.
  fx::ArenaLease lease(entry);
  const std::vector<RtValue> out =
      fc.gm->compiled_graph().run_planned(in, *entry->plan(), lease.base());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(bit_equal(ref, out[0]));
}

// --------------------------------------------------------------------------
// TorchProbe-style shape fuzz: ~150 DAGs x randomized shape sequences
// through interpreter vs cached-planned tape, with the cache's accounting
// checked against the reference LRU model per lookup.
// --------------------------------------------------------------------------

TEST(PlanCacheFuzz, ShapeSequencesBitEqualAcrossEnginesWithModelAccounting) {
  constexpr int kCases = 150;
  constexpr std::size_t kCapacity = 3;  // small: forces eviction mid-sequence
  for (int c = 0; c < kCases; ++c) {
    const auto seed = 0xF00D + static_cast<std::uint64_t>(c);
    FuzzCase fc = elementwise_dag(seed);
    rt::Rng rng(seed * 31 + 7);
    const std::vector<Shape> seq = shape_sequence(rng);

    PlanCacheOptions po;
    po.capacity = kCapacity;
    const std::vector<RtValue> example =
        inputs_for(rng, fc.n_inputs, seq.front());
    passes::compile_planned(*fc.gm, as_tensors(example), po);
    const auto cache = fc.gm->plan_cache();
    LruModel model(kCapacity);
    model.seed(cache->signature_of(example));

    for (std::size_t step = 0; step < seq.size(); ++step) {
      const std::vector<RtValue> in = inputs_for(rng, fc.n_inputs, seq[step]);
      const RtValue ref = fx::Interpreter(*fc.gm).run(in);

      const std::vector<RtValue> planned = fc.gm->run_planned(in);
      model.lookup(cache->signature_of(in));
      ASSERT_EQ(planned.size(), 1u);
      ASSERT_TRUE(bit_equal(ref, planned[0]))
          << "cached-planned tape diverges at seed " << c << " step " << step
          << " shape " << shape_str(seq[step]) << ":\n"
          << fc.gm->graph().to_string();
    }

    // Accounting must track the reference model exactly.
    const fx::PlanCacheStats s = cache->stats();
    ASSERT_EQ(s.hits, model.hits) << "seed " << c;
    ASSERT_EQ(s.misses, model.misses) << "seed " << c;
    ASSERT_EQ(s.replans, model.replans) << "seed " << c;
    ASSERT_EQ(s.evictions, model.evictions) << "seed " << c;
    ASSERT_EQ(s.entries, model.order.size()) << "seed " << c;
    const auto entries = cache->entries();
    std::size_t i = 0;
    for (const std::string& sig : model.order) {
      ASSERT_EQ(entries[i++]->signature(), sig)
          << "LRU order diverges from the model at seed " << c;
    }

    // Cached plans must satisfy the coherence rule (sampled for time).
    if (c < 25) {
      const auto rep = analysis::verify(*fc.gm);
      EXPECT_EQ(rep.count_rule("plan.cache-coherence"), 0)
          << "seed " << c << ":\n"
          << rep.to_string();
    }
  }
}

// --------------------------------------------------------------------------
// Bucketed keying: one entry serves a whole batch bucket, off-canonical
// sizes degrade to heap allocation (counted as bucket hits), bits stay
// identical.
// --------------------------------------------------------------------------

TEST(PlanCacheBucketing, BatchBucketSharesOneEntryBitEqual) {
  FuzzCase fc = elementwise_dag(0xB5);
  rt::Rng rng(16);
  PlanCacheOptions po;
  po.bucket_batch_dim = true;
  po.bucket_min = 4;
  passes::compile_planned(*fc.gm,
                          as_tensors(inputs_for(rng, fc.n_inputs, {4, 4})), po);
  const auto cache = fc.gm->plan_cache();

  // Batches 3..8 at feature dim 4: two buckets (~4 and ~8), every output
  // bit-equal to the interpreter at the same inputs.
  for (const std::int64_t bs : {3, 4, 5, 6, 7, 8}) {
    const std::vector<RtValue> in = inputs_for(rng, fc.n_inputs, {bs, 4});
    const RtValue ref = fx::Interpreter(*fc.gm).run(in);
    EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned(in).front()))
        << "batch " << bs;
  }
  const fx::PlanCacheStats s = cache->stats();
  EXPECT_EQ(s.entries, 2u) << "six batch sizes should collapse to 2 buckets";
  EXPECT_EQ(s.misses, 1u) << "only the ~8 bucket's first arrival misses";
  EXPECT_GT(s.bucket_hits, 0u)
      << "off-canonical in-bucket serves must be counted";
  EXPECT_EQ(s.replans, 2u);
}

// --------------------------------------------------------------------------
// Concurrency: mixed-shape runs race eviction, capacity churn, and clear().
// Exercised under TSan by scripts/check.sh.
// --------------------------------------------------------------------------

TEST(PlanCacheConcurrency, MixedShapeRunsRaceEvictionAndCapacityChurn) {
  FuzzCase fc = elementwise_dag(0xC0FFEE);
  const std::vector<Shape> shapes{{2, 4}, {4, 4}, {8, 4}, {16, 4}};
  rt::Rng rng(17);
  std::vector<std::vector<RtValue>> ins;
  std::vector<RtValue> refs;
  for (const Shape& s : shapes) {
    ins.push_back(inputs_for(rng, fc.n_inputs, s));
    refs.push_back(fx::Interpreter(*fc.gm).run(ins.back()));
  }
  PlanCacheOptions po;
  po.capacity = 2;  // half the live shapes: constant eviction pressure
  passes::compile_planned(*fc.gm, as_tensors(ins[0]), po);
  const auto cache = fc.gm->plan_cache();

  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t s =
            static_cast<std::size_t>(t + i) % shapes.size();
        const std::vector<RtValue> out = fc.gm->run_planned(ins[s]);
        if (out.size() != 1 || !bit_equal(refs[s], out[0])) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Chaos on the main thread: capacity churn + full clears while workers
  // are mid-flight on (possibly just-evicted) entries.
  for (int i = 0; i < 60; ++i) {
    cache->set_capacity(1 + static_cast<std::size_t>(i % 3));
    if (i % 7 == 0) cache->clear();
    std::this_thread::yield();
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0)
      << "a planned run diverged under eviction/capacity races";
  // Every lookup was counted exactly once despite the churn.
  const fx::PlanCacheStats s = cache->stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(PlanCacheConcurrency, ConcurrentSameShapeRunsLeaseDistinctArenas) {
  FuzzCase fc = elementwise_dag(0xAB1E);
  rt::Rng rng(18);
  const std::vector<RtValue> in = inputs_for(rng, fc.n_inputs, {8, 4});
  passes::compile_planned(*fc.gm, as_tensors(in));
  const RtValue ref = fx::Interpreter(*fc.gm).run(in);

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const std::vector<RtValue> out = fc.gm->run_planned(in);
        if (out.size() != 1 || !bit_equal(ref, out[0])) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0)
      << "same-shape concurrent planned runs shared arena bytes";
}

// A miss changes nothing but the cache. Two threads drive misses at
// distinct shapes on one module (capacity 2, so they keep evicting each
// other and missing again) while a third runs the hardened entry point with
// guard checks at the compile shape. A replan that rewrote the module's
// guards would raise GuardViolation there (and race the guard read under
// TSan); every output must match the Interpreter bit for bit.
TEST(PlanCacheConcurrency, ConcurrentMissesKeepCompileShapeGuards) {
  FuzzCase fc = elementwise_dag(0xBEEF);
  rt::Rng rng(19);
  const std::vector<RtValue> compile = inputs_for(rng, fc.n_inputs, {2, 4});
  const RtValue compile_ref = fx::Interpreter(*fc.gm).run(compile);
  struct Traffic {
    std::vector<std::vector<RtValue>> ins;
    std::vector<RtValue> refs;
  };
  auto traffic = [&](std::initializer_list<std::int64_t> rows) {
    Traffic t;
    for (const std::int64_t r : rows) {
      t.ins.push_back(inputs_for(rng, fc.n_inputs, {r, 4}));
      t.refs.push_back(fx::Interpreter(*fc.gm).run(t.ins.back()));
    }
    return t;
  };
  const Traffic ta = traffic({8, 16, 32});
  const Traffic tb = traffic({3, 5, 7});
  PlanCacheOptions po;
  po.capacity = 2;
  passes::compile_planned(*fc.gm, as_tensors(compile), po);

  std::atomic<int> failures{0};
  std::atomic<int> violations{0};
  auto drive = [&](const Traffic& t) {
    for (int i = 0; i < 30; ++i) {
      const std::size_t s = static_cast<std::size_t>(i) % t.ins.size();
      const std::vector<RtValue> out = fc.gm->run_planned(t.ins[s]);
      if (out.size() != 1 || !bit_equal(t.refs[s], out[0])) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread a(drive, std::cref(ta));
  std::thread b(drive, std::cref(tb));
  std::thread c([&] {
    fx::ResilientOptions opts;
    opts.check_guards = true;
    for (int i = 0; i < 60; ++i) {
      try {
        const std::vector<RtValue> out = fc.gm->run_resilient(compile, opts);
        if (out.size() != 1 || !bit_equal(compile_ref, out[0])) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const ExecError& e) {
        (e.code() == ErrorCode::GuardViolation ? violations : failures)
            .fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0)
      << "a miss moved the module's guards off the compile shape";
  EXPECT_GE(fc.gm->plan_cache()->stats().misses, 6u);
}

// --------------------------------------------------------------------------
// plan.cache-coherence verifier rule
// --------------------------------------------------------------------------

TEST(PlanCacheCoherenceRule, CleanCachePasses) {
  FuzzCase fc = elementwise_dag(0x600D);
  rt::Rng rng(20);
  passes::compile_planned(*fc.gm,
                          as_tensors(inputs_for(rng, fc.n_inputs, {4, 4})));
  fc.gm->run_planned(inputs_for(rng, fc.n_inputs, {8, 4}));
  const auto rep = analysis::verify(*fc.gm);
  EXPECT_EQ(rep.count_rule("plan.cache-coherence"), 0) << rep.to_string();
}

TEST(PlanCacheCoherenceRule, FlagsStaleTapeUnpinnedGuardAndKeyDrift) {
  FuzzCase fc = elementwise_dag(0xBAD);
  rt::Rng rng(21);
  const std::vector<RtValue> a = inputs_for(rng, fc.n_inputs, {4, 4});
  const std::vector<RtValue> b = inputs_for(rng, fc.n_inputs, {16, 4});
  passes::compile_planned(*fc.gm, as_tensors(a));
  const auto cache = fc.gm->plan_cache();
  const auto seeded = cache->peek(cache->signature_of(a));
  ASSERT_NE(seeded, nullptr);
  const auto good = seeded->plan();
  ASSERT_GT(good->planned_count, 0);

  // (1) An entry whose interval count no longer matches the tape.
  auto stale = std::make_shared<fx::TapePlan>(*good);
  stale->intervals.pop_back();
  const std::vector<RtValue> k1 = inputs_for(rng, fc.n_inputs, {3, 4});
  cache->insert(k1, stale);
  // (2) An entry whose guards leave a layout-feeding placeholder unpinned.
  auto unpinned = std::make_shared<fx::TapePlan>(*good);
  for (auto& g : unpinned->guards) g.placeholder.clear();
  const std::vector<RtValue> k2 = inputs_for(rng, fc.n_inputs, {5, 4});
  cache->insert(k2, unpinned);
  // (3) An entry filed under a key its guards do not derive.
  cache->insert(b, good);

  const auto rep = analysis::verify(*fc.gm);
  EXPECT_GE(rep.count_rule("plan.cache-coherence"), 3) << rep.to_string();
}

// --------------------------------------------------------------------------
// Stats export: PlanCacheStats JSON + the profiler's summary embedding.
// --------------------------------------------------------------------------

TEST(PlanCacheStats, JsonCarriesAggregateAndPerEntryFields) {
  FuzzCase fc = elementwise_dag(0x57A7);
  rt::Rng rng(22);
  const std::vector<RtValue> in = inputs_for(rng, fc.n_inputs, {4, 4});
  passes::compile_planned(*fc.gm, as_tensors(in));
  fc.gm->run_planned(in);
  const std::string json = fc.gm->plan_cache()->stats().to_json();
  for (const char* key :
       {"\"hits\"", "\"bucket_hits\"", "\"misses\"", "\"replans\"",
        "\"evictions\"", "\"entries\"", "\"hit_rate\"", "\"per_entry\"",
        "\"signature\"", "\"arena_bytes\"", "\"planned_count\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(PlanCacheStats, ProfilerSummaryEmbedsCacheStats) {
  FuzzCase fc = elementwise_dag(0x9906);
  rt::Rng rng(23);
  const std::vector<RtValue> in = inputs_for(rng, fc.n_inputs, {4, 4});
  passes::compile_planned(*fc.gm, as_tensors(in));
  fc.gm->run_planned(in);
  profile::Profiler prof(*fc.gm);
  prof.run_tape(in);
  const std::string summary = prof.summary_json();
  EXPECT_NE(summary.find("\"plan_cache\""), std::string::npos) << summary;
  EXPECT_NE(summary.find("\"hit_rate\""), std::string::npos);

  // A module without a cache keeps the old summary shape.
  FuzzCase bare = elementwise_dag(0x9907);
  profile::Profiler bare_prof(*bare.gm);
  bare_prof.run_tape(inputs_for(rng, bare.n_inputs, {4, 4}));
  EXPECT_EQ(bare_prof.summary_json().find("\"plan_cache\""),
            std::string::npos);
}

// --------------------------------------------------------------------------
// Lifecycle: recompile invalidates cached plans (they index the old tape).
// --------------------------------------------------------------------------

TEST(PlanCache, RecompileClearsCachedPlansAndTrafficRebuildsThem) {
  FuzzCase fc = elementwise_dag(0x12EC);
  rt::Rng rng(24);
  const std::vector<RtValue> in = inputs_for(rng, fc.n_inputs, {8, 4});
  passes::compile_planned(*fc.gm, as_tensors(in));
  const auto cache = fc.gm->plan_cache();
  fc.gm->run_planned(inputs_for(rng, fc.n_inputs, {4, 4}));
  EXPECT_EQ(cache->size(), 2u);

  fc.gm->recompile();
  EXPECT_EQ(cache->size(), 0u) << "recompile left stale plans cached";
  EXPECT_EQ(fc.gm->plan_cache(), cache) << "the cache itself must survive";

  const RtValue ref = fx::Interpreter(*fc.gm).run(in);
  EXPECT_TRUE(bit_equal(ref, fc.gm->run_planned(in).front()));
  EXPECT_EQ(cache->size(), 1u) << "traffic should repopulate the cache";
}

}  // namespace
}  // namespace fxcpp
