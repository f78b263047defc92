// Runtime substrate tests: intra-op parallelism, inter-op task groups and
// thread-pool shutdown, deterministic RNG, and trial statistics used by the
// benchmark harnesses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/rng.h"
#include "runtime/thread_pool.h"
#include "runtime/timer.h"

namespace fxcpp::rt {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, 1000, 10, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  set_num_threads(1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  set_num_threads(4);
  int calls = 0;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::int64_t> sum{0};
  parallel_for(0, 3, 100, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 3);
  set_num_threads(1);
}

TEST(ParallelFor, ParallelSumMatchesSerial) {
  std::vector<double> data(10000);
  std::iota(data.begin(), data.end(), 0.0);
  auto run = [&](int threads) {
    set_num_threads(threads);
    std::atomic<long long> acc{0};
    parallel_for(0, 10000, 64, [&](std::int64_t b, std::int64_t e) {
      long long local = 0;
      for (std::int64_t i = b; i < e; ++i) {
        local += static_cast<long long>(data[static_cast<std::size_t>(i)]);
      }
      acc += local;
    });
    return acc.load();
  };
  EXPECT_EQ(run(1), run(4));
  set_num_threads(1);
}

// Many short calls back to back: each call's completion mutex lives on the
// caller's stack, so a worker still touching it after the caller has
// returned shows up here (under ThreadSanitizer) as a race with the next
// call's frame.
TEST(ParallelFor, RepeatedShortCallsAtFourThreads) {
  set_num_threads(4);
  for (int iter = 0; iter < 20000; ++iter) {
    std::atomic<std::int64_t> sum{0};
    parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) sum += i;
    });
    ASSERT_EQ(sum.load(), 28) << "iteration " << iter;
  }
  set_num_threads(1);
}

TEST(ThreadSetting, Roundtrip) {
  set_num_threads(3);
  EXPECT_EQ(get_num_threads(), 3);
  set_num_threads(0);  // clamped to 1
  EXPECT_EQ(get_num_threads(), 1);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(124);
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRangeAndNormalMoments) {
  Rng r(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < n; ++i) {
    const double z = r.normal();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.randint(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(TrialStats, MeanAndStdev) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(s.mean, 2.5, 1e-12);
  EXPECT_NEAR(s.stdev, 1.2909944487358056, 1e-9);
  EXPECT_EQ(s.n, 4u);
  const auto e = summarize({});
  EXPECT_EQ(e.n, 0u);
  const auto one = summarize({5.0});
  EXPECT_EQ(one.stdev, 0.0);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 1000000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
}

// --------------------------------------------------------------------------
// Regression: a late set_num_interop_threads() — after the inter-op pool
// has been realized — must take effect, and a resize must never invalidate
// pools that in-flight work still holds.
// --------------------------------------------------------------------------

TEST(InteropThreads, LateSetTakesEffectOnRealizedPool) {
  const int before = get_num_interop_threads();
  // Realize the pool at the current knob...
  const std::shared_ptr<ThreadPool> first = ThreadPool::inter_op_handle();
  EXPECT_EQ(first->size(), before);
  // ...then change the knob late. The old behavior silently served the
  // stale pool forever; now the next handle must see the new size.
  set_num_interop_threads(before + 2);
  const std::shared_ptr<ThreadPool> second = ThreadPool::inter_op_handle();
  EXPECT_EQ(second->size(), before + 2);
  EXPECT_NE(first.get(), second.get());
  // The stale handle is still a live, usable pool (not freed under us).
  std::atomic<int> ran{0};
  first->submit([&] { ran.fetch_add(1); });
  set_num_interop_threads(before);
  ThreadPool::inter_op_handle();
  // first/second keep their pools alive until these handles drop.
  for (int i = 0; i < 2000 && ran.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 1);
}

TEST(InteropThreads, ResizeKeepsOldPoolAliveForLiveGroups) {
  const int before = get_num_interop_threads();
  TaskGroup group(ThreadPool::inter_op_handle());
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    group.run([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  // Swap the process-wide pool mid-flight; the group's pinned handle keeps
  // the old pool (and its queue) alive and draining.
  set_num_interop_threads(before + 1);
  const std::shared_ptr<ThreadPool> fresh = ThreadPool::inter_op_handle();
  EXPECT_EQ(fresh->size(), before + 1);
  // Late submissions through the group still land on the pinned pool.
  group.run([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 17);
  set_num_interop_threads(before);
}

TEST(TaskGroupDrain, NullPoolHandleThrows) {
  EXPECT_THROW(TaskGroup(std::shared_ptr<ThreadPool>()), std::invalid_argument);
}

// --------------------------------------------------------------------------
// TaskGroup semantics.
// --------------------------------------------------------------------------

TEST(TaskGroup, WaitsForAllTasks) {
  rt::ThreadPool pool(4);
  rt::TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    group.run([&] { done.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(done.load(), 100);
  // wait() is re-callable and groups are reusable after quiescing.
  group.run([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 101);
}

TEST(TaskGroup, TasksCanSpawnTasks) {
  rt::ThreadPool pool(2);
  rt::TaskGroup group(pool);
  std::atomic<int> done{0};
  // Binary fan-out from inside workers: 1 + 2 + 4 + 8 = 15 tasks.
  std::function<void(int)> spawn = [&](int depth) {
    done.fetch_add(1);
    if (depth < 3) {
      group.run([&, depth] { spawn(depth + 1); });
      group.run([&, depth] { spawn(depth + 1); });
    }
  };
  group.run([&] { spawn(0); });
  group.wait();
  EXPECT_EQ(done.load(), 15);
}

TEST(TaskGroup, FirstWorkerExceptionPropagates) {
  rt::ThreadPool pool(4);
  rt::TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.run([&] { ran.fetch_add(1); });
  group.run([] { throw std::invalid_argument("worker boom"); });
  group.run([&] { ran.fetch_add(1); });
  try {
    group.wait();
    FAIL() << "expected worker exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "worker boom");
  }
  EXPECT_EQ(ran.load(), 2) << "non-throwing tasks still complete";
}

TEST(TaskGroup, ResizeWhileGroupInFlight) {
  const int before = rt::get_num_interop_threads();
  // Handle idiom: pins the current pool so the mid-flight resize below can
  // never destroy it underneath the group's queued tasks.
  rt::TaskGroup group(rt::ThreadPool::inter_op_handle());
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    group.run([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  // Rebuild the global pool mid-flight: the old pool's destructor drains its
  // queue before joining, so every task still runs exactly once.
  rt::set_num_interop_threads(before + 1);
  rt::ThreadPool::inter_op();
  group.wait();
  EXPECT_EQ(done.load(), 32);
  rt::set_num_interop_threads(before);
}

// --------------------------------------------------------------------------
// ThreadPool shutdown contract: work is never silently dropped.
// --------------------------------------------------------------------------

TEST(ThreadPoolShutdown, SubmitAfterStopRunsInline) {
  rt::ThreadPool pool(2);
  pool.stop();
  EXPECT_TRUE(pool.stopped());
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  bool ran = false;
  pool.submit([&] {
    ran = true;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_TRUE(ran) << "submit after stop() must not drop the task";
  EXPECT_EQ(ran_on, caller);
  pool.stop();  // idempotent
}

TEST(ThreadPoolShutdown, QueuedTasksDrainOnStop) {
  std::atomic<int> done{0};
  {
    rt::ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1);
      });
    }
  }  // destructor stops: every queued task must have run
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolShutdown, ZeroWorkerPoolRunsInline) {
  rt::ThreadPool pool(0);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(TaskGroup, OnStoppedPoolRunsInlineAndCompletes) {
  rt::ThreadPool pool(2);
  pool.stop();
  rt::TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) group.run([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 8);
}

}  // namespace
}  // namespace fxcpp::rt
