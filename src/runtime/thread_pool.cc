#include "runtime/thread_pool.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

namespace fxcpp::rt {

namespace {
std::atomic<int> g_num_threads{0};  // 0 = uninitialized, use hw concurrency
std::atomic<int> g_num_interop_threads{0};

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}
}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers < 0) num_workers = 0;
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return;
    done_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

bool ThreadPool::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A stopped (or worker-less) pool can never pop the queue again; running
    // inline keeps submit() well-defined instead of dropping the task.
    if (!done_ && !workers_.empty()) {
      tasks_.push(std::move(fn));
      cv_.notify_one();
      return;
    }
  }
  fn();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return done_ || !tasks_.empty(); });
      if (done_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

std::shared_ptr<ThreadPool> pool_for(std::atomic<int>& knob) {
  // One pool per configured size; rebuilding on resize keeps the common case
  // (size never changes after startup) cheap at call sites. Pools are handed
  // out as shared_ptrs: on resize this cache merely drops its reference, so
  // an in-flight TaskGroup (or parallel_for) holding a handle keeps the old
  // pool — and every task queued on it — alive and draining, while new
  // handles see the new size. With no outstanding handles the drop destroys
  // the old pool immediately, which drains its queue before joining. Either
  // way a late set_num_threads()/set_num_interop_threads() takes effect
  // without ever invalidating running work (the realized-pool resize bug:
  // the old code returned bare references into a slot that reset() freed
  // underneath them).
  static std::mutex mu;
  static std::shared_ptr<ThreadPool> pools[2];
  static int pool_sizes[2] = {-1, -1};
  const int slot = &knob == &g_num_interop_threads ? 1 : 0;
  std::lock_guard<std::mutex> lock(mu);
  int want = knob.load();
  if (want == 0) {
    want = default_threads();
    knob.store(want);
  }
  if (!pools[slot] || pool_sizes[slot] != want) {
    pools[slot] = std::make_shared<ThreadPool>(want);
    pool_sizes[slot] = want;
  }
  return pools[slot];
}

}  // namespace

ThreadPool& ThreadPool::global() { return *pool_for(g_num_threads); }

ThreadPool& ThreadPool::inter_op() { return *pool_for(g_num_interop_threads); }

std::shared_ptr<ThreadPool> ThreadPool::global_handle() {
  return pool_for(g_num_threads);
}

std::shared_ptr<ThreadPool> ThreadPool::inter_op_handle() {
  return pool_for(g_num_interop_threads);
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

TaskGroup::TaskGroup(ThreadPool& pool)
    // Aliasing handle with no ownership: the caller promised the pool
    // outlives the group (locally owned pools).
    : pool_(std::shared_ptr<ThreadPool>(std::shared_ptr<void>(), &pool)),
      state_(std::make_shared<State>()) {}

TaskGroup::TaskGroup(std::shared_ptr<ThreadPool> pool)
    : pool_(std::move(pool)), state_(std::make_shared<State>()) {
  if (!pool_) throw std::invalid_argument("TaskGroup: null pool handle");
}

TaskGroup::~TaskGroup() {
  // Drain so detached tasks never touch a dead State through a dangling
  // group. An exception nobody consumed dies here, released on this thread.
  std::exception_ptr leftover;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->pending == 0; });
  leftover = std::exchange(state_->error, nullptr);
}

void TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->pending;
  }
  // The wrapper owns a shared_ptr to the State, so a task finishing after
  // the group's user is done waiting (destructor path) stays safe.
  pool_->submit([st = state_, f = std::move(fn)]() mutable {
    try {
      f();
    } catch (...) {
      std::lock_guard<std::mutex> lock(st->mu);
      if (!st->error) st->error = std::current_exception();
    }
    // Drop the task closure before signalling completion: once the waiter
    // wakes it may free anything the task captured, and libstdc++'s
    // refcounted internals (exception_ptr, COW error strings) synchronize
    // through atomics TSan cannot see in the prebuilt library.
    f = nullptr;
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(st->mu);
      last = --st->pending == 0;
    }
    if (last) st->cv.notify_all();
  });
}

void TaskGroup::wait() {
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->pending == 0; });
    // Take the error out of the shared State so its final release happens
    // on this thread, never on a worker racing past the notify.
    err = std::exchange(state_->error, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

// ---------------------------------------------------------------------------
// Knobs and parallel_for
// ---------------------------------------------------------------------------

void set_num_threads(int n) { g_num_threads.store(n < 1 ? 1 : n); }

int get_num_threads() {
  int n = g_num_threads.load();
  if (n == 0) {
    n = default_threads();
    g_num_threads.store(n);
  }
  return n;
}

void set_num_interop_threads(int n) {
  g_num_interop_threads.store(n < 1 ? 1 : n);
}

int get_num_interop_threads() {
  int n = g_num_interop_threads.load();
  if (n == 0) {
    n = default_threads();
    g_num_interop_threads.store(n);
  }
  return n;
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  const std::int64_t range = end - begin;
  const int threads = get_num_threads();
  if (threads <= 1 || range <= grain) {
    fn(begin, end);
    return;
  }
  std::int64_t chunks = (range + grain - 1) / grain;
  if (chunks > threads) chunks = threads;
  const std::int64_t chunk = (range + chunks - 1) / chunks;

  // Decrement and notify under `mu`: the caller owns `mu`/`cv` on its stack
  // and returns as soon as it observes zero, so a worker must be done with
  // both before the caller can see its decrement.
  std::int64_t remaining = chunks;
  std::mutex mu;
  std::condition_variable cv;

  // Handle, not reference: a concurrent set_num_threads() must not destroy
  // the pool while our chunks are queued on it.
  const std::shared_ptr<ThreadPool> pool = ThreadPool::global_handle();
  for (std::int64_t c = 1; c < chunks; ++c) {
    const std::int64_t b = begin + c * chunk;
    const std::int64_t e = std::min(end, b + chunk);
    pool->submit([&, b, e] {
      fn(b, e);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  // The caller participates in chunk 0.
  fn(begin, std::min(end, begin + chunk));
  std::unique_lock<std::mutex> lock(mu);
  --remaining;
  cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace fxcpp::rt
