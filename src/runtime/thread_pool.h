// Parallelism runtime: intra-op and inter-op thread pools.
//
// Mirrors the split PyTorch makes between ATen's *intra-op* pool (tensor
// kernels call parallel_for(); the global thread-count knob plays the role
// of OMP_NUM_THREADS in the paper's Conv-BN fusion experiment, Appendix C)
// and the *inter-op* pool used to overlap independent work, such as the
// stages of a software pipeline (Section 6.2.3) or a serving batch.
// Keeping them separate is what makes nesting deadlock-free: an inter-op
// task may block inside parallel_for() waiting on intra-op chunks, but
// intra-op chunks never wait on inter-op work.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fxcpp::rt {

// A fixed-size worker pool executing submitted closures.
//
// The pools are lazily constructed on first use via ThreadPool::global() /
// ThreadPool::inter_op() and resized when set_num_threads() /
// set_num_interop_threads() change the configured parallelism.
class ThreadPool {
 public:
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of worker threads (not counting the caller).
  int size() const { return static_cast<int>(workers_.size()); }

  // Schedule `fn` on a worker. Never blocks on task completion. If the pool
  // has been stopped (or was built with zero workers) `fn` runs inline on
  // the calling thread instead — submitted work is never silently dropped.
  void submit(std::function<void()> fn);

  // Drain every queued task, then join the workers. Idempotent; the
  // destructor calls it. Tasks queued before stop() still run on workers;
  // submissions that race with or follow stop() run inline on the caller.
  void stop();
  bool stopped() const;

  // Process-wide intra-op pool sized to the current set_num_threads() knob.
  // The returned reference is valid only until the next resize; callers that
  // hold the pool across a possible set_num_threads() call (or submit work a
  // concurrent resize could race) must use global_handle() instead.
  static ThreadPool& global();
  // Process-wide inter-op pool (graph-level parallelism) sized to the
  // current set_num_interop_threads() knob. Same lifetime caveat as
  // global(); prefer inter_op_handle() for anything longer than a call.
  static ThreadPool& inter_op();

  // Owning handles to the process-wide pools. A late set_num_threads() /
  // set_num_interop_threads() call takes effect on the *next* handle (a new
  // pool of the new size is built); pools already handed out stay alive —
  // and keep executing their queued work — until the last handle drops, so
  // a resize can never invalidate in-flight TaskGroups. This is the safe
  // answer to "the knob changed after the pool was realized": new work sees
  // the new size, old work drains on the old pool.
  static std::shared_ptr<ThreadPool> global_handle();
  static std::shared_ptr<ThreadPool> inter_op_handle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

// A waitable batch of tasks on a ThreadPool. submit() alone is
// fire-and-forget; TaskGroup adds a completion signal: run() schedules a
// task, wait() blocks until every task scheduled so far (including ones
// scheduled *by* running tasks) has finished, rethrowing the first
// exception any task raised.
//
// Tasks may call run() on their own group; wait() returns only when the
// pending count reaches zero. The group must stay alive until wait()
// returns (the destructor waits, swallowing errors). If the pool is
// stopped or destroyed mid-flight, already-queued tasks still run (the
// pool drains before joining) and later run() calls execute inline, so
// wait() never deadlocks.
class TaskGroup {
 public:
  // Non-owning: the caller guarantees `pool` outlives the group (the idiom
  // for locally owned pools).
  explicit TaskGroup(ThreadPool& pool);
  // Owning: pins the pool for the group's lifetime. Required with the
  // process-wide pools (ThreadPool::inter_op_handle()), whose current
  // instance can be swapped out by a concurrent thread-count resize.
  explicit TaskGroup(std::shared_ptr<ThreadPool> pool);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Schedule `fn` as part of this group.
  void run(std::function<void()> fn);

  // Block until all tasks complete; rethrow the first captured exception
  // (consuming it — a later wait() on the quiesced group returns clean).
  void wait();

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;
    std::exception_ptr error;
  };
  std::shared_ptr<ThreadPool> pool_;  // null deleter when built from a ref
  std::shared_ptr<State> state_;
};

// Set the number of threads used by parallel tensor kernels. `n >= 1`.
// n == 1 disables the pool entirely (kernels run inline on the caller),
// reproducing the paper's OMP_NUM_THREADS=1 configuration.
void set_num_threads(int n);

// Current intra-op thread setting (defaults to hardware_concurrency).
int get_num_threads();

// Inter-op (graph-level) parallelism knob, `n >= 1`. Defaults to
// hardware_concurrency; independent of the intra-op setting, like
// torch.set_num_interop_threads. Unlike its torch namesake, a late call —
// after the pool has been realized — is not ignored: the next
// ThreadPool::inter_op()/inter_op_handle() serves a pool of the new size,
// while handles to the old pool stay valid until released.
void set_num_interop_threads(int n);
int get_num_interop_threads();

// Run fn(begin, end) over [begin, end) split into roughly equal chunks of at
// least `grain` iterations, using the intra-op pool. Blocks until all chunks
// complete. With one thread configured (or a tiny range) runs inline.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace fxcpp::rt
