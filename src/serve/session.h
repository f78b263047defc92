// Inference serving front-end: an onnxruntime-style session over a
// compiled, planned, guarded GraphModule.
//
// The paper treats fx-captured graphs as artifacts to be transformed and
// then deployed; everything below the line already exists in this repo —
// planned tapes, the guard-keyed multi-plan cache (core/plan_cache.h),
// the resilient fallback ladder — and this layer is the traffic front-end
// that composes them:
//
//   clients --submit()--> bounded queue --batcher--> run_planned_batched
//                 |                          |               |
//            admission control        dynamic batching   PlanCache hit
//
// Dynamic batching. Single-sample requests whose tensors agree on dtype and
// every dim but dim 0 are coalesced into one batched planned run — the
// serving analogue of the multi-plan cache's batch-dim bucketing: the
// combined row count lands in a power-of-two PlanCache bucket
// (PlanCacheOptions::bucket_batch_dim), so a whole distribution of batch
// sizes executes against a bounded set of cached plans. A batch flushes
// when it reaches ServeOptions::max_batch_rows or when the oldest member
// has waited ServeOptions::max_queue_delay.
//
// Deadlines & cancellation. The batcher runs each batch inline and
// publishes it to the session's watchdog thread for the run. The watchdog
// sleeps while no batch is in flight; during a run it sweeps the batch
// every batch_poll and answers any request whose deadline expired (or whose
// cancel token fired) at once, even while a kernel is still inside one long
// instruction. The batcher still sees the run finish, so a late result or
// exception is always observed (counted in SessionStats::late_results /
// late_errors), never dropped.
//
// Resilience (PR 9). Four cooperating mechanisms wrap the execution path;
// all of them default ON with thresholds that are no-ops for healthy
// traffic:
//
//   * load shedding  — requests carry a Priority; once the queue passes the
//     low/normal watermarks, lower-priority submissions are shed at the
//     door with ErrorCode::AdmissionRejected so paying (High) traffic keeps
//     its latency budget;
//   * circuit breaker — a per-session resilience::CircuitBreaker gates
//     every engine attempt; when the engine is evidently broken the session
//     answers ErrorCode::CircuitOpen immediately instead of burning retry
//     ladders, then probes its way back closed (half-open);
//   * retry/backoff  — a failed request's rescue is re-attempted under
//     resilience::RetryPolicy: bounded attempts, deterministic seeded
//     exponential backoff, a retry budget capping amplification, and
//     deadline awareness (a backoff that outlives the deadline is denied).
//     The FIRST per-request rescue after a failed batch is free — it is
//     the isolation mechanism, not a retry;
//   * health rungs   — a resilience::HealthMonitor watches engine-run
//     outcomes and picks the execution rung: Healthy serves coalesced
//     planned batches, Degraded serves one request per planned run, Broken
//     serves per-request Interpreter runs (maximum isolation). Recovery is
//     earned back one rung at a time.
//
// Failure isolation. A batch run that throws does not poison its
// co-batched requests: the batcher degrades to per-request
// GraphModule::run_resilient calls, so one poisoned input fails alone with
// its own ExecError code while its neighbors still get answers. A batch
// whose inputs the planner rejects (GuardViolation / ArityMismatch: a
// malformed request, e.g. a wrong trailing dim) is answered with that code
// once — no rescue, and nothing recorded in health or the breaker, so
// malformed traffic cannot knock a healthy session off its rung.
//
// Sharing. Multiple concurrent sessions may serve the same GraphModule
// (shared weights): the planned cache path is thread-safe for concurrent
// mixed-shape callers, and each session runs its batches on its own
// batcher thread.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/exec_hooks.h"
#include "core/graph_module.h"
#include "resilience/circuit_breaker.h"
#include "resilience/exec_error.h"
#include "resilience/health.h"
#include "resilience/retry_policy.h"
#include "tensor/tensor.h"

namespace fxcpp::serve {

// Request priority for watermark shedding. Low is shed first, High is shed
// only when the queue is entirely full.
enum class Priority { Low = 0, Normal = 1, High = 2 };

const char* priority_name(Priority p);

struct ServeOptions {
  // Admission bound: submissions beyond this many queued requests are
  // rejected immediately with ErrorCode::AdmissionRejected (shed load at
  // the door instead of growing latency without bound).
  std::size_t max_queue_depth = 256;
  // Flush a forming batch once its combined dim-0 rows reach this.
  std::int64_t max_batch_rows = 16;
  // Flush a forming batch once its oldest member has waited this long
  // (the latency the batcher may add to a lone request). Keep it SHORT:
  // under saturation batches fill from requests that accumulated while the
  // previous run executed, so waiting longer mostly buys dead air (A11
  // measures this directly — see bench/bench_serving.cc).
  std::chrono::microseconds max_queue_delay{250};
  // Sweep period of the watchdog while a batch is in flight: how often it
  // answers requests whose deadline expired or whose cancel fired mid-run.
  std::chrono::milliseconds batch_poll{1};
  // Coalesce compatible requests (false = every request runs alone; the
  // bench's control arm).
  bool batching = true;
  // Degrade a failed batch through per-request run_resilient (false =
  // every co-batched request fails with the batch's error).
  bool resilient = true;

  // --- resilience (PR 9) -------------------------------------------------
  // Queue depth at which Low-priority submissions are shed (0 = derive
  // max_queue_depth / 2 at construction).
  std::size_t shed_low_watermark = 0;
  // Queue depth at which Normal-priority submissions are shed too (0 =
  // derive 3 * max_queue_depth / 4). High priority is only shed at full
  // queue depth.
  std::size_t shed_normal_watermark = 0;
  // Opt-in: shed deadline-carrying submissions whose estimated queue wait
  // (EMA of recent run times x queued runs) already exceeds their deadline
  // — they would only expire in the queue. OFF by default because a
  // deadline request that expires in queue is answered DeadlineExceeded,
  // and callers may depend on that distinction.
  bool shed_hopeless = false;
  // Circuit breaker over engine-run outcomes (breaker.enabled=false turns
  // the gate off entirely).
  resilience::BreakerOptions breaker;
  // Retry/backoff for per-request rescue attempts.
  resilience::RetryOptions retry;
  // Health state machine driving the execution rung.
  resilience::HealthOptions health;
  // Observer hooks threaded into every engine run this session issues
  // (batched, rescue, probe): the chaos harness and anomaly watchdog ride
  // here. Must outlive the session. Not owned.
  fx::ExecHooks* hooks = nullptr;
};

// What a client gets back. `ok` responses carry the output tensor (always
// an owning copy — never a view into batch or arena memory); failures
// carry the ExecError taxonomy code plus the rendered message.
struct Response {
  bool ok = false;
  ErrorCode code = ErrorCode::Unknown;
  std::string error;
  Tensor output;
  std::int64_t batch_rows = 0;     // rows in the run that served this
  std::size_t batch_requests = 0;  // requests coalesced into that run
  std::uint32_t attempts = 0;      // engine runs spent on this request
                                   // (0 = shed/expired before any run)
  double queue_seconds = 0.0;      // submit -> execution start
  double total_seconds = 0.0;      // submit -> response
};

// Handle returned by submit(): the response future plus a cancellation
// token (set true any time; a request cancelled before or during its run
// resolves to ErrorCode::Cancelled).
struct Ticket {
  std::uint64_t id = 0;
  std::future<Response> response;
  std::shared_ptr<std::atomic<bool>> cancel;
};

struct SessionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   // shed at admission (queue full / watermark
                                // / stopping) — shed_* below break it down
  std::uint64_t completed = 0;  // ok responses
  std::uint64_t failed = 0;     // error responses (excl. cancel/deadline)
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;    // deadline exceeded (queue or mid-run)
  std::uint64_t batches = 0;    // planned runs issued
  std::uint64_t batched_rows = 0;     // total rows across those runs
  std::uint64_t degraded_batches = 0; // batches rescued via run_resilient
  std::uint64_t late_results = 0;  // results that landed after the request
                                   // was already answered (deadline/cancel)
  std::uint64_t late_errors = 0;   // batch errors observed after every
                                   // member was already answered
  std::int64_t peak_batch_rows = 0;

  // --- resilience (PR 9) -------------------------------------------------
  std::uint64_t shed_low = 0;     // Low shed at the low watermark
  std::uint64_t shed_normal = 0;  // Normal shed at the normal watermark
  std::uint64_t shed_high = 0;    // High shed at full queue depth
  std::uint64_t shed_hopeless = 0;   // opt-in estimated-wait sheds
  std::uint64_t breaker_rejected = 0;  // answered ErrorCode::CircuitOpen
  std::uint64_t retries = 0;           // rescue re-attempts granted
  std::uint64_t degraded_rung_runs = 0;  // engine runs issued below the
                                         // PlannedBatched rung
  // Error responses by taxonomy code (index = static_cast<ErrorCode>);
  // rendered in to_json keyed by error_code_name.
  std::array<std::uint64_t, kNumErrorCodes> by_code{};
  // Snapshots of the resilience machinery, embedded in to_json.
  resilience::BreakerStats breaker;
  resilience::HealthStats health;
  resilience::RetryStats retry;

  // --- micro-kernel layer (PR 10) ----------------------------------------
  // Process-wide weight-pack / B-panel cache accounting (PackCache); the
  // active SIMD tier is rendered alongside in to_json.
  std::uint64_t kernel_pack_hits = 0;
  std::uint64_t kernel_pack_misses = 0;
  std::uint64_t kernel_panel_hits = 0;
  std::uint64_t kernel_panel_misses = 0;

  std::string to_json() const;
};

// One serving session: owns the request queue, the batcher thread (which
// runs every batch) and the watchdog thread. submit() never blocks on
// execution; shutdown() (or the destructor) drains already-admitted
// requests before returning.
class InferenceSession {
 public:
  // Serve an already-prepared module (caller ran passes::compile_planned
  // or accepts unplanned-tape fallback). Recompiles if needed.
  explicit InferenceSession(std::shared_ptr<fx::GraphModule> gm,
                            ServeOptions opts = {});
  // Convenience: prepare the module for serving first —
  // passes::compile_planned at `example` with a batch-dim-bucketed
  // PlanCache — then serve it.
  InferenceSession(std::shared_ptr<fx::GraphModule> gm, const Tensor& example,
                   ServeOptions opts = {});
  ~InferenceSession();

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  // Enqueue one request (tensor-in/tensor-out graphs; dim 0 is the batch
  // dim and may be any size >= 0). `deadline_seconds` > 0 bounds
  // submit-to-response wall clock; an expired request is answered
  // ErrorCode::DeadlineExceeded even while its batch is still running.
  // Admission failures resolve the ticket immediately
  // (ErrorCode::AdmissionRejected) — submit() itself never throws on load.
  Ticket submit(Tensor input, double deadline_seconds = 0.0,
                Priority priority = Priority::Normal);

  // Synchronous convenience: submit and wait.
  Response run(Tensor input, double deadline_seconds = 0.0,
               Priority priority = Priority::Normal);

  // Stop admitting, drain every queued request (they still get real
  // responses), join the batcher. Idempotent; the destructor calls it.
  void shutdown();

  SessionStats stats() const;
  const ServeOptions& options() const { return opts_; }
  const std::shared_ptr<fx::GraphModule>& module() const { return gm_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::uint64_t id = 0;
    Tensor input;
    std::promise<Response> promise;
    std::shared_ptr<std::atomic<bool>> cancel;
    Clock::time_point enqueue;
    Clock::time_point deadline;  // Clock::time_point::max() = none
    Priority priority = Priority::Normal;
    bool answered = false;
    bool probe = false;           // this request's run is a breaker probe
    std::uint32_t attempts = 0;   // engine runs spent so far
  };

  void batcher_loop();
  // Mid-run deadline/cancel sweeps over the batch process_batch publishes
  // in watched_; idle (no wake-ups) while none is in flight.
  void watchdog_loop();
  // Pop the head request and coalesce queued requests of its compatibility
  // class (same dtype + trailing dims) until max_batch_rows or the head's
  // max_queue_delay flush point. Called with `lock` held; may wait on cv_.
  // Coalescing is suppressed below the PlannedBatched health rung.
  std::vector<Request> form_batch(std::unique_lock<std::mutex>& lock);
  void process_batch(std::vector<Request> batch);
  // Per-request rescue: the isolation run after a failed batch (free) plus
  // RetryPolicy-gated re-attempts, each gated on the health rung. Feeds
  // breaker/health outcomes. `from_failed_batch` marks already-answered
  // members' batch outcome as the engine failure it was.
  void rescue_requests(std::vector<Request>& reqs, Clock::time_point start,
                       bool from_failed_batch);
  // Poll breaker trips observed by the batcher; forces the health machine
  // to at least Degraded on a fresh trip.
  void sync_breaker_trips();
  static bool compatible(const Tensor& a, const Tensor& b);

  void respond_error(Request& r, ErrorCode code, const std::string& msg);
  void respond_ok(Request& r, Tensor out, std::int64_t batch_rows,
                  std::size_t batch_requests, Clock::time_point start);

  std::shared_ptr<fx::GraphModule> gm_;
  ServeOptions opts_;

  resilience::CircuitBreaker breaker_;
  resilience::HealthMonitor health_;
  resilience::RetryPolicy retry_;
  std::uint64_t seen_trips_ = 0;  // batcher-thread-only trip watermark

  mutable std::mutex mu_;  // queue_, stopping_, next_id_
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;

  mutable std::mutex stats_mu_;
  SessionStats stats_;
  double ema_run_seconds_ = 0.0;  // guarded by stats_mu_; shed_hopeless

  // The in-flight batch, published by process_batch for the watchdog. Every
  // respond_* on a published batch happens under watch_mu_.
  std::mutex watch_mu_;  // watched_, watchdog_idle_, watch_stop_
  std::condition_variable watch_cv_;
  std::vector<Request>* watched_ = nullptr;
  bool watchdog_idle_ = false;  // waiting for a batch: publish must notify
  bool watch_stop_ = false;

  std::thread watchdog_;  // joined by shutdown() after the batcher
  std::thread batcher_;   // started last in the ctor, joined by shutdown()
};

}  // namespace fxcpp::serve
