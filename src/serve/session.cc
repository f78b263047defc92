#include "serve/session.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <sstream>
#include <utility>

#include "core/plan_cache.h"
#include "kernels/dispatch.h"
#include "passes/memory_planner.h"
#include "tensor/pack_cache.h"

namespace fxcpp::serve {

namespace {

double secs(std::chrono::steady_clock::time_point from,
            std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::Low: return "low";
    case Priority::Normal: return "normal";
    case Priority::High: return "high";
  }
  return "?";
}

std::string SessionStats::to_json() const {
  std::ostringstream os;
  os << "{\"admitted\": " << admitted << ", \"rejected\": " << rejected
     << ", \"completed\": " << completed << ", \"failed\": " << failed
     << ", \"cancelled\": " << cancelled << ", \"expired\": " << expired
     << ", \"batches\": " << batches << ", \"batched_rows\": " << batched_rows
     << ", \"degraded_batches\": " << degraded_batches
     << ", \"late_results\": " << late_results
     << ", \"late_errors\": " << late_errors
     << ", \"peak_batch_rows\": " << peak_batch_rows
     << ", \"shed_low\": " << shed_low << ", \"shed_normal\": " << shed_normal
     << ", \"shed_high\": " << shed_high
     << ", \"shed_hopeless\": " << shed_hopeless
     << ", \"breaker_rejected\": " << breaker_rejected
     << ", \"retries\": " << retries
     << ", \"degraded_rung_runs\": " << degraded_rung_runs
     << ", \"by_code\": {";
  for (std::size_t c = 0; c < by_code.size(); ++c) {
    if (c) os << ", ";
    os << "\"" << error_code_name(static_cast<ErrorCode>(c))
       << "\": " << by_code[c];
  }
  os << "}, \"breaker\": " << breaker.to_json()
     << ", \"health\": " << health.to_json()
     << ", \"retry\": " << retry.to_json()
     << ", \"kernels\": {\"isa\": \""
     << kernels::isa_name(kernels::active_isa())
     << "\", \"pack_hits\": " << kernel_pack_hits
     << ", \"pack_misses\": " << kernel_pack_misses
     << ", \"panel_hits\": " << kernel_panel_hits
     << ", \"panel_misses\": " << kernel_panel_misses << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

namespace {

std::shared_ptr<fx::GraphModule> prepare_for_serving(
    std::shared_ptr<fx::GraphModule> gm, const Tensor& example) {
  fx::PlanCacheOptions co;
  co.bucket_batch_dim = true;  // coalesced row counts land in p2 buckets
  passes::compile_planned(*gm, {example}, co);
  return gm;
}

ServeOptions normalize(ServeOptions opts) {
  if (opts.max_queue_depth == 0) opts.max_queue_depth = 1;
  if (opts.max_batch_rows < 1) opts.max_batch_rows = 1;
  if (opts.batch_poll.count() < 1) opts.batch_poll = std::chrono::milliseconds(1);
  // Derived watermarks: Low sheds at half depth, Normal at three quarters.
  if (opts.shed_low_watermark == 0) {
    opts.shed_low_watermark = std::max<std::size_t>(1, opts.max_queue_depth / 2);
  }
  if (opts.shed_normal_watermark == 0) {
    opts.shed_normal_watermark =
        std::max<std::size_t>(1, opts.max_queue_depth - opts.max_queue_depth / 4);
  }
  opts.shed_normal_watermark =
      std::max(opts.shed_normal_watermark, opts.shed_low_watermark);
  return opts;
}

}  // namespace

InferenceSession::InferenceSession(std::shared_ptr<fx::GraphModule> gm,
                                   ServeOptions opts)
    : gm_(std::move(gm)),
      opts_(normalize(opts)),
      breaker_(opts_.breaker),
      health_(opts_.health),
      retry_(opts_.retry) {
  if (!gm_) throw std::invalid_argument("InferenceSession: null module");
  if (!gm_->compiled()) gm_->recompile();
  watchdog_ = std::thread([this] { watchdog_loop(); });
  batcher_ = std::thread([this] { batcher_loop(); });
}

InferenceSession::InferenceSession(std::shared_ptr<fx::GraphModule> gm,
                                   const Tensor& example, ServeOptions opts)
    : InferenceSession(prepare_for_serving(std::move(gm), example), opts) {}

InferenceSession::~InferenceSession() { shutdown(); }

void InferenceSession::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  {
    std::lock_guard<std::mutex> wl(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_one();
  if (watchdog_.joinable()) watchdog_.join();
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

Ticket InferenceSession::submit(Tensor input, double deadline_seconds,
                                Priority priority) {
  Ticket t;
  t.cancel = std::make_shared<std::atomic<bool>>(false);
  std::promise<Response> promise;
  t.response = promise.get_future();

  const Clock::time_point now = Clock::now();
  Request r;
  r.input = std::move(input);
  r.cancel = t.cancel;
  r.enqueue = now;
  r.priority = priority;
  r.deadline = deadline_seconds > 0.0
                   ? now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(deadline_seconds))
                   : Clock::time_point::max();

  if (r.input.dim() < 1) {
    Response resp;
    resp.code = ErrorCode::GuardViolation;
    resp.error = "serve: request tensor must have a batch dim (dim >= 1)";
    promise.set_value(std::move(resp));
    std::lock_guard<std::mutex> sl(stats_mu_);
    ++stats_.rejected;
    ++stats_.by_code[static_cast<std::size_t>(ErrorCode::GuardViolation)];
    return t;
  }

  // Opt-in hopeless shed: a deadline'd request whose estimated queue wait
  // already exceeds its deadline would only expire in queue — shed it now.
  bool hopeless = false;
  if (opts_.shed_hopeless && deadline_seconds > 0.0) {
    double ema;
    {
      std::lock_guard<std::mutex> sl(stats_mu_);
      ema = ema_run_seconds_;
    }
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      depth = queue_.size();
    }
    const double queued_runs =
        1.0 + static_cast<double>(depth) /
                  static_cast<double>(opts_.max_batch_rows);
    hopeless = ema > 0.0 && ema * queued_runs > deadline_seconds;
  }

  bool admitted = false;
  bool watermark_shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t.id = r.id = next_id_++;
    const std::size_t depth = queue_.size();
    const bool shed =
        hopeless || depth >= opts_.max_queue_depth ||
        (priority == Priority::Low && depth >= opts_.shed_low_watermark) ||
        (priority == Priority::Normal &&
         depth >= opts_.shed_normal_watermark);
    watermark_shed = shed && depth < opts_.max_queue_depth && !hopeless;
    if (!stopping_ && !shed) {
      r.promise = std::move(promise);
      queue_.push_back(std::move(r));
      admitted = true;
    }
  }
  if (admitted) {
    cv_.notify_all();
    retry_.on_admitted();
    std::lock_guard<std::mutex> sl(stats_mu_);
    ++stats_.admitted;
    return t;
  }
  Response resp;
  resp.code = ErrorCode::AdmissionRejected;
  resp.error = watermark_shed
                   ? std::string("serve: ") + priority_name(priority) +
                         "-priority request shed at queue watermark"
                   : (hopeless
                          ? "serve: request shed (estimated wait exceeds "
                            "deadline)"
                          : "serve: request rejected at admission (queue full "
                            "or session shutting down)");
  promise.set_value(std::move(resp));
  std::lock_guard<std::mutex> sl(stats_mu_);
  ++stats_.rejected;
  ++stats_.by_code[static_cast<std::size_t>(ErrorCode::AdmissionRejected)];
  if (hopeless) {
    ++stats_.shed_hopeless;
  } else {
    // Break sheds down by the priority that was turned away (full-queue
    // and stopping sheds land here too — the priority still tells the
    // operator whose traffic is being lost).
    switch (priority) {
      case Priority::Low: ++stats_.shed_low; break;
      case Priority::Normal: ++stats_.shed_normal; break;
      case Priority::High: ++stats_.shed_high; break;
    }
  }
  return t;
}

Response InferenceSession::run(Tensor input, double deadline_seconds,
                               Priority priority) {
  Ticket t = submit(std::move(input), deadline_seconds, priority);
  return t.response.get();
}

SessionStats InferenceSession::stats() const {
  SessionStats s;
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    s = stats_;
  }
  s.breaker = breaker_.stats();
  s.health = health_.stats();
  s.retry = retry_.stats();
  s.retries = s.retry.retries;
  const PackCache::GlobalStats ks = PackCache::global_stats();
  s.kernel_pack_hits = ks.hits;
  s.kernel_pack_misses = ks.misses;
  s.kernel_panel_hits = ks.panel_hits;
  s.kernel_panel_misses = ks.panel_misses;
  return s;
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

bool InferenceSession::compatible(const Tensor& a, const Tensor& b) {
  if (a.dtype() != b.dtype() || a.dim() != b.dim() || a.dim() < 1) return false;
  for (std::int64_t d = 1; d < a.dim(); ++d) {
    if (a.size(static_cast<int>(d)) != b.size(static_cast<int>(d))) {
      return false;
    }
  }
  return true;
}

void InferenceSession::batcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, fully drained
      batch = form_batch(lock);
    }
    process_batch(std::move(batch));
  }
}

void InferenceSession::watchdog_loop() {
  std::unique_lock<std::mutex> wl(watch_mu_);
  while (!watch_stop_) {
    if (!watched_) {
      // No batch in flight: sleep until process_batch publishes one.
      watchdog_idle_ = true;
      watch_cv_.wait(wl, [this] { return watch_stop_ || watched_; });
      watchdog_idle_ = false;
      continue;
    }
    watch_cv_.wait_for(wl, opts_.batch_poll);
    if (!watched_) continue;
    const Clock::time_point now = Clock::now();
    for (Request& r : *watched_) {
      if (r.answered) continue;
      if (r.cancel && r.cancel->load()) {
        respond_error(r, ErrorCode::Cancelled, "serve: cancelled mid-run");
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.cancelled;
      } else if (r.deadline <= now) {
        respond_error(r, ErrorCode::DeadlineExceeded,
                      "serve: deadline expired mid-run");
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.expired;
      }
    }
  }
}

std::vector<InferenceSession::Request> InferenceSession::form_batch(
    std::unique_lock<std::mutex>& lock) {
  std::vector<Request> batch;
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Below the PlannedBatched rung requests run one per engine invocation:
  // a degraded engine must not be handed whole batches to take down.
  if (!opts_.batching ||
      health_.rung() != resilience::ExecRung::PlannedBatched) {
    return batch;
  }

  std::int64_t rows = batch.front().input.size(0);
  const Clock::time_point flush_at =
      batch.front().enqueue + opts_.max_queue_delay;
  for (;;) {
    // Sweep the queue for members of the head's compatibility class. A
    // compatible request that would overflow max_batch_rows stays queued
    // for its own batch; incompatible ones keep their arrival order.
    for (auto it = queue_.begin();
         it != queue_.end() && rows < opts_.max_batch_rows;) {
      if (compatible(batch.front().input, it->input) &&
          rows + it->input.size(0) <= opts_.max_batch_rows) {
        rows += it->input.size(0);
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (rows >= opts_.max_batch_rows || stopping_) break;
    if (Clock::now() >= flush_at) break;
    // Wait for more traffic until the head's flush point; a submit() or
    // shutdown() notifies cv_ and re-runs the sweep.
    if (cv_.wait_until(lock, flush_at) == std::cv_status::timeout) break;
  }
  return batch;
}

void InferenceSession::respond_error(Request& r, ErrorCode code,
                                     const std::string& msg) {
  if (r.answered) return;
  Response resp;
  resp.code = code;
  resp.error = msg;
  resp.attempts = r.attempts;
  resp.total_seconds = secs(r.enqueue, Clock::now());
  r.promise.set_value(std::move(resp));
  r.answered = true;
  std::lock_guard<std::mutex> sl(stats_mu_);
  ++stats_.by_code[static_cast<std::size_t>(code)];
}

void InferenceSession::respond_ok(Request& r, Tensor out,
                                  std::int64_t batch_rows,
                                  std::size_t batch_requests,
                                  Clock::time_point start) {
  if (r.answered) return;
  Response resp;
  resp.ok = true;
  resp.output = std::move(out);
  resp.batch_rows = batch_rows;
  resp.batch_requests = batch_requests;
  resp.attempts = r.attempts;
  resp.queue_seconds = secs(r.enqueue, start);
  resp.total_seconds = secs(r.enqueue, Clock::now());
  r.promise.set_value(std::move(resp));
  r.answered = true;
}

void InferenceSession::sync_breaker_trips() {
  const std::uint64_t trips = breaker_.stats().trips;
  if (trips > seen_trips_) {
    seen_trips_ = trips;
    // A tripped engine re-probing straight into full batching re-risks
    // whole batches: force at least Degraded until recovery is earned.
    health_.on_breaker_trip();
  }
}

void InferenceSession::process_batch(std::vector<Request> batch) {
  // Weed requests already dead before execution starts.
  const Clock::time_point now0 = Clock::now();
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& r : batch) {
    if (r.cancel && r.cancel->load()) {
      respond_error(r, ErrorCode::Cancelled, "serve: cancelled in queue");
      std::lock_guard<std::mutex> sl(stats_mu_);
      ++stats_.cancelled;
    } else if (r.deadline <= now0) {
      respond_error(r, ErrorCode::DeadlineExceeded,
                    "serve: deadline expired in queue");
      std::lock_guard<std::mutex> sl(stats_mu_);
      ++stats_.expired;
    } else {
      live.push_back(std::move(r));
    }
  }
  if (live.empty()) return;

  // Circuit breaker gate, per request: rejects fail fast without ever
  // touching the engine; probes run and report back with probe=true.
  {
    std::vector<Request> gated;
    gated.reserve(live.size());
    std::uint64_t rejected = 0;
    for (Request& r : live) {
      switch (breaker_.on_request()) {
        case resilience::BreakerDecision::Reject:
          respond_error(r, ErrorCode::CircuitOpen,
                        "serve: circuit breaker open — request failed fast");
          ++rejected;
          break;
        case resilience::BreakerDecision::Probe:
          r.probe = true;
          gated.push_back(std::move(r));
          break;
        case resilience::BreakerDecision::Admit:
          gated.push_back(std::move(r));
          break;
      }
    }
    if (rejected) {
      std::lock_guard<std::mutex> sl(stats_mu_);
      stats_.breaker_rejected += rejected;
    }
    live = std::move(gated);
  }
  if (live.empty()) return;

  const Clock::time_point start = Clock::now();

  // Broken rung: skip the planned batch entirely — serve each request with
  // a per-request maximally-isolated run (rescue path, interpreter-only).
  if (health_.rung() == resilience::ExecRung::Interpreter) {
    rescue_requests(live, start, /*from_failed_batch=*/false);
    sync_breaker_trips();
    return;
  }

  std::vector<Tensor> inputs;
  inputs.reserve(live.size());
  std::int64_t rows = 0;
  for (Request& r : live) {
    inputs.push_back(r.input);
    rows += r.input.size(0);
    ++r.attempts;
  }
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    ++stats_.batches;
    stats_.batched_rows += static_cast<std::uint64_t>(rows);
    stats_.peak_batch_rows = std::max(stats_.peak_batch_rows, rows);
    if (health_.rung() != resilience::ExecRung::PlannedBatched) {
      ++stats_.degraded_rung_runs;
    }
  }

  // One planned run over the coalesced batch, inline on this thread. The
  // batch is published to the watchdog for the run, which answers members
  // whose deadline expires or cancel token fires mid-run; their batch slot
  // keeps computing (cooperative batch, no per-row preemption), and the
  // eventual result or error is counted late, not delivered.
  bool wake;
  {
    std::lock_guard<std::mutex> wl(watch_mu_);
    watched_ = &live;
    wake = watchdog_idle_;
  }
  if (wake) watch_cv_.notify_one();
  std::vector<Tensor> results;
  bool failed = false;
  ErrorCode code = ErrorCode::NodeFailure;
  std::string msg;
  try {
    results = gm_->run_planned_batched(inputs, opts_.hooks);
  } catch (const ExecError& e) {
    failed = true;
    code = e.code();
    msg = e.what();
  } catch (const std::exception& e) {
    failed = true;
    msg = e.what();
  } catch (...) {
    failed = true;
    msg = "serve: batch run threw a non-standard exception";
  }
  {
    // Un-publish before touching `live` again: from here on only this
    // thread answers its members.
    std::lock_guard<std::mutex> wl(watch_mu_);
    watched_ = nullptr;
  }

  std::size_t unanswered = 0;
  for (const Request& r : live) unanswered += r.answered ? 0 : 1;

  if (failed && is_input_error(code)) {
    // The planner rejected the inputs before any kernel ran (members share
    // their trailing dims, so each one is malformed): answer every member
    // once with that code. No engine ran, so there is nothing to rescue and
    // no outcome for health or the breaker.
    for (Request& r : live) {
      breaker_.on_no_run(r.probe);
      respond_error(r, code, msg);
    }
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.failed += unanswered;
    if (unanswered == 0) ++stats_.late_errors;
    return;
  }

  if (failed) {
    health_.record(false);
    if (unanswered == 0) {
      // Every member was already answered (deadline/cancel); the error is
      // observed and counted, never dropped.
      for (Request& r : live) breaker_.on_outcome(false, r.probe);
      sync_breaker_trips();
      std::lock_guard<std::mutex> sl(stats_mu_);
      ++stats_.late_errors;
      return;
    }
    if (opts_.resilient) {
      {
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.degraded_batches;
      }
      rescue_requests(live, start, /*from_failed_batch=*/true);
      sync_breaker_trips();
      return;
    }
    for (Request& r : live) {
      respond_error(r, code, msg);
      breaker_.on_outcome(false, r.probe);
    }
    sync_breaker_trips();
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.failed += unanswered;
    return;
  }

  // Success: deliver each request its split of the batched output.
  health_.record(true);
  for (Request& r : live) breaker_.on_outcome(true, r.probe);
  std::uint64_t completed = 0;
  std::uint64_t late = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i].answered) {
      ++late;  // result arrived after a deadline/cancel response went out
      continue;
    }
    respond_ok(live[i], std::move(results[i]), rows, live.size(), start);
    ++completed;
  }
  std::lock_guard<std::mutex> sl(stats_mu_);
  stats_.completed += completed;
  stats_.late_results += late;
  const double run_seconds = secs(start, Clock::now());
  ema_run_seconds_ = ema_run_seconds_ == 0.0
                         ? run_seconds
                         : 0.8 * ema_run_seconds_ + 0.2 * run_seconds;
}

void InferenceSession::rescue_requests(std::vector<Request>& reqs,
                                       Clock::time_point start,
                                       bool from_failed_batch) {
  // Per-request rescue: one poisoned input must fail alone. Guards are
  // specialized to the session's example shape, so they stay off here (the
  // plan-cache path already keys safety by signature).
  fx::ResilientOptions base;
  base.check_guards = false;
  base.hooks = opts_.hooks;

  for (Request& r : reqs) {
    if (r.answered) {
      // Answered by a deadline/cancel sweep, but the engine run made on its
      // behalf genuinely failed — the breaker still needs that outcome.
      if (from_failed_batch) breaker_.on_outcome(false, r.probe);
      continue;
    }
    bool engine_ok = false;
    bool first = true;
    ErrorCode code = ErrorCode::Unknown;
    std::string msg;
    for (;;) {
      if (!first) {
        // Re-attempts are gated by the retry policy: bounded attempts,
        // budget tokens, and a backoff that must fit the deadline. The
        // first rescue run is free — it's isolation, not a retry.
        double remaining = -1.0;
        if (r.deadline != Clock::time_point::max()) {
          remaining = secs(Clock::now(), r.deadline);
          if (remaining <= 0.0) {
            respond_error(r, ErrorCode::DeadlineExceeded,
                          "serve: deadline expired during rescue");
            std::lock_guard<std::mutex> sl(stats_mu_);
            ++stats_.expired;
            break;
          }
        }
        if (r.cancel && r.cancel->load()) {
          respond_error(r, ErrorCode::Cancelled,
                        "serve: cancelled during rescue");
          std::lock_guard<std::mutex> sl(stats_mu_);
          ++stats_.cancelled;
          break;
        }
        double backoff = 0.0;
        if (!retry_.acquire(code, static_cast<int>(r.attempts) + 1, remaining,
                            r.id, &backoff)) {
          respond_error(r, code, msg);
          std::lock_guard<std::mutex> sl(stats_mu_);
          ++stats_.failed;
          break;
        }
        if (backoff > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        }
      }
      first = false;

      // The rung may step down between attempts (this very rescue feeds the
      // health window): Broken narrows the ladder to the Interpreter alone.
      fx::ResilientOptions ro = base;
      const resilience::ExecRung rung = health_.rung();
      if (rung == resilience::ExecRung::Interpreter) ro.try_tape = false;
      if (rung != resilience::ExecRung::PlannedBatched) {
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.degraded_rung_runs;
      }
      ++r.attempts;
      try {
        Tensor out = gm_->run_resilient(r.input, ro);
        health_.record(true);
        engine_ok = true;
        respond_ok(r, std::move(out), r.input.size(0), 1, start);
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.completed;
        break;
      } catch (const ExecError& e) {
        code = e.code();
        msg = e.what();
      } catch (const std::exception& e) {
        code = ErrorCode::NodeFailure;
        msg = e.what();
      }
      health_.record(false);
    }
    breaker_.on_outcome(engine_ok, r.probe);
    sync_breaker_trips();
  }
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.retries = retry_.stats().retries;
  }
}

}  // namespace fxcpp::serve
