// CircuitBreaker — fail-fast guard in front of an execution engine.
//
// A serving session that keeps feeding requests into a broken engine turns
// one fault into a latency storm: every request burns a full retry ladder
// before failing, the queue grows, and tail latency poisons even the
// requests that would have succeeded. The breaker is the standard managed
// response (cf. onnxruntime hosting's session error paths): count failures,
// and when the engine is evidently broken stop calling it — answer
// ErrorCode::CircuitOpen immediately — until a controlled probe shows it
// recovered.
//
//   Closed ──(consecutive failures >= threshold, or window error rate
//             >= threshold over >= min_samples)──> Open
//   Open ──(cooldown_rejections fast-fails, + seeded jitter)──> HalfOpen
//   HalfOpen ──(probes_to_close probe successes)──> Closed
//   HalfOpen ──(any probe failure)──> Open   (a "reopen")
//
// Determinism: everything is counter-driven — no wall clock. The Open
// cooldown is a *rejection count*, not a duration, so a test (or the chaos
// bench) that feeds a fixed outcome sequence sees the exact same state
// trajectory every run; the per-trip cooldown jitter (which stops repeated
// trips from synchronizing across sessions) comes from an Rng seeded at
// construction, so it too replays identically for a given seed.
//
// Thread safety: all entry points are internally synchronized; the serving
// batcher, its retry loop, and stats() readers may call concurrently.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "resilience/exec_error.h"
#include "runtime/rng.h"

namespace fxcpp::resilience {

enum class BreakerState { Closed, Open, HalfOpen };

const char* breaker_state_name(BreakerState s);

// What the breaker tells a caller about to do work.
enum class BreakerDecision {
  Admit,  // Closed: run normally
  Probe,  // HalfOpen: run, and report the outcome with probe=true
  Reject, // Open (or HalfOpen with all probes outstanding): fail fast
};

struct BreakerOptions {
  bool enabled = true;
  // Trip on this many consecutive failures (engine runs, not requests).
  int consecutive_failures = 5;
  // ...or on this error rate over the sliding window, once it holds at
  // least min_samples outcomes.
  double error_rate = 0.6;
  std::size_t window = 32;
  std::size_t min_samples = 8;
  // Open -> HalfOpen after this many fast-fails, plus a deterministic
  // seeded jitter in [0, cooldown_jitter] drawn per trip.
  int cooldown_rejections = 16;
  int cooldown_jitter = 4;
  // HalfOpen: how many probes may run concurrently, and how many must
  // succeed (without any failing) to close the breaker.
  int half_open_probes = 2;
  int probes_to_close = 2;
  std::uint64_t seed = 0x5EEDull;
};

struct BreakerStats {
  BreakerState state = BreakerState::Closed;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // fast-fails while Open / probe-saturated
  std::uint64_t probes = 0;    // probe decisions issued
  std::uint64_t trips = 0;     // Closed -> Open transitions
  std::uint64_t reopens = 0;   // HalfOpen -> Open (a probe failed)
  std::uint64_t closes = 0;    // HalfOpen -> Closed (probes succeeded)
  std::string to_json() const;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerOptions opts = {});

  // Ask before running the engine. Reject means the caller must answer
  // ErrorCode::CircuitOpen without executing. A Probe (and an Admit) must
  // eventually be matched by exactly one on_outcome() or on_no_run() call.
  BreakerDecision on_request();

  // Report the result of an admitted/probed engine run. `probe` must echo
  // the decision that authorized the run. Only genuine engine outcomes
  // belong here — a request answered by a deadline/cancel sweep while its
  // run kept computing is not an engine failure.
  void on_outcome(bool ok, bool probe);

  // The admitted/probed request never reached the engine (its inputs were
  // rejected before any kernel ran): frees a probe's slot, counts nothing.
  void on_no_run(bool probe);

  BreakerState state() const;
  BreakerStats stats() const;
  const BreakerOptions& options() const { return opts_; }
  // Back to Closed with empty window (new session epoch); counters keep.
  void reset();

 private:
  void trip_locked();   // -> Open, draws the seeded cooldown
  void close_locked();  // -> Closed, clears the window

  BreakerOptions opts_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::Closed;
  rt::Rng rng_;  // cooldown jitter; seeded => deterministic per instance

  // Sliding outcome window (ring buffer) + consecutive-failure streak.
  std::vector<std::uint8_t> ring_;  // 1 = failure
  std::size_t ring_pos_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t ring_failures_ = 0;
  int consecutive_failures_ = 0;

  int open_rejections_left_ = 0;  // countdown to HalfOpen
  int probes_outstanding_ = 0;
  int probe_successes_ = 0;

  BreakerStats stats_;
};

}  // namespace fxcpp::resilience
