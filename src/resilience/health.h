// HealthMonitor — Healthy -> Degraded -> Broken state machine that picks
// the serving session's execution rung.
//
// The breaker answers "should we run at all"; the health machine answers
// "on which rung". run_resilient (PR 4) already established the ladder —
// every rung is bit-identical on success, each one trades throughput for
// isolation — and the serving analogue of its tape -> interpreter ordering
// is:
//
//   Healthy  -> PlannedBatched : coalesced batches on the planned tape
//               (the fast path: one arena lease + one dispatch per batch)
//   Degraded -> PlannedSolo    : still the planned tape, but one request
//               per run — a single poisoned input can no longer take a
//               whole batch down with it, at the cost of batching's
//               amortization
//   Broken   -> Interpreter    : per-request node-by-node interpretation,
//               no plan/arena/tape state to corrupt — maximum isolation,
//               minimum machinery, the rung of last resort
//
// Downgrades are window-driven (error rate over a sliding window, like the
// breaker but with lower thresholds — degrade *before* tripping); a breaker
// trip also forces at least Degraded, because a tripped engine re-probing
// straight into full batching re-risks whole batches. Upgrades are earned:
// `recover_successes` consecutive successes step one level back up and
// restart the count, so a Broken session probes its way Healthy through
// Degraded rather than flapping straight back.
//
// Thread safety: internally synchronized; state() is cheap enough to call
// per batch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fxcpp::resilience {

enum class HealthState { Healthy, Degraded, Broken };
enum class ExecRung { PlannedBatched, PlannedSolo, Interpreter };

const char* health_state_name(HealthState s);
const char* exec_rung_name(ExecRung r);

struct HealthOptions {
  bool enabled = true;
  std::size_t window = 32;
  std::size_t min_samples = 6;
  double degrade_error_rate = 0.3;  // window rate -> at least Degraded
  double break_error_rate = 0.6;    // window rate -> Broken
  int recover_successes = 8;  // consecutive successes to step one level up
};

struct HealthStats {
  HealthState state = HealthState::Healthy;
  std::uint64_t samples = 0;
  std::uint64_t failures = 0;  // cumulative failed samples (incl. anomalies)
  std::uint64_t degrades = 0;  // any step down (Healthy->Degraded, ->Broken)
  std::uint64_t recoveries = 0;  // any step up
  std::string to_json() const;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions opts = {});

  // One engine-run outcome. Anomalies (NaN/Inf findings) arrive as ok=false
  // via the session, so the machine sees them as failures.
  void record(bool ok);
  // A breaker trip forces at least Degraded immediately (don't wait for
  // the window to catch up — the breaker already proved the engine sick).
  void on_breaker_trip();

  HealthState state() const;
  // The execution rung the current state maps to (see the header comment).
  ExecRung rung() const;
  HealthStats stats() const;
  void reset();

 private:
  void step_down_locked(HealthState to);

  HealthOptions opts_;
  mutable std::mutex mu_;
  HealthState state_ = HealthState::Healthy;
  std::vector<std::uint8_t> ring_;
  std::size_t ring_pos_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t ring_failures_ = 0;
  int success_streak_ = 0;
  HealthStats stats_;
};

}  // namespace fxcpp::resilience
