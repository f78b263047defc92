// ChaosInjector — seeded probabilistic/intermittent fault schedules on the
// ExecHooks seam (the serving stack's chaos-soak harness).
//
// FaultInjector makes ONE chosen node fail on demand — the scalpel the
// differential fuzz needs. Chaos testing needs the opposite instrument: a
// TorchProbe-style (PAPERS.md) randomized schedule where *any* run may
// fault, at a node drawn per run, with a kind drawn per run, over thousands
// of runs — and the whole schedule must replay from a seed so a failing
// soak is a bug report, not an anecdote. Three layers compose the schedule:
//
//   * rate      — each engine run faults with probability fault_rate;
//   * bursts    — a faulted run may open a burst: the next burst_len-1 runs
//                 fault too (burst_len seeded in [burst_min, burst_max]),
//                 modeling intermittent correlated faults (a sick shard,
//                 a flapping device) rather than i.i.d. noise;
//   * storm     — a deterministic run-index window [storm_start,
//                 storm_start + storm_len) where EVERY run faults: the
//                 sustained outage that forces the circuit breaker Open so
//                 the bench can watch it re-close through half-open probes.
//
// Faulted runs pick a target by node-event ordinal (engine-agnostic: the
// k-th hook event of the run) and a kind from `kinds`. Poison kinds need an
// AnomalyDetector downstream in the MultiHooks chain to turn the poisoned
// output into a failure — that pairing is what lets the chaos bench assert
// every *successful* response is still bit-equal to the reference.
//
// Scope: one injector observes one session's (serialized) engine runs; all
// state is mutex-guarded, so concurrent node events are safe, but two truly
// overlapping runs would share one draw.
// The serving batcher runs engines one at a time, which is the intended
// deployment.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/exec_hooks.h"
#include "resilience/fault_injection.h"
#include "runtime/rng.h"

namespace fxcpp::resilience {

struct ChaosOptions {
  double fault_rate = 0.05;  // per-run fault probability
  std::uint64_t seed = 1;
  std::vector<FaultKind> kinds = {FaultKind::Throw, FaultKind::PoisonNaN};
  // Intermittency: a rate-drawn fault opens a burst of this many total
  // consecutive faulted runs (seeded draw; 1/1 = independent faults).
  int burst_min = 1;
  int burst_max = 1;
  // Deterministic storm window in run-index space (storm_len = 0 disables).
  std::uint64_t storm_start = 0;
  std::uint64_t storm_len = 0;
};

struct ChaosStats {
  std::uint64_t runs = 0;
  std::uint64_t faulted_runs = 0;  // runs where a fault was scheduled
  std::uint64_t fires = 0;         // faults that actually landed (a poison
                                   // scheduled on a non-float output misses)
  std::uint64_t storm_runs = 0;
  std::string to_json() const;
};

class ChaosInjector : public fx::ExecHooks {
 public:
  explicit ChaosInjector(ChaosOptions opts = {});

  void on_run_begin(std::size_t num_nodes) override;
  void on_node_begin(const fx::Node& n) override;
  void on_node_output(const fx::Node& n, fx::RtValue& out) override;
  void on_node_end(const fx::Node& n, const fx::RtValue& out) override;
  void on_run_end() override;

  ChaosStats stats() const;
  const ChaosOptions& options() const { return opts_; }

 private:
  ChaosOptions opts_;
  mutable std::mutex mu_;
  rt::Rng rng_;
  std::uint64_t run_index_ = 0;
  int burst_left_ = 0;
  // Per-run schedule, drawn in on_run_begin and cleared in on_run_end.
  bool armed_ = false;
  FaultKind kind_ = FaultKind::Throw;
  std::size_t target_ordinal_ = 0;
  std::size_t seen_begin_ = 0;  // node-begin events this run
  std::size_t seen_out_ = 0;    // node-output events this run
  ChaosStats stats_;
};

}  // namespace fxcpp::resilience
