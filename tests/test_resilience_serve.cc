// Serving-grade resilience (PR 9): circuit breaker state machine +
// determinism, retry policy (budget / deadline / reproducible seeded
// backoff), health rung machine, chaos injector schedule replay, the
// fault-injector alloc-ceiling scoping fix, and the InferenceSession
// integration — priority shedding, breaker fail-fast + half-open recovery,
// retry-rescued transients, health-driven rung degradation, malformed
// requests answered without touching health, and the shutdown-vs-breaker
// race. Labeled `resilience_serve`; runs under the
// ASan and TSan legs of scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/custom_op.h"
#include "core/exec_hooks.h"
#include "core/interpreter.h"
#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "resilience/chaos.h"
#include "resilience/circuit_breaker.h"
#include "resilience/exec_error.h"
#include "resilience/fault_injection.h"
#include "resilience/health.h"
#include "resilience/retry_policy.h"
#include "runtime/rng.h"
#include "serve/session.h"
#include "tensor/tensor.h"

namespace fxcpp {
namespace {

using resilience::BreakerDecision;
using resilience::BreakerOptions;
using resilience::BreakerState;
using resilience::ChaosInjector;
using resilience::ChaosOptions;
using resilience::CircuitBreaker;
using resilience::ExecRung;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::HealthMonitor;
using resilience::HealthOptions;
using resilience::HealthState;
using resilience::RetryOptions;
using resilience::RetryPolicy;
using serve::InferenceSession;
using serve::Priority;
using serve::Response;
using serve::ServeOptions;
using serve::SessionStats;
using serve::Ticket;

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

Tensor seeded_input(std::uint64_t seed, const Shape& s) {
  rt::Rng rng(seed);
  std::int64_t numel = 1;
  for (const std::int64_t d : s) numel *= d;
  std::vector<float> v(static_cast<std::size_t>(numel));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, s);
}

void register_identity_once(const std::string& name) {
  static std::vector<std::string> done;
  for (const auto& n : done) {
    if (n == name) return;
  }
  done.push_back(name);
  fx::register_custom_op(name, {"x"}, [](const std::vector<Tensor>& in) {
    return in.at(0).clone();  // clone => the node allocates
  });
}

// Identity kernel that sleeps — holds the batcher busy so later submissions
// pile up in the queue deterministically.
void register_slow_identity_once(const std::string& name, int sleep_ms) {
  static std::vector<std::string> done;
  for (const auto& n : done) {
    if (n == name) return;
  }
  done.push_back(name);
  fx::register_custom_op(name, {"x"}, [sleep_ms](const std::vector<Tensor>& in) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    return in.at(0).clone();
  });
}

std::shared_ptr<fx::GraphModule> traced_custom(const std::string& op) {
  return fx::symbolic_trace(std::function<fx::Value(fx::Value)>(
      [op](fx::Value v) { return fx::call_custom(op, {v}); }));
}

fx::Node* compute_node(fx::GraphModule& gm) {
  for (fx::Node* n : gm.graph().nodes()) {
    if (n->op() == fx::Opcode::CallFunction) return n;
  }
  return nullptr;
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// --------------------------------------------------------------------------
// Circuit breaker unit.
// --------------------------------------------------------------------------

TEST(CircuitBreakerUnit, TripsOnConsecutiveFailuresThenReclosesViaProbes) {
  BreakerOptions bo;
  bo.consecutive_failures = 3;
  bo.cooldown_rejections = 2;
  bo.cooldown_jitter = 0;  // exact counts below
  bo.half_open_probes = 2;
  bo.probes_to_close = 2;
  CircuitBreaker b(bo);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(b.on_request(), BreakerDecision::Admit);
    b.on_outcome(false, /*probe=*/false);
  }
  EXPECT_EQ(b.state(), BreakerState::Open);
  EXPECT_EQ(b.stats().trips, 1u);

  // Exactly cooldown_rejections fast-fails, then probes.
  EXPECT_EQ(b.on_request(), BreakerDecision::Reject);
  EXPECT_EQ(b.on_request(), BreakerDecision::Reject);
  EXPECT_EQ(b.state(), BreakerState::HalfOpen);
  EXPECT_EQ(b.on_request(), BreakerDecision::Probe);
  EXPECT_EQ(b.on_request(), BreakerDecision::Probe);
  // Probes saturated: further traffic still fails fast.
  EXPECT_EQ(b.on_request(), BreakerDecision::Reject);

  b.on_outcome(true, /*probe=*/true);
  EXPECT_EQ(b.state(), BreakerState::HalfOpen);
  b.on_outcome(true, /*probe=*/true);
  EXPECT_EQ(b.state(), BreakerState::Closed);
  const auto s = b.stats();
  EXPECT_EQ(s.closes, 1u);
  EXPECT_EQ(s.reopens, 0u);
  EXPECT_EQ(s.probes, 2u);

  // The close cleared the window: one new failure does not re-trip.
  EXPECT_EQ(b.on_request(), BreakerDecision::Admit);
  b.on_outcome(false, false);
  EXPECT_EQ(b.state(), BreakerState::Closed);
}

TEST(CircuitBreakerUnit, ProbeFailureReopens) {
  BreakerOptions bo;
  bo.consecutive_failures = 2;
  bo.cooldown_rejections = 1;
  bo.cooldown_jitter = 0;
  bo.half_open_probes = 1;
  bo.probes_to_close = 1;
  CircuitBreaker b(bo);

  b.on_request(); b.on_outcome(false, false);
  b.on_request(); b.on_outcome(false, false);
  ASSERT_EQ(b.state(), BreakerState::Open);
  EXPECT_EQ(b.on_request(), BreakerDecision::Reject);
  EXPECT_EQ(b.on_request(), BreakerDecision::Probe);
  b.on_outcome(false, /*probe=*/true);  // engine still sick
  EXPECT_EQ(b.state(), BreakerState::Open);
  EXPECT_EQ(b.stats().reopens, 1u);

  EXPECT_EQ(b.on_request(), BreakerDecision::Reject);
  EXPECT_EQ(b.on_request(), BreakerDecision::Probe);
  b.on_outcome(true, /*probe=*/true);
  EXPECT_EQ(b.state(), BreakerState::Closed);
  EXPECT_EQ(b.stats().closes, 1u);
}

TEST(CircuitBreakerUnit, NoRunFreesProbeSlotWithoutAnOutcome) {
  BreakerOptions bo;
  bo.consecutive_failures = 1;
  bo.cooldown_rejections = 1;
  bo.cooldown_jitter = 0;
  bo.half_open_probes = 1;
  bo.probes_to_close = 1;
  CircuitBreaker b(bo);

  b.on_request();
  b.on_outcome(false, false);
  ASSERT_EQ(b.state(), BreakerState::Open);
  EXPECT_EQ(b.on_request(), BreakerDecision::Reject);
  EXPECT_EQ(b.on_request(), BreakerDecision::Probe);
  EXPECT_EQ(b.on_request(), BreakerDecision::Reject);  // slot taken
  // The probe's inputs were rejected before the engine ran: its slot frees
  // and the breaker learns nothing (still half-open, no close, no reopen).
  b.on_no_run(/*probe=*/true);
  EXPECT_EQ(b.state(), BreakerState::HalfOpen);
  EXPECT_EQ(b.stats().reopens, 0u);
  EXPECT_EQ(b.stats().closes, 0u);
  EXPECT_EQ(b.on_request(), BreakerDecision::Probe);
  b.on_outcome(true, /*probe=*/true);
  EXPECT_EQ(b.state(), BreakerState::Closed);
}

TEST(CircuitBreakerUnit, TripsOnWindowErrorRate) {
  BreakerOptions bo;
  bo.consecutive_failures = 100;  // streak rule out of the way
  bo.error_rate = 0.5;
  bo.window = 8;
  bo.min_samples = 8;
  CircuitBreaker b(bo);
  // Alternate ok/fail: streak never exceeds 1, but the window hits 50%.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(b.on_request(), BreakerDecision::Admit) << i;
    b.on_outcome(i % 2 == 0, false);
  }
  EXPECT_EQ(b.state(), BreakerState::Open);
  EXPECT_EQ(b.stats().trips, 1u);
}

TEST(CircuitBreakerUnit, SeededCooldownJitterReplaysExactly) {
  BreakerOptions bo;
  bo.consecutive_failures = 1;
  bo.cooldown_rejections = 3;
  bo.cooldown_jitter = 4;  // jitter active
  bo.half_open_probes = 1;
  bo.probes_to_close = 1;
  bo.seed = 77;

  // Two same-seed breakers driven through the same trip/reclose sequence
  // must issue the Reject -> Probe boundary at exactly the same count.
  auto drive = [](CircuitBreaker& b) -> std::vector<int> {
    std::vector<int> rejects_per_trip;
    for (int trip = 0; trip < 4; ++trip) {
      b.on_request();
      b.on_outcome(false, false);  // trip (threshold 1)
      int rejects = 0;
      for (;;) {
        const BreakerDecision d = b.on_request();
        if (d == BreakerDecision::Probe) break;
        EXPECT_EQ(d, BreakerDecision::Reject);
        ++rejects;
        if (rejects >= 100) break;  // jitter bound blown: fail below
      }
      rejects_per_trip.push_back(rejects);
      b.on_outcome(true, true);  // close
      EXPECT_EQ(b.state(), BreakerState::Closed);
    }
    // Cooldowns are in [3, 7] and at least one trip drew a different one
    // with overwhelming probability; the exact sequence is the seed's.
    for (const int r : rejects_per_trip) {
      EXPECT_GE(r, 3);
      EXPECT_LE(r, 7);
    }
    return rejects_per_trip;
  };
  CircuitBreaker b0(bo), b1(bo);
  EXPECT_EQ(drive(b0), drive(b1));
}

// --------------------------------------------------------------------------
// Retry policy unit.
// --------------------------------------------------------------------------

TEST(RetryPolicyUnit, ClassifiesRetryableCodes) {
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::NodeFailure));
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::AllocLimit));
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::NumericAnomaly));
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::Unknown));
  // Input errors and routing verdicts are never retried.
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::ArityMismatch));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::GuardViolation));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::Cancelled));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::DeadlineExceeded));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::AdmissionRejected));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::CircuitOpen));
}

TEST(RetryPolicyUnit, BackoffScheduleIsPureSeededAndBounded) {
  RetryOptions ro;
  ro.base_backoff_seconds = 0.001;
  ro.max_backoff_seconds = 0.008;
  ro.jitter = 0.5;
  ro.seed = 42;
  RetryPolicy p0(ro), p1(ro);

  for (const std::uint64_t id : {1ull, 2ull, 99ull}) {
    for (int k = 1; k <= 6; ++k) {
      const double b = p0.backoff_seconds(id, k);
      // Pure function: identical across instances and repeated calls.
      EXPECT_DOUBLE_EQ(b, p1.backoff_seconds(id, k));
      EXPECT_DOUBLE_EQ(b, p0.backoff_seconds(id, k));
      // Jittered exponential, clamped: step in [0.75, 1.25] x nominal.
      const double nominal =
          std::min(ro.base_backoff_seconds * std::pow(2.0, k - 1),
                   ro.max_backoff_seconds);
      EXPECT_GE(b, nominal * 0.75 - 1e-12);
      EXPECT_LE(b, nominal * 1.25 + 1e-12);
    }
  }
  // Different requests decorrelate.
  EXPECT_NE(p0.backoff_seconds(1, 1), p0.backoff_seconds(2, 1));
  // A different seed yields a different schedule.
  RetryOptions ro2 = ro;
  ro2.seed = 43;
  EXPECT_NE(RetryPolicy(ro2).backoff_seconds(1, 1), p0.backoff_seconds(1, 1));
}

TEST(RetryPolicyUnit, BudgetCapsRetryAmplification) {
  RetryOptions ro;
  ro.budget_fraction = 0.5;
  ro.base_backoff_seconds = 0.0;
  RetryPolicy p(ro);
  p.on_admitted();
  p.on_admitted();  // bank = 1.0: exactly one retry allowed
  double backoff = 0.0;
  EXPECT_TRUE(p.acquire(ErrorCode::NodeFailure, 2, -1.0, 7, &backoff));
  EXPECT_FALSE(p.acquire(ErrorCode::NodeFailure, 2, -1.0, 8, &backoff));
  const auto s = p.stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.budget_denied, 1u);
}

TEST(RetryPolicyUnit, DeniesWhenBackoffOutlivesDeadlineOrCodeNotRetryable) {
  RetryOptions ro;
  ro.base_backoff_seconds = 0.01;
  ro.jitter = 0.0;
  ro.budget_fraction = 1.0;
  RetryPolicy p(ro);
  p.on_admitted();
  double backoff = 0.0;
  // 10ms backoff vs 1ms of deadline left: pointless, denied.
  EXPECT_FALSE(p.acquire(ErrorCode::NodeFailure, 2, 0.001, 1, &backoff));
  EXPECT_EQ(p.stats().deadline_denied, 1u);
  // Input errors denied regardless of budget.
  EXPECT_FALSE(p.acquire(ErrorCode::GuardViolation, 2, -1.0, 1, &backoff));
  // Attempt bound respected (default max_attempts = 3).
  EXPECT_FALSE(p.acquire(ErrorCode::NodeFailure, 4, -1.0, 1, &backoff));
  // And the same code within bounds succeeds.
  EXPECT_TRUE(p.acquire(ErrorCode::NodeFailure, 3, -1.0, 1, &backoff));
}

// --------------------------------------------------------------------------
// Health monitor unit.
// --------------------------------------------------------------------------

TEST(HealthMonitorUnit, DegradesBreaksAndEarnsRecoveryOneRungAtATime) {
  HealthOptions ho;
  ho.window = 4;
  ho.min_samples = 4;
  ho.degrade_error_rate = 0.5;
  ho.break_error_rate = 0.75;
  ho.recover_successes = 3;
  HealthMonitor h(ho);
  EXPECT_EQ(h.state(), HealthState::Healthy);
  EXPECT_EQ(h.rung(), ExecRung::PlannedBatched);

  // 2/4 failures: Degraded (not Broken).
  h.record(true); h.record(false); h.record(true); h.record(false);
  EXPECT_EQ(h.state(), HealthState::Degraded);
  EXPECT_EQ(h.rung(), ExecRung::PlannedSolo);

  // Fresh window at the new rung; 3/4 failures: Broken.
  h.record(false); h.record(false); h.record(true); h.record(false);
  EXPECT_EQ(h.state(), HealthState::Broken);
  EXPECT_EQ(h.rung(), ExecRung::Interpreter);

  // Recovery is stepwise: 3 successes -> Degraded, 3 more -> Healthy.
  h.record(true); h.record(true);
  EXPECT_EQ(h.state(), HealthState::Broken);
  h.record(true);
  EXPECT_EQ(h.state(), HealthState::Degraded);
  h.record(true); h.record(true); h.record(true);
  EXPECT_EQ(h.state(), HealthState::Healthy);
  EXPECT_EQ(h.rung(), ExecRung::PlannedBatched);

  const auto s = h.stats();
  EXPECT_EQ(s.degrades, 2u);
  EXPECT_EQ(s.recoveries, 2u);
  EXPECT_EQ(s.samples, 14u);
}

TEST(HealthMonitorUnit, BreakerTripForcesAtLeastDegraded) {
  HealthMonitor h;
  EXPECT_EQ(h.state(), HealthState::Healthy);
  h.on_breaker_trip();
  EXPECT_EQ(h.state(), HealthState::Degraded);
  EXPECT_EQ(h.rung(), ExecRung::PlannedSolo);
}

// --------------------------------------------------------------------------
// Error-code taxonomy completeness (satellite).
// --------------------------------------------------------------------------

TEST(ErrorTaxonomy, EveryCodeHasANameAndCircuitOpenIsLast) {
  for (std::size_t c = 0; c < kNumErrorCodes; ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "?")
        << "code " << c << " missing from error_code_name";
  }
  EXPECT_STREQ(error_code_name(ErrorCode::CircuitOpen), "circuit-open");
  EXPECT_EQ(static_cast<std::size_t>(ErrorCode::CircuitOpen) + 1,
            kNumErrorCodes);
}

// --------------------------------------------------------------------------
// Chaos injector: the seeded schedule replays.
// --------------------------------------------------------------------------

TEST(ChaosInjectorUnit, StormWindowFaultsExactlyItsRunsAndReplays) {
  register_identity_once("rsv_chaos_id");
  auto gm = traced_custom("rsv_chaos_id");
  gm->recompile();
  const Tensor x = seeded_input(5, {2, 4});

  auto drive = [&](ChaosInjector& chaos) {
    std::vector<bool> faulted;
    for (int run = 0; run < 10; ++run) {
      bool ok = true;
      try {
        fx::Interpreter interp(*gm);
        interp.set_hooks(&chaos);
        interp.run(x);
      } catch (const std::exception&) {
        ok = false;
      }
      faulted.push_back(!ok);
    }
    return faulted;
  };

  ChaosOptions co;
  co.fault_rate = 0.0;  // only the storm faults
  co.kinds = {FaultKind::Throw};
  co.storm_start = 3;
  co.storm_len = 4;
  co.seed = 11;
  ChaosInjector c0(co), c1(co);
  const std::vector<bool> f0 = drive(c0);
  const std::vector<bool> f1 = drive(c1);
  EXPECT_EQ(f0, f1) << "same seed, same schedule";
  for (int run = 0; run < 10; ++run) {
    EXPECT_EQ(f0[static_cast<std::size_t>(run)], run >= 3 && run < 7)
        << "run " << run;
  }
  const auto s = c0.stats();
  EXPECT_EQ(s.runs, 10u);
  EXPECT_EQ(s.storm_runs, 4u);
  EXPECT_EQ(s.faulted_runs, 4u);
  EXPECT_EQ(s.fires, 4u);
}

TEST(ChaosInjectorUnit, RateScheduleIsSeedDeterministic) {
  register_identity_once("rsv_chaos_id");
  auto gm = traced_custom("rsv_chaos_id");
  gm->recompile();
  const Tensor x = seeded_input(6, {1, 4});

  ChaosOptions co;
  co.fault_rate = 0.3;
  co.kinds = {FaultKind::Throw};
  co.burst_min = 1;
  co.burst_max = 2;
  co.seed = 21;
  auto drive = [&](ChaosInjector& chaos) {
    std::vector<bool> faulted;
    for (int run = 0; run < 40; ++run) {
      bool ok = true;
      try {
        fx::Interpreter interp(*gm);
        interp.set_hooks(&chaos);
        interp.run(x);
      } catch (const std::exception&) {
        ok = false;
      }
      faulted.push_back(!ok);
    }
    return faulted;
  };
  ChaosInjector c0(co), c1(co);
  const auto f0 = drive(c0);
  EXPECT_EQ(f0, drive(c1));
  EXPECT_GT(c0.stats().faulted_runs, 0u);
  EXPECT_LT(c0.stats().faulted_runs, 40u);
}

// --------------------------------------------------------------------------
// Satellite fix: an injected allocation ceiling is scoped to one attempt.
// --------------------------------------------------------------------------

TEST(FaultInjection, AllocCeilingDoesNotLeakIntoNextRung) {
  register_identity_once("rsv_leak_id");
  auto gm = traced_custom("rsv_leak_id");
  gm->recompile();
  fx::Node* target = compute_node(*gm);
  ASSERT_NE(target, nullptr);
  const Tensor x = seeded_input(7, {2, 4});
  const Tensor ref = fx::rt_tensor(fx::Interpreter(*gm).run(x));

  // Hook order matters: the AllocLimit injector arms the thread-local
  // ceiling at the target's on_node_begin, then the Throw injector kills
  // the run AT THE SAME EVENT — so the target never reaches on_node_end
  // and, before the fix, the armed ceiling leaked into the next rung and
  // fired at an arbitrary allocation there (a spurious AllocLimit at the
  // wrong node).
  FaultInjector alloc_inj(target, FaultKind::AllocLimit, /*max_fires=*/1);
  FaultInjector throw_inj(target, FaultKind::Throw, /*max_fires=*/1);
  fx::MultiHooks hooks({&alloc_inj, &throw_inj});

  fx::ResilientOptions opts;
  opts.hooks = &hooks;
  fx::ResilientReport report;
  const Tensor out = gm->run_resilient(x, opts, &report);

  EXPECT_TRUE(bit_equal(out, ref))
      << "interpreter rung must recover cleanly — a leaked ceiling fails it";
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts[0].ok);
  EXPECT_EQ(report.attempts[0].code, ErrorCode::NodeFailure);
  EXPECT_TRUE(report.attempts[1].ok);
  EXPECT_EQ(alloc_inj.fires(), 1);
  EXPECT_EQ(throw_inj.fires(), 1);
  // And nothing stays armed on this thread after the run.
  EXPECT_EQ(Storage::alloc_limit(), 0);
}

// --------------------------------------------------------------------------
// Session integration.
// --------------------------------------------------------------------------

TEST(ResilientServe, PriorityWatermarksShedLowBeforeNormalBeforeHigh) {
  register_slow_identity_once("rsv_slow", 60);
  auto gm = traced_custom("rsv_slow");
  ServeOptions so;
  so.max_queue_depth = 8;
  so.shed_low_watermark = 2;
  so.shed_normal_watermark = 4;
  so.batching = false;
  InferenceSession session(gm, seeded_input(1, {1, 4}), so);

  // Occupy the batcher so queued requests pile up deterministically.
  Ticket blocker = session.submit(seeded_input(2, {1, 4}));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (session.stats().batches < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<Ticket> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(session.submit(seeded_input(10 + i, {1, 4})));
  }
  // Queue depth is now 4: Low (watermark 2) and Normal (watermark 4) shed,
  // High still admitted.
  Response low = session.run(seeded_input(20, {1, 4}), 0.0, Priority::Low);
  EXPECT_FALSE(low.ok);
  EXPECT_EQ(low.code, ErrorCode::AdmissionRejected);
  Ticket normal =
      session.submit(seeded_input(21, {1, 4}), 0.0, Priority::Normal);
  Response rn = normal.response.get();
  EXPECT_FALSE(rn.ok);
  EXPECT_EQ(rn.code, ErrorCode::AdmissionRejected);
  Ticket high = session.submit(seeded_input(22, {1, 4}), 0.0, Priority::High);

  EXPECT_TRUE(blocker.response.get().ok);
  for (Ticket& t : queued) EXPECT_TRUE(t.response.get().ok);
  EXPECT_TRUE(high.response.get().ok);

  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_GE(s.shed_low, 1u);
  EXPECT_GE(s.shed_normal, 1u);
  EXPECT_EQ(s.shed_high, 0u);
  EXPECT_EQ(s.by_code[static_cast<std::size_t>(ErrorCode::AdmissionRejected)],
            s.shed_low + s.shed_normal);
}

TEST(ResilientServe, BreakerFailsFastThenReclosesThroughProbes) {
  register_identity_once("rsv_breaker_id");
  auto gm = traced_custom("rsv_breaker_id");
  fx::Node* target = compute_node(*gm);
  ASSERT_NE(target, nullptr);
  FaultInjector inj(target, FaultKind::Throw, /*max_fires=*/-1);

  ServeOptions so;
  so.hooks = &inj;
  so.retry.max_attempts = 1;  // isolate the breaker from the retry layer
  so.breaker.consecutive_failures = 2;
  so.breaker.cooldown_rejections = 2;
  so.breaker.cooldown_jitter = 0;
  so.breaker.half_open_probes = 1;
  so.breaker.probes_to_close = 1;
  InferenceSession session(gm, seeded_input(1, {1, 4}), so);

  const Tensor x = seeded_input(3, {1, 4});
  // Two genuine failures trip the breaker...
  EXPECT_EQ(session.run(x.clone()).code, ErrorCode::NodeFailure);
  EXPECT_EQ(session.run(x.clone()).code, ErrorCode::NodeFailure);
  // ...the next two fail fast without touching the engine...
  const int fires_at_trip = inj.fires();
  EXPECT_EQ(session.run(x.clone()).code, ErrorCode::CircuitOpen);
  EXPECT_EQ(session.run(x.clone()).code, ErrorCode::CircuitOpen);
  EXPECT_EQ(inj.fires(), fires_at_trip);
  // ...the probe finds the engine still sick and reopens...
  EXPECT_EQ(session.run(x.clone()).code, ErrorCode::NodeFailure);
  // ...the engine recovers; after the cooldown the probe closes the breaker
  // and traffic flows again.
  inj.reset(/*max_fires=*/0);
  EXPECT_EQ(session.run(x.clone()).code, ErrorCode::CircuitOpen);
  EXPECT_EQ(session.run(x.clone()).code, ErrorCode::CircuitOpen);
  Response probe = session.run(x.clone());
  EXPECT_TRUE(probe.ok) << probe.error;
  Response after = session.run(x.clone());
  EXPECT_TRUE(after.ok) << after.error;

  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_GE(s.breaker.trips, 1u);
  EXPECT_EQ(s.breaker.reopens, 1u);
  EXPECT_EQ(s.breaker.closes, 1u);
  EXPECT_EQ(s.breaker_rejected, 4u);
  EXPECT_EQ(s.by_code[static_cast<std::size_t>(ErrorCode::CircuitOpen)], 4u);
  // A breaker trip forces the health machine off the batched rung.
  EXPECT_GE(s.health.degrades, 1u);
}

TEST(ResilientServe, RetryRescuesTransientFaultBitEqually) {
  register_identity_once("rsv_retry_id");
  auto gm = traced_custom("rsv_retry_id");
  fx::Node* target = compute_node(*gm);
  ASSERT_NE(target, nullptr);
  // 3 fires: the batched run, then BOTH rungs of the first rescue ladder.
  // Only the retry layer's second rescue finds a clean engine.
  FaultInjector inj(target, FaultKind::Throw, /*max_fires=*/3);

  ServeOptions so;
  so.hooks = &inj;
  so.retry.max_attempts = 3;
  so.retry.budget_fraction = 1.0;
  so.retry.base_backoff_seconds = 0.0001;
  InferenceSession session(gm, seeded_input(1, {1, 4}), so);

  const Tensor x = seeded_input(9, {2, 4});
  const Tensor ref = fx::rt_tensor(fx::Interpreter(*gm).run(x));
  Response r = session.run(x.clone());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(bit_equal(r.output, ref));
  EXPECT_EQ(r.attempts, 3u);  // batch + failed rescue + retried rescue
  EXPECT_EQ(inj.fires(), 3);

  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_GE(s.retries, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.degraded_batches, 1u);
}

TEST(ResilientServe, HealthDegradesRungThenEarnsWayBack) {
  register_identity_once("rsv_health_id");
  auto gm = traced_custom("rsv_health_id");
  fx::Node* target = compute_node(*gm);
  ASSERT_NE(target, nullptr);
  FaultInjector inj(target, FaultKind::Throw, /*max_fires=*/-1);

  ServeOptions so;
  so.hooks = &inj;
  so.retry.max_attempts = 1;
  so.breaker.enabled = false;  // isolate the health machine
  so.health.window = 4;
  so.health.min_samples = 2;
  so.health.degrade_error_rate = 0.5;
  so.health.break_error_rate = 0.9;
  so.health.recover_successes = 2;
  InferenceSession session(gm, seeded_input(1, {1, 4}), so);

  const Tensor x = seeded_input(13, {1, 4});
  // Hammer failures until the machine is Broken (Interpreter rung).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(session.run(x.clone()).code, ErrorCode::NodeFailure);
  }
  {
    const SessionStats s = session.stats();
    EXPECT_GE(s.health.degrades, 1u);
    EXPECT_EQ(s.health.state, resilience::HealthState::Broken);
  }
  // Engine recovers; successes earn the rungs back one at a time.
  inj.reset(/*max_fires=*/0);
  for (int i = 0; i < 8; ++i) {
    Response r = session.run(x.clone());
    EXPECT_TRUE(r.ok) << r.error;
  }
  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_GE(s.health.recoveries, 2u);
  EXPECT_EQ(s.health.state, resilience::HealthState::Healthy);
  // Broken-rung requests really ran below the batched fast path.
  EXPECT_GE(s.degraded_rung_runs, 1u);
}

// A malformed request (wrong trailing dim) is the caller's error: the
// planner rejects it before any kernel runs, so it is answered
// GuardViolation once — no rescue ladder, no health or breaker outcome —
// and well-formed traffic after it stays on the batched rung.
TEST(ResilientServe, MalformedRequestsLeaveHealthySessionHealthy) {
  auto gm = fx::symbolic_trace(nn::models::mlp({16, 32, 8}));
  InferenceSession session(gm, seeded_input(1, {4, 16}));

  const Shape bad[] = {{2, 15}, {2, 16, 1}, {1, 17}, {3, 8}, {2, 15}};
  for (const Shape& s : bad) {
    Response r = session.run(seeded_input(2, s));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, ErrorCode::GuardViolation) << r.error;
    EXPECT_EQ(r.attempts, 1u) << "answered once, without a rescue";
  }
  const Tensor good = seeded_input(3, {2, 16});
  Response r = session.run(good.clone());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(bit_equal(r.output, fx::rt_tensor(fx::Interpreter(*gm).run(good))));

  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_EQ(s.health.state, HealthState::Healthy);
  EXPECT_EQ(s.degraded_rung_runs, 0u);
  EXPECT_EQ(s.degraded_batches, 0u);
  EXPECT_EQ(s.failed, 5u);
  EXPECT_EQ(s.by_code[static_cast<std::size_t>(ErrorCode::GuardViolation)], 5u);
  EXPECT_EQ(s.breaker.trips, 0u);
}

TEST(ResilientServe, StatsJsonExposesFullTaxonomyAndResilienceState) {
  register_identity_once("rsv_json_id");
  auto gm = traced_custom("rsv_json_id");
  InferenceSession session(gm, seeded_input(1, {1, 4}));
  EXPECT_TRUE(session.run(seeded_input(2, {1, 4})).ok);
  session.shutdown();

  const std::string j = session.stats().to_json();
  for (std::size_t c = 0; c < kNumErrorCodes; ++c) {
    EXPECT_TRUE(contains(j, std::string("\"") +
                                error_code_name(static_cast<ErrorCode>(c)) +
                                "\""))
        << "by_code must list every taxonomy code; missing "
        << error_code_name(static_cast<ErrorCode>(c)) << " in " << j;
  }
  for (const char* key :
       {"\"by_code\"", "\"breaker\"", "\"health\"", "\"retry\"",
        "\"shed_low\"", "\"shed_normal\"", "\"shed_high\"",
        "\"breaker_rejected\"", "\"retries\"", "\"degraded_rung_runs\"",
        "\"state\"", "\"trips\"", "\"closes\""}) {
    EXPECT_TRUE(contains(j, key)) << "missing " << key << " in " << j;
  }
}

// --------------------------------------------------------------------------
// Shutdown racing breaker trips / half-open probes (TSan leg).
// --------------------------------------------------------------------------

TEST(ResilientServeRace, ShutdownRacesBreakerTripAndProbes) {
  register_identity_once("rsv_race_id");
  auto gm = traced_custom("rsv_race_id");
  fx::Node* target = compute_node(*gm);
  ASSERT_NE(target, nullptr);
  // Every 3rd engine event window flips between sick and healthy via two
  // competing clients below; unlimited fires keeps the breaker cycling.
  FaultInjector inj(target, FaultKind::Throw, /*max_fires=*/-1);

  ServeOptions so;
  so.hooks = &inj;
  so.retry.max_attempts = 2;
  so.retry.base_backoff_seconds = 0.00005;
  so.breaker.consecutive_failures = 2;
  so.breaker.cooldown_rejections = 1;
  so.breaker.cooldown_jitter = 0;
  so.breaker.half_open_probes = 1;
  so.breaker.probes_to_close = 1;
  auto session = std::make_unique<InferenceSession>(
      gm, seeded_input(1, {1, 4}), so);

  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  std::vector<std::vector<Response>> responses(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 20; ++i) {
        // Clients 0/1 keep the injector flapping on and off so trips,
        // probes, and closes all race the shutdown below.
        if (c == 0 && i % 4 == 0) inj.reset(-1);
        if (c == 1 && i % 4 == 2) inj.reset(0);
        Ticket t = session->submit(seeded_input(
            static_cast<std::uint64_t>(c * 100 + i), {1, 4}));
        responses[static_cast<std::size_t>(c)].push_back(t.response.get());
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  session->shutdown();  // races in-flight trips/probes/rescues
  for (std::thread& t : clients) t.join();

  // Every future resolved with a taxonomy verdict; nothing hung or leaked.
  for (const auto& per : responses) {
    ASSERT_EQ(per.size(), 20u);
    for (const Response& r : per) {
      if (!r.ok) {
        EXPECT_TRUE(r.code == ErrorCode::NodeFailure ||
                    r.code == ErrorCode::CircuitOpen ||
                    r.code == ErrorCode::AdmissionRejected)
            << static_cast<int>(r.code) << " " << r.error;
      }
    }
  }
  session.reset();
  EXPECT_EQ(Storage::alloc_limit(), 0);
}

}  // namespace
}  // namespace fxcpp
