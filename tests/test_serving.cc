// Serving layer: InferenceSession admission control, dynamic batching,
// deadlines/cancellation answered mid-run by the watchdog, per-request degrade
// of poisoned batches, and the concurrent-session fuzz (N client threads x
// mixed shapes x random deadlines/cancellations against one shared-weight
// module, every ok response bit-checked vs the Interpreter). Runs under the
// TSan leg of scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/custom_op.h"
#include "core/interpreter.h"
#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "passes/memory_planner.h"
#include "runtime/rng.h"
#include "serve/session.h"
#include "tensor/ops.h"

namespace fxcpp {
namespace {

using serve::InferenceSession;
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

Tensor interpreter_ref(fx::GraphModule& gm, const Tensor& x) {
  fx::Interpreter interp(gm);
  return fx::rt_tensor(interp.run(x));
}

// Identity kernel that sleeps — holds the batcher busy so later submissions
// pile up in the queue deterministically.
void register_slow_identity(const std::string& name, int sleep_ms) {
  fx::register_custom_op(name, {"x"}, [sleep_ms](const std::vector<Tensor>& in) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    return in.at(0).clone();
  });
}

// Identity kernel that throws when any element exceeds the poison sentinel.
void register_trap_identity(const std::string& name) {
  fx::register_custom_op(name, {"x"}, [](const std::vector<Tensor>& in) {
    const Tensor& x = in.at(0);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      if (x.at_flat(i) > 1e6f) throw std::runtime_error("poisoned input row");
    }
    return x.clone();
  });
}

std::shared_ptr<fx::GraphModule> traced_custom(const std::string& op) {
  return fx::symbolic_trace(std::function<fx::Value(fx::Value)>(
      [op](fx::Value v) { return fx::call_custom(op, {v}); }));
}

void wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --------------------------------------------------------------------------
// Core batched entry point.
// --------------------------------------------------------------------------

TEST(RunPlannedBatched, SplitsBitEqualToPerRowRuns) {
  auto model = nn::models::mlp({8, 16, 4});
  auto gm = fx::symbolic_trace(model);
  fx::PlanCacheOptions co;
  co.bucket_batch_dim = true;
  passes::compile_planned(*gm, {seeded_input(1, {2, 8})}, co);

  std::vector<Tensor> rows = {seeded_input(2, {1, 8}), seeded_input(3, {2, 8}),
                              seeded_input(4, {4, 8})};
  std::vector<Tensor> split = gm->run_planned_batched(rows);
  ASSERT_EQ(split.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(split[i].size(0), rows[i].size(0));
    EXPECT_TRUE(bit_equal(split[i], interpreter_ref(*gm, rows[i])))
        << "row group " << i;
  }
}

TEST(RunPlannedBatched, RejectsIncompatibleRows) {
  auto gm = fx::symbolic_trace(nn::models::mlp({4, 4}));
  gm->recompile();
  std::vector<Tensor> rows = {Tensor::randn({1, 4}), Tensor::randn({1, 8})};
  EXPECT_THROW(gm->run_planned_batched(rows), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Session basics.
// --------------------------------------------------------------------------

TEST(Serving, SingleRequestBitEqualInterpreter) {
  auto gm = fx::symbolic_trace(nn::models::mlp({8, 16, 4}));
  InferenceSession session(gm, seeded_input(10, {4, 8}));
  for (std::int64_t rows : {1, 3, 4, 7}) {
    Tensor x = seeded_input(100 + static_cast<std::uint64_t>(rows), {rows, 8});
    Response r = session.run(x);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(bit_equal(r.output, interpreter_ref(*gm, x)));
    EXPECT_GE(r.total_seconds, 0.0);
  }
  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_EQ(s.admitted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.rejected + s.failed + s.cancelled + s.expired, 0u);
}

TEST(Serving, CoalescesCompatibleRequests) {
  register_slow_identity("serve_block_coalesce", 60);
  auto gm = traced_custom("serve_block_coalesce");
  InferenceSession session(gm, Tensor::randn({1, 8}));

  // Head request occupies the batcher for ~60ms...
  Ticket blocker = session.submit(Tensor::randn({1, 8}));
  wait_until([&] { return session.stats().batches >= 1; });
  // ...while four compatible requests pile up and must coalesce.
  std::vector<Tensor> xs;
  std::vector<Ticket> ts;
  for (int i = 0; i < 4; ++i) {
    xs.push_back(seeded_input(200 + static_cast<std::uint64_t>(i), {1, 8}));
    ts.push_back(session.submit(xs.back().clone()));
  }
  ASSERT_TRUE(blocker.response.get().ok);
  for (int i = 0; i < 4; ++i) {
    Response r = ts[static_cast<std::size_t>(i)].response.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GE(r.batch_requests, 2u);  // robustly: at least some coalescing
    EXPECT_TRUE(bit_equal(r.output, xs[static_cast<std::size_t>(i)]));
  }
  session.shutdown();
  EXPECT_GE(session.stats().peak_batch_rows, 2);
}

TEST(Serving, AdmissionRejectsWhenQueueFull) {
  register_slow_identity("serve_block_admission", 80);
  auto gm = traced_custom("serve_block_admission");
  ServeOptions so;
  so.max_queue_depth = 2;
  InferenceSession session(gm, Tensor::randn({1, 4}), so);

  Ticket blocker = session.submit(Tensor::randn({1, 4}));
  wait_until([&] { return session.stats().batches >= 1; });
  std::vector<Ticket> extra;
  for (int i = 0; i < 5; ++i) extra.push_back(session.submit(Tensor::randn({1, 4})));
  std::size_t rejected = 0;
  for (Ticket& t : extra) {
    Response r = t.response.get();
    if (!r.ok && r.code == ErrorCode::AdmissionRejected) ++rejected;
  }
  // Depth 2 admits at most 2 of the 5; at least 3 shed at the door.
  EXPECT_GE(rejected, 3u);
  EXPECT_GE(session.stats().rejected, 3u);
  ASSERT_TRUE(blocker.response.get().ok);
}

TEST(Serving, DeadlineExpiredInQueue) {
  register_slow_identity("serve_block_deadline_q", 100);
  auto gm = traced_custom("serve_block_deadline_q");
  InferenceSession session(gm, Tensor::randn({1, 4}));

  Ticket blocker = session.submit(Tensor::randn({1, 4}));
  wait_until([&] { return session.stats().batches >= 1; });
  // Expires long before the blocker frees the batcher.
  Ticket doomed = session.submit(Tensor::randn({2, 4}), /*deadline=*/0.02);
  Response r = doomed.response.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::DeadlineExceeded);
  ASSERT_TRUE(blocker.response.get().ok);
  session.shutdown();
  EXPECT_GE(session.stats().expired, 1u);
}

TEST(Serving, DeadlineDuringRunObservedByWatchLoop) {
  register_slow_identity("serve_block_deadline_run", 250);
  auto gm = traced_custom("serve_block_deadline_run");
  InferenceSession session(gm, Tensor::randn({1, 4}));

  // The request itself is the running batch; its deadline expires mid-run,
  // and the watch loop must answer it while the kernel is still sleeping.
  const auto t0 = std::chrono::steady_clock::now();
  Ticket t = session.submit(Tensor::randn({1, 4}), /*deadline=*/0.05);
  Response r = t.response.get();
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::DeadlineExceeded);
  // Answered by the mid-run sweep, not by batch completion.
  EXPECT_LT(waited, 0.2);
  session.shutdown();  // waits for the in-flight batch to quiesce
  const SessionStats s = session.stats();
  EXPECT_GE(s.expired, 1u);
  // The late result was observed and counted — never silently dropped.
  EXPECT_GE(s.late_results, 1u);
}

TEST(Serving, CancelDuringRunObservedByWatchdog) {
  register_slow_identity("serve_block_cancel_run", 250);
  auto gm = traced_custom("serve_block_cancel_run");
  InferenceSession session(gm, Tensor::randn({1, 4}));

  Ticket t = session.submit(Tensor::randn({1, 4}));
  wait_until([&] { return session.stats().batches >= 1; });
  // The request's own batch is running; the watchdog answers the cancel
  // while the kernel still sleeps.
  const auto t0 = std::chrono::steady_clock::now();
  t.cancel->store(true);
  Response r = t.response.get();
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::Cancelled);
  EXPECT_LT(waited, 0.2);
  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_GE(s.cancelled, 1u);
  EXPECT_GE(s.late_results, 1u);
}

TEST(Serving, LateBatchErrorAfterDeadlineIsCounted) {
  fx::register_custom_op(
      "serve_late_throw", {"x"}, [](const std::vector<Tensor>&) -> Tensor {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        throw std::runtime_error("late kernel failure");
      });
  auto gm = traced_custom("serve_late_throw");
  InferenceSession session(gm, Tensor::randn({1, 4}));

  const auto t0 = std::chrono::steady_clock::now();
  Ticket t = session.submit(Tensor::randn({1, 4}), /*deadline=*/0.03);
  Response r = t.response.get();
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::DeadlineExceeded);
  EXPECT_LT(waited, 0.12);
  session.shutdown();  // the batch's error lands after its only member
  const SessionStats s = session.stats();
  EXPECT_EQ(s.late_errors, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.expired, 1u);
}

TEST(Serving, CancelBeforeRun) {
  register_slow_identity("serve_block_cancel", 80);
  auto gm = traced_custom("serve_block_cancel");
  InferenceSession session(gm, Tensor::randn({1, 4}));

  Ticket blocker = session.submit(Tensor::randn({1, 4}));
  wait_until([&] { return session.stats().batches >= 1; });
  Ticket victim = session.submit(Tensor::randn({1, 4}));
  victim.cancel->store(true);
  Response r = victim.response.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::Cancelled);
  ASSERT_TRUE(blocker.response.get().ok);
  session.shutdown();
  EXPECT_GE(session.stats().cancelled, 1u);
}

TEST(Serving, PoisonedRequestDegradesNotPoisons) {
  register_trap_identity("serve_trap");
  register_slow_identity("serve_trap_block", 60);
  auto gm = traced_custom("serve_trap");
  InferenceSession session(gm, Tensor::randn({1, 8}));

  // Hold the batcher with an incompatible (trailing-dim 3) request so the
  // three dim-8 requests below coalesce into one batch.
  // The blocker runs the same trap graph at a benign input.
  Ticket blocker = session.submit(Tensor::randn({1, 3}));
  wait_until([&] { return session.stats().batches >= 1; });

  Tensor good0 = seeded_input(300, {1, 8});
  Tensor poison = ops::mul(Tensor::ones({1, 8}), 1e7);
  Tensor good1 = seeded_input(301, {1, 8});
  Ticket t0 = session.submit(good0.clone());
  Ticket t1 = session.submit(poison.clone());
  Ticket t2 = session.submit(good1.clone());

  Response r0 = t0.response.get();
  Response r1 = t1.response.get();
  Response r2 = t2.response.get();
  ASSERT_TRUE(blocker.response.get().ok);

  // The poisoned request fails alone...
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.code, ErrorCode::NodeFailure);
  // ...while its co-batched neighbors still get correct answers.
  ASSERT_TRUE(r0.ok) << r0.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(bit_equal(r0.output, good0));
  EXPECT_TRUE(bit_equal(r2.output, good1));

  session.shutdown();
  const SessionStats s = session.stats();
  EXPECT_GE(s.failed, 1u);
  if (r0.batch_requests >= 2 || r2.batch_requests >= 2 || s.degraded_batches) {
    EXPECT_GE(s.degraded_batches, 1u);
  }
}

TEST(Serving, ShutdownDrainsQueuedRequests) {
  register_slow_identity("serve_block_drain", 40);
  auto gm = traced_custom("serve_block_drain");
  InferenceSession session(gm, Tensor::randn({1, 4}));
  std::vector<Ticket> ts;
  for (int i = 0; i < 3; ++i) ts.push_back(session.submit(Tensor::randn({1, 4})));
  session.shutdown();  // must answer all three, not orphan their futures
  for (Ticket& t : ts) {
    Response r = t.response.get();
    EXPECT_TRUE(r.ok) << r.error;
  }
  // Post-shutdown submissions are shed at admission.
  Response late = session.run(Tensor::randn({1, 4}));
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.code, ErrorCode::AdmissionRejected);
}

TEST(Serving, ZeroBatchDimRequestServed) {
  auto gm = fx::symbolic_trace(nn::models::mlp({8, 16, 4}));
  InferenceSession session(gm, seeded_input(11, {4, 8}));
  Response r = session.run(Tensor::zeros({0, 8}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output.size(0), 0);
}

// --------------------------------------------------------------------------
// Concurrent-session fuzz: N client threads x mixed shapes x random
// deadlines/cancellations against two sessions sharing one weight set.
// Every ok response must be bit-identical to the Interpreter on the same
// input. TSan-clean (scripts/check.sh leg 3).
// --------------------------------------------------------------------------

TEST(ServingFuzz, ConcurrentSessionsSharedWeights) {
  auto gm = fx::symbolic_trace(nn::models::mlp({8, 16, 4}));
  fx::PlanCacheOptions co;
  co.bucket_batch_dim = true;
  passes::compile_planned(*gm, {seeded_input(42, {4, 8})}, co);

  ServeOptions so;
  so.max_queue_delay = std::chrono::microseconds(500);
  InferenceSession s0(gm, so);
  InferenceSession s1(gm, so);
  InferenceSession* sessions[2] = {&s0, &s1};

  constexpr int kClients = 4;
  constexpr int kRequests = 30;
  struct Outcome {
    Tensor input;
    Response response;
  };
  std::vector<std::vector<Outcome>> outcomes(kClients);

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      rt::Rng rng(9000 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kRequests; ++i) {
        const std::int64_t rows = 1 + rng.randint(0, 3);
        Tensor x = seeded_input(
            static_cast<std::uint64_t>(c) * 1000 + static_cast<std::uint64_t>(i),
            {rows, 8});
        InferenceSession& s = *sessions[rng.randint(0, 1)];
        const double deadline =
            rng.randint(0, 9) == 0 ? 1e-4 : 0.0;  // 10%: near-instant deadline
        Ticket t = s.submit(x.clone(), deadline);
        if (rng.randint(0, 9) == 0) t.cancel->store(true);  // 10%: cancel
        Outcome o;
        o.input = std::move(x);
        o.response = t.response.get();
        outcomes[static_cast<std::size_t>(c)].push_back(std::move(o));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  s0.shutdown();
  s1.shutdown();

  // Bit-check after the fact, single-threaded (references via Interpreter).
  std::size_t ok_count = 0;
  for (const auto& per_client : outcomes) {
    for (const Outcome& o : per_client) {
      if (!o.response.ok) {
        // Failures must carry a taxonomy code, never Unknown success-less.
        EXPECT_NE(o.response.code, ErrorCode::Unknown) << o.response.error;
        continue;
      }
      ++ok_count;
      EXPECT_TRUE(bit_equal(o.response.output, interpreter_ref(*gm, o.input)));
    }
  }
  // The vast majority of requests (no deadline, no cancel) must succeed.
  EXPECT_GE(ok_count, static_cast<std::size_t>(kClients * kRequests / 2));
  const SessionStats st0 = s0.stats();
  const SessionStats st1 = s1.stats();
  EXPECT_EQ(st0.admitted + st1.admitted + st0.rejected + st1.rejected,
            static_cast<std::uint64_t>(kClients * kRequests));
}

}  // namespace
}  // namespace fxcpp
