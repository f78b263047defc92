// serve_mlp: open-loop Poisson traffic into an InferenceSession over the
// deep narrow MLP of A11 (64 -> 8x64 -> 64). Per-run fixed cost (dispatch,
// plan-cache lookup, arena lease, cat/split copies) dominates here, so
// batching, copy and dispatch changes show and GEMM kernel changes barely
// do.
//
// Phases, in order: warm-up at the low rate (discarded), `lo` at 8k req/s,
// `hi` at 20k req/s, then `peak` with 64 requests kept outstanding. Each
// open-loop request is timed from its scheduled send time until the
// completion thread observes its response, so generator stalls count.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <thread>

#include "bench.h"
#include "core/interpreter.h"
#include "core/plan_cache.h"
#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "passes/memory_planner.h"
#include "runtime/thread_pool.h"
#include "serve/loadgen.h"
#include "serve/session.h"

namespace perfbench {

using namespace fxcpp;

namespace {

constexpr std::int64_t kFeat = 64;
constexpr int kSeedPool = 256;  // payloads per row count: <= 2048 references
constexpr int kMaxRows = 8;     // serve::zipf_rows draws 1..8
constexpr double kLoRate = 8000.0;
// A third of the peak rate measured on a quiet 4-core host, so the phase
// stays below capacity when co-tenants slow the host down (at 40k req/s a
// 3x slowdown overloads it and every latency figure diverges).
constexpr double kHiRate = 20000.0;
constexpr int kPeakOutstanding = 64;
constexpr int kSetupReps = 31;
// Raised from the default 256 so a 100 ms host stall at the high rate
// (2000 queued requests) sheds nothing.
constexpr std::size_t kAdmissionBound = 4096;
// A phase whose generator ran this late, or that ended with this many
// requests outstanding, fell behind its schedule and is reported invalid.
constexpr double kMaxGenLateP99Ms = 5.0;
constexpr std::int64_t kMaxBacklog = 512;
// An open-loop phase that fell behind measured the host, not the server:
// it is run again, up to this many attempts in all, and the last attempt is
// reported (flagged INVALID if it fell behind too).
constexpr int kPhaseAttempts = 3;

bool fell_behind(double gen_late_p99_ms, std::int64_t backlog) {
  return gen_late_p99_ms > kMaxGenLateP99Ms || backlog > kMaxBacklog;
}

struct Built {
  std::shared_ptr<fx::GraphModule> gm;
  double trace_ms = 0.0;
  double compile_ms = 0.0;
  std::size_t arena_bytes = 0;  // of the plan compile_planned installed
  int planned_instrs = 0;
  std::size_t nodes = 0;
};

Built build_module() {
  Built b;
  std::vector<std::int64_t> dims(1, kFeat);
  dims.insert(dims.end(), 8, 64);
  dims.push_back(64);
  auto model = nn::models::mlp(dims);
  std::int64_t t = now_ns();
  b.gm = fx::symbolic_trace(model);
  b.trace_ms = ms_between(t, now_ns());
  b.nodes = b.gm->graph().nodes().size();
  fx::PlanCacheOptions po;
  po.bucket_batch_dim = true;
  po.capacity = 8;
  t = now_ns();
  const fx::TapePlan& plan = passes::compile_planned(*b.gm, {serve::request_input(0, 4, kFeat)}, po);
  b.compile_ms = ms_between(t, now_ns());
  b.arena_bytes = plan.arena_bytes;
  b.planned_instrs = plan.planned_count;
  // Pre-plan every power-of-two bucket a batch of <= 16 rows can land in.
  for (const std::int64_t rows : {1, 2, 4, 8, 16}) {
    b.gm->run_planned(serve::request_input(99, rows, kFeat));
  }
  return b;
}

serve::ServeOptions serve_options(fx::ExecHooks* hooks) {
  serve::ServeOptions o;
  o.max_queue_depth = kAdmissionBound;
  o.hooks = hooks;
  return o;
}

struct Sample {
  std::int64_t sched = 0, sub = 0, obs = 0;
  std::uint32_t input = 0;
  bool ok = false;
  bool match = false;
  double queue_s = 0.0, total_s = 0.0;
  std::int64_t batch_rows = 0;
  std::size_t batch_requests = 0;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::int64_t measure_from = 0;  // absolute ns; earlier sends are warm-up
  std::int64_t end = 0;           // absolute ns of the last send
  std::int64_t backlog = 0;       // outstanding when the last send went out
  double gen_late_p99_ms = 0.0;
};

// Drives one phase. Open loop when `offsets` (ns from phase start) is
// non-empty; otherwise closed loop with `outstanding` requests in flight
// for `closed_ns`. Blocks until every response is observed.
PhaseResult run_phase(serve::InferenceSession& session,
                      const std::vector<Tensor>& inputs,
                      const std::vector<Tensor>& refs,
                      const std::vector<std::int64_t>& offsets,
                      const std::vector<std::uint32_t>& picks,
                      std::int64_t warm_ns, int outstanding,
                      std::int64_t closed_ns) {
  PhaseResult pr;
  struct InFlight {
    Sample s;
    serve::Ticket ticket;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::condition_variable room;  // closed loop: an outstanding slot freed
  std::deque<InFlight> handoff;
  bool done_sending = false;
  std::atomic<std::int64_t> observed{0};

  // Completion thread: observes responses as they land, in any order (a
  // request that does not fit a forming batch is answered after later
  // arrivals), and checks each output against its reference. It alone
  // writes pr.samples until it is joined.
  std::thread completer([&] {
    std::vector<InFlight> window;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (window.empty()) {
          cv.wait(lock, [&] { return !handoff.empty() || done_sending; });
        }
        while (!handoff.empty()) {
          window.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (window.empty() && done_sending) return;
      }
      if (window.empty()) continue;
      window.front().ticket.response.wait_for(std::chrono::microseconds(50));
      const std::int64_t t = now_ns();
      std::size_t keep = 0;
      for (std::size_t i = 0; i < window.size(); ++i) {
        InFlight& f = window[i];
        if (f.ticket.response.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (keep != i) window[keep] = std::move(f);
          ++keep;
          continue;
        }
        const serve::Response r = f.ticket.response.get();
        Sample& s = f.s;
        s.obs = t;
        s.ok = r.ok;
        s.match = r.ok && bit_equal(r.output, refs[s.input]);
        s.queue_s = r.queue_seconds;
        s.total_s = r.total_seconds;
        s.batch_rows = r.batch_rows;
        s.batch_requests = r.batch_requests;
        pr.samples.push_back(s);
        observed.fetch_add(1, std::memory_order_release);
      }
      if (keep < window.size()) room.notify_one();
      window.resize(keep);
    }
  });

  const std::int64_t t0 = now_ns();
  pr.measure_from = t0 + warm_ns;
  std::int64_t sent = 0;
  auto send = [&](std::int64_t sched, std::uint32_t pick) {
    InFlight f;
    f.s.sched = sched;
    f.s.input = pick;
    f.s.sub = now_ns();
    f.ticket = session.submit(inputs[pick]);
    ++sent;
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(std::move(f));
    }
    cv.notify_one();
  };
  // Stops the completer once every sent request is observed; runs on the
  // exception path too, so the thread is always joined.
  auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done_sending = true;
    }
    cv.notify_one();
    completer.join();
  };
  try {
    if (!offsets.empty()) {
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        const std::int64_t due = t0 + offsets[i];
        // Sleep, never spin: on a shared host a spinning client takes the
        // CPU the server needs. Timer slack (~60 us) makes sends slightly
        // late, and that lateness counts in each request's latency.
        for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        send(due, picks[i % picks.size()]);
      }
    } else {
      const std::int64_t stop = t0 + closed_ns;
      std::size_t i = 0;
      while (now_ns() < stop) {
        {
          // The timeout bounds a wakeup lost between check and wait.
          std::unique_lock<std::mutex> lock(mu);
          room.wait_for(lock, std::chrono::microseconds(200), [&] {
            return sent - observed.load(std::memory_order_acquire) < outstanding;
          });
        }
        if (sent - observed.load(std::memory_order_acquire) < outstanding) {
          send(now_ns(), picks[i++ % picks.size()]);
        }
      }
    }
  } catch (...) {
    finish();
    throw;
  }
  pr.end = now_ns();
  pr.backlog = sent - observed.load(std::memory_order_acquire);
  finish();
  std::sort(pr.samples.begin(), pr.samples.end(),
            [](const Sample& a, const Sample& b) { return a.sub < b.sub; });
  std::vector<double> late;
  late.reserve(pr.samples.size());
  for (const Sample& s : pr.samples) late.push_back(ms_between(s.sched, s.sub));
  pr.gen_late_p99_ms = percentile(std::move(late), 0.99);
  return pr;
}

std::vector<std::int64_t> schedule_ns(std::uint64_t seed, double rate, double seconds) {
  std::vector<std::int64_t> out;
  for (double t : poisson_schedule(seed, rate, seconds)) {
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

struct Lat {
  std::vector<double> total_ms, queue_ms, service_ms;
};

Lat latencies(const PhaseResult& pr, bool from_send) {
  Lat l;
  for (const Sample& s : pr.samples) {
    if (s.sub < pr.measure_from || !s.ok) continue;
    l.total_ms.push_back(ms_between(from_send ? s.sub : s.sched, s.obs));
    l.queue_ms.push_back(s.queue_s * 1e3);
    l.service_ms.push_back((s.total_s - s.queue_s) * 1e3);
  }
  return l;
}

}  // namespace

Report run_serve_mlp(const Options& opt) {
  Report rep;
  rt::set_num_threads(1);

  // Set-up: model construction until every bucket is planned and a
  // session is accepting traffic. Repeated; the median is reported.
  std::vector<double> setup_s, trace_ms, compile_ms;
  Built built;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::int64_t t = now_ns();
    built = build_module();
    serve::InferenceSession probe(built.gm, serve_options(nullptr));
    setup_s.push_back(ms_between(t, now_ns()) * 1e-3);
    trace_ms.push_back(built.trace_ms);
    compile_ms.push_back(built.compile_ms);
  }
  rep.e2e["setup_s"] = median(setup_s);
  rep.add_named("setup_s", rep.e2e["setup_s"], "s");
  fx::GraphModule& gm = *built.gm;

  // Request payloads come from a bounded (seed, rows) pool so every
  // response is checked against a cached Interpreter reference.
  const std::uint64_t base = opt.seed * 1000003ull;
  std::vector<Tensor> inputs, refs;
  for (int sid = 0; sid < kSeedPool; ++sid) {
    for (int rows = 1; rows <= kMaxRows; ++rows) {
      inputs.push_back(serve::request_input(base + sid, rows, kFeat));
      refs.push_back(fx::rt_tensor(fx::Interpreter(gm).run(inputs.back())));
    }
  }
  auto picks_for = [&](std::uint64_t phase_seed, std::size_t n) {
    rt::Rng rng(opt.seed * 7919ull + phase_seed);
    std::vector<std::uint32_t> picks(n);
    for (auto& p : picks) {
      const std::int64_t rows = serve::zipf_rows(rng);
      const std::int64_t sid = rng.randint(0, kSeedPool - 1);
      p = static_cast<std::uint32_t>(sid * kMaxRows + (rows - 1));
    }
    return picks;
  };

  const double S = opt.seconds;
  const std::int64_t warm_lo = static_cast<std::int64_t>(0.10 * S * 1e9);
  const std::int64_t warm = static_cast<std::int64_t>(0.05 * S * 1e9);
  std::vector<PhaseResult> discarded;  // attempts that fell behind
  auto open_phase = [&](serve::InferenceSession& s, std::uint64_t phase_seed,
                        double rate, std::int64_t warm_ns, double measure_s,
                        int attempts) {
    const auto sched = schedule_ns(opt.seed * 104729ull + phase_seed, rate,
                                   measure_s + static_cast<double>(warm_ns) * 1e-9);
    const auto picks = picks_for(phase_seed, sched.size());
    PhaseResult pr = run_phase(s, inputs, refs, sched, picks, warm_ns, 0, 0);
    for (int a = 1; a < attempts && fell_behind(pr.gen_late_p99_ms, pr.backlog); ++a) {
      discarded.push_back(std::move(pr));
      pr = run_phase(s, inputs, refs, sched, picks, warm_ns, 0, 0);
    }
    return pr;
  };
  auto peak_phase = [&](serve::InferenceSession& s, double measure_s) {
    return run_phase(s, inputs, refs, {}, picks_for(3, 1 << 16), warm,
                     kPeakOutstanding,
                     warm + static_cast<std::int64_t>(measure_s * 1e9));
  };

  RunTracer tracer(gm);
  serve::InferenceSession plain(built.gm, serve_options(nullptr));
  std::unique_ptr<serve::InferenceSession> traced;
  if (opt.trace) traced = std::make_unique<serve::InferenceSession>(
                     built.gm, serve_options(&tracer));
  serve::InferenceSession& session = opt.trace ? *traced : plain;

  const auto cache0 = gm.plan_cache()->stats();
  const auto stats0 = session.stats();

  // Untraced low-rate phase (with its warm-up); in the traced run it is the
  // baseline of trace.overhead_pct.
  PhaseResult lo_plain = open_phase(plain, 1, kLoRate, warm_lo, 0.30 * S, kPhaseAttempts);
  Counters c0, c1;
  std::int64_t runs_lo = 0;
  std::vector<RunTracer::Run> lo_runs;
  PhaseResult lo_traced;
  if (opt.trace) {
    tracer.take_runs();
    c0 = Counters::now();
    const auto st = session.stats();
    lo_traced = open_phase(session, 1, kLoRate, warm, 0.25 * S, 1);
    runs_lo = static_cast<std::int64_t>(session.stats().batches - st.batches);
    lo_runs = tracer.take_runs();
    c1 = Counters::now();
  }

  PhaseResult hi = open_phase(session, 2, kHiRate, warm, 0.25 * S, kPhaseAttempts);
  const auto stats_pre_peak = session.stats();
  PhaseResult peak = peak_phase(session, 0.20 * S);
  const auto stats_post = session.stats();
  const auto cache1 = gm.plan_cache()->stats();
  tracer.take_runs();

  // Correctness and failures over every request sent, discarded attempts
  // included; schedule keeping over the reported open-loop phases.
  const PhaseResult* reported[] = {&lo_plain, &lo_traced, &hi, &peak};
  std::uint64_t mismatched = 0, not_ok = 0;
  auto account = [&](const PhaseResult& ph) {
    rep.attempted += ph.samples.size();
    for (const Sample& s : ph.samples) {
      if (!s.ok) ++not_ok;
      else if (!s.match) ++mismatched;
    }
  };
  for (const PhaseResult* ph : reported) account(*ph);
  for (const PhaseResult& ph : discarded) account(ph);
  if (not_ok) rep.fail(not_ok, std::to_string(not_ok) + " requests failed, shed or expired");
  double gen_late = 0.0;
  std::int64_t backlog = 0;
  const std::pair<const char*, const PhaseResult*> open_loop[] = {
      {"lo", &lo_plain}, {"lo_traced", &lo_traced}, {"hi", &hi}};
  for (const auto& [name, ph] : open_loop) {
    if (ph->samples.empty()) continue;
    gen_late = std::max(gen_late, ph->gen_late_p99_ms);
    backlog = std::max(backlog, ph->backlog);
    if (fell_behind(ph->gen_late_p99_ms, ph->backlog)) {
      rep.errors.push_back(std::string("phase ") + name +
                           " fell behind its schedule (generator p99 late " +
                           std::to_string(ph->gen_late_p99_ms) + " ms, backlog " +
                           std::to_string(ph->backlog) + "): INVALID");
    }
  }
  if (mismatched) {
    rep.mismatch(mismatched, std::to_string(mismatched) +
                             " responses differ from the Interpreter reference");
  }

  const Lat l_lo = latencies(lo_plain, false);
  const Lat l_hi = latencies(hi, false);
  const Lat l_peak = latencies(peak, true);
  std::uint64_t peak_ok = 0;
  for (const Sample& s : peak.samples) {
    if (s.ok && s.obs >= peak.measure_from && s.obs <= peak.end) ++peak_ok;
  }
  const double peak_rps =
      static_cast<double>(peak_ok) / (ms_between(peak.measure_from, peak.end) * 1e-3);

  // Open-loop phases are gated at p50: their tails on a shared host are set
  // by host stalls (a run's p90 at 8k req/s ranged 0.42-2.3 ms, its p50
  // 0.34-0.42 ms). The closed-loop phase is gated at p90, which queueing
  // behind the other 63 requests sets and which held steadier than its p50.
  rep.e2e["a_ms"] = percentile(l_lo.total_ms, 0.5);
  rep.e2e["b_ms"] = percentile(l_hi.total_ms, 0.5);
  rep.e2e["c_ms"] = percentile(l_peak.total_ms, 0.9);
  rep.add_latency("serve_", "_lo", l_lo.total_ms);
  rep.add_latency("serve_", "_hi", l_hi.total_ms);
  rep.add_latency("serve_peak_", "", l_peak.total_ms);
  rep.add_named("serve_peak_rps", peak_rps, "1/s");
  rep.add_named("serve_samples_lo", static_cast<double>(l_lo.total_ms.size()), "count");
  rep.add_named("serve_samples_hi", static_cast<double>(l_hi.total_ms.size()), "count");

  // ---- per-layer ------------------------------------------------------
  auto& L = rep.layer;
  L["serve.gen_late_p99_ms"] = gen_late;
  L["serve.backlog"] = static_cast<double>(backlog);
  L["serve.phase_retries"] = static_cast<double>(discarded.size());
  L["core.tracer.trace_ms"] = median(trace_ms);
  L["passes.compile_planned_ms"] = median(compile_ms);
  L["passes.memory_planner.arena_bytes"] = static_cast<double>(built.arena_bytes);
  L["passes.memory_planner.planned_instrs"] = built.planned_instrs;
  L["core.tape.instrs"] = static_cast<double>(gm.compiled_graph().instrs().size());
  L["core.graph.nodes_traced"] = static_cast<double>(built.nodes);
  L["core.graph.nodes_after_fusion"] = static_cast<double>(gm.graph().nodes().size());
  add_plan_cache_layers(rep, cache0, cache1);
  L["serve.shed"] = static_cast<double>(stats_post.rejected - stats0.rejected);
  L["serve.failed"] = static_cast<double>(stats_post.failed - stats0.failed);
  L["serve.expired"] = static_cast<double>(stats_post.expired - stats0.expired);
  L["serve.retries"] = static_cast<double>(stats_post.retries - stats0.retries);
  L["serve.degraded_rung_runs"] =
      static_cast<double>(stats_post.degraded_rung_runs - stats0.degraded_rung_runs);
  const double peak_batches =
      static_cast<double>(stats_post.batches - stats_pre_peak.batches);
  if (peak_batches > 0) {
    L["serve.batch_requests_mean"] =
        static_cast<double>(stats_post.completed - stats_pre_peak.completed) / peak_batches;
    L["serve.batch_rows_mean"] =
        static_cast<double>(stats_post.batched_rows - stats_pre_peak.batched_rows) / peak_batches;
    L["serve.runs_per_s"] = peak_batches / (ms_between(peak.measure_from - warm, peak.end) * 1e-3);
  }
  // Padding waste of bucketed plans: rows run over rows planned, per batch.
  double rows = 0.0, bucket_rows = 0.0;
  for (const PhaseResult* ph : reported) {
    for (const Sample& s : ph->samples) {
      if (!s.ok || s.batch_requests == 0) continue;
      std::int64_t b = 1;
      while (b < s.batch_rows) b <<= 1;
      rows += static_cast<double>(s.batch_rows) / static_cast<double>(s.batch_requests);
      bucket_rows += static_cast<double>(b) / static_cast<double>(s.batch_requests);
    }
  }
  L["core.plan_cache.bucket_fill"] = bucket_rows > 0 ? rows / bucket_rows : 0.0;

  if (opt.trace) {
    const Lat l_tr = latencies(lo_traced, false);
    const double untraced_p50 = percentile(l_lo.total_ms, 0.5);
    L["trace.overhead_pct"] =
        untraced_p50 > 0 ? (percentile(l_tr.total_ms, 0.5) / untraced_p50 - 1.0) * 100.0 : 0.0;
    L["serve.queue_wait_p50_ms"] = percentile(l_tr.queue_ms, 0.5);
    L["serve.queue_wait_p90_ms"] = percentile(l_tr.queue_ms, 0.9);
    L["serve.service_p50_ms"] = percentile(l_tr.service_ms, 0.5);
    add_counter_layers(rep, c0, c1, static_cast<double>(runs_lo),
                       static_cast<double>(lo_traced.samples.size()));
    add_run_layers(rep, lo_runs);

    // Per-request span trees: request -> {gen_late, queue, service ->
    // engine_run -> nodes}. Whatever no child covers (delivery to the
    // completion thread) is the request's unattributed self time.
    std::vector<double> overhead_us, unattributed_pct;
    std::vector<Span> chrome;
    double worst_sum_err = 0.0;
    std::uint64_t id = 0;
    for (const Sample& s : lo_traced.samples) {
      ++id;
      if (!s.ok || s.sub < lo_traced.measure_from) continue;
      const std::int64_t svc0 = s.sub + static_cast<std::int64_t>(s.queue_s * 1e9);
      const std::int64_t svc1 = s.sub + static_cast<std::int64_t>(s.total_s * 1e9);
      // The batch that served this request: the last run to start before
      // its response was set (the single worker runs batches in sequence).
      auto it = std::upper_bound(lo_runs.begin(), lo_runs.end(), svc1,
                                 [](std::int64_t t, const RunTracer::Run& r) { return t < r.start; });
      std::vector<Span> spans;
      spans.push_back({"serve.request", id, -1, s.sched, s.obs});
      spans.push_back({"serve.gen_late", id, 0, s.sched, s.sub});
      spans.push_back({"serve.queue", id, 0, s.sub, svc0});
      spans.push_back({"serve.service", id, 0, svc0, svc1});
      if (it != lo_runs.begin()) {
        const RunTracer::Run& run = *std::prev(it);
        append_run_spans(spans, run, 3, id);
        overhead_us.push_back((ms_between(svc0, svc1) - ms_between(run.start, run.end)) * 1e3);
      }
      const std::vector<std::int64_t> self = self_times(spans);
      std::int64_t sum = 0;
      for (std::int64_t v : self) sum += v;
      const double dur = static_cast<double>(s.obs - s.sched);
      worst_sum_err = std::max(worst_sum_err, std::fabs(static_cast<double>(sum) - dur));
      unattributed_pct.push_back(100.0 * static_cast<double>(self[0]) / dur);
      if (chrome.size() < 20000) chrome.insert(chrome.end(), spans.begin(), spans.end());
    }
    if (worst_sum_err > 0.5) {
      rep.errors.push_back("span self times do not sum to request latency (worst " +
                           std::to_string(worst_sum_err) + " ns)");
    }
    L["core.batch_overhead_us"] = median(overhead_us);
    L["serve.unattributed_pct"] = median(unattributed_pct);
    if (!opt.trace_dir.empty()) {
      write_chrome_trace(opt.trace_dir + "/serve_mlp_seed" + std::to_string(opt.seed) + ".json", chrome);
    }
  }
  return rep;
}

}  // namespace perfbench
