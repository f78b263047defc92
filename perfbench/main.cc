// perfbench — the repository benchmark binary. run.py builds it
// and invokes it as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// It prints the named metrics and an environment record, then, as its
// last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit status 1 means an output differed from its reference.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "kernels/dispatch.h"
#include "runtime/thread_pool.h"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end metrics of BENCHMARK.json (run.py checks).
// Each workload maps its own three timed paths onto a/b/c and gates the
// statistic that holds steady on a shared host: p50 for serve_mlp's
// open-loop a and b, p90 for everything else (see the workloads). The named
// metrics above the result line give p10/p50/p90 of every path.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"a_ms", "ms"}, {"b_ms", "ms"}, {"c_ms", "ms"},
};

// Must list exactly the per_layer metrics of BENCHMARK.json. A layer a
// workload does not exercise reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p90_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.batch_requests_mean", "count"},
    {"serve.batch_rows_mean", "count"},
    {"serve.runs_per_s", "1/s"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.expired", "count"},
    {"serve.retries", "count"},
    {"serve.degraded_rung_runs", "count"},
    {"serve.unattributed_pct", "%"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.backlog", "count"},
    {"serve.phase_retries", "count"},
    {"core.engine_run_us", "us"},
    {"core.batch_overhead_us", "us"},
    {"core.plan_cache.hit_rate", "ratio"},
    {"core.plan_cache.bucket_fill", "ratio"},
    {"core.plan_cache.misses", "count"},
    {"core.plan_cache.replans", "count"},
    {"core.plan_cache.evictions", "count"},
    {"tensor.storage.allocs_per_request", "count"},
    {"tensor.storage.bytes_per_request", "B"},
    {"tensor.storage.allocs_per_run", "count"},
    {"tensor.storage.bytes_per_run", "B"},
    {"tensor.storage.planner_served_share", "ratio"},
    {"tensor.pack_cache.panel_hit_rate", "ratio"},
    {"tensor.pack_cache.panel_misses_per_run", "count"},
    {"core.node.conv2d_ms", "ms"},
    {"core.node.linear_ms", "ms"},
    {"core.node.add_ms", "ms"},
    {"core.node.relu_ms", "ms"},
    {"core.node.pool_ms", "ms"},
    {"core.node.matmul_ms", "ms"},
    {"core.node.softmax_ms", "ms"},
    {"kernels.conv2d_gflops", "GFLOP/s"},
    {"passes.memory_planner.arena_bytes", "B"},
    {"passes.memory_planner.planned_instrs", "count"},
    {"core.tape.instrs", "count"},
    {"core.graph.nodes_traced", "count"},
    {"core.graph.nodes_after_fusion", "count"},
    {"core.tracer.trace_ms", "ms"},
    {"passes.fuse_conv_bn_ms", "ms"},
    {"passes.fuse_linear_relu_ms", "ms"},
    {"core.recompile_ms", "ms"},
    {"passes.compile_planned_ms", "ms"},
    {"passes.shape_prop_ms", "ms"},
    {"passes.plan_tape_ms", "ms"},
    {"trt.plan_ops", "count"},
    {"trt.fused_batchnorms", "count"},
    {"trt.fused_relus", "count"},
    {"trt.arena_bytes", "B"},
    {"trt.lower_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_mlp|resnet50_infer|compile_shapes --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

// `"name": {"value": v, "unit": "unit"}` with every digit of v.
std::string metric_json(const std::string& name, double v, const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0 && opt.seconds <= 600;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("bad or missing --seed/--seconds/--trace");

  Report rep;
  if (opt.workload == "serve_mlp") rep = run_serve_mlp(opt);
  else if (opt.workload == "resnet50_infer") rep = run_resnet50_infer(opt);
  else if (opt.workload == "compile_shapes") rep = run_compile_shapes(opt);
  else usage("unknown workload");

  std::printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const auto& [name, vu] : rep.named) {
    std::printf("  %-28s %14.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  for (const std::string& e : rep.errors) std::printf("ERROR: %s\n", e.c_str());

  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::string env = "{\"env\": {\"git_sha\": \"" + std::string(sha && *sha ? sha : "unknown") +
                    "\", \"isa\": \"" + fxcpp::kernels::isa_name(fxcpp::kernels::active_isa()) +
                    "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  // Each workload sets its intra-op thread count before it measures.
  env += ", \"intra_op_threads\": " + std::to_string(fxcpp::rt::get_num_threads());
  env += "}, \"named_metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : rep.named) {
    env += (first ? "" : ", ") + metric_json(name, vu.first, vu.second);
    first = false;
  }
  std::printf("%s}}\n", env.c_str());

  std::string metrics;
  first = true;
  auto emit = [&](const MetricDef& d, double v) {
    metrics += (first ? "" : ", ") + metric_json(d.name, v, d.unit);
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = rep.layer.find(d.name);
      emit(d, it == rep.layer.end() || !std::isfinite(it->second) ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto it = rep.e2e.find(d.name);
      if (it == rep.e2e.end() || !std::isfinite(it->second) || it->second <= 0) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s was not measured\n", d.name);
        return 2;
      }
      emit(d, it->second);
    }
  }
  // Failures include shed or expired requests; only an output that differs
  // from its reference makes the run incorrect.
  const bool correct = rep.mismatched == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return correct ? 0 : 1;
}
