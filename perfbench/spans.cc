#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "core/module.h"
#include "tensor/pack_cache.h"

namespace perfbench {

using namespace fxcpp;

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous(), bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::Conv2d: return "conv2d";
    case OpKind::Linear: return "linear";
    case OpKind::Add: return "add";
    case OpKind::Relu: return "relu";
    case OpKind::Pool: return "pool";
    case OpKind::Matmul: return "matmul";
    case OpKind::Softmax: return "softmax";
    default: return "other";
  }
}

OpKind op_kind(const fx::GraphModule& gm, const fx::Node& n) {
  std::string what = n.target();
  if (n.op() == fx::Opcode::CallModule) {
    if (const auto m = gm.resolve_module(n.target())) what = m->kind();
  }
  if (what == "Conv2d" || what == "conv2d") return OpKind::Conv2d;
  if (what == "Linear" || what == "LinearReLU" || what == "linear") return OpKind::Linear;
  if (what == "add") return OpKind::Add;
  if (what == "ReLU" || what == "relu") return OpKind::Relu;
  if (what == "MaxPool2d" || what == "AdaptiveAvgPool2d" || what == "max_pool2d" ||
      what == "adaptive_avg_pool2d")
    return OpKind::Pool;
  if (what == "matmul") return OpKind::Matmul;
  if (what == "softmax") return OpKind::Softmax;
  return OpKind::Other;
}

Counters Counters::now() {
  const PackCache::GlobalStats p = PackCache::global_stats();
  return {Storage::allocation_count(), Storage::total_allocated_bytes(),
          Storage::planner_served_bytes(), p.panel_hits, p.panel_misses};
}

void add_counter_layers(Report& rep, const Counters& before,
                        const Counters& after, double runs, double requests) {
  const auto allocs = static_cast<double>(after.allocs - before.allocs);
  const auto bytes = static_cast<double>(after.bytes - before.bytes);
  const auto served = static_cast<double>(after.served_bytes - before.served_bytes);
  const auto hits = static_cast<double>(after.panel_hits - before.panel_hits);
  const auto misses = static_cast<double>(after.panel_misses - before.panel_misses);
  auto& L = rep.layer;
  if (requests > 0) {
    L["tensor.storage.allocs_per_request"] = allocs / requests;
    L["tensor.storage.bytes_per_request"] = bytes / requests;
  }
  if (runs > 0) {
    L["tensor.storage.allocs_per_run"] = allocs / runs;
    L["tensor.storage.bytes_per_run"] = bytes / runs;
    L["tensor.pack_cache.panel_misses_per_run"] = misses / runs;
  }
  L["tensor.storage.planner_served_share"] =
      served + bytes > 0 ? served / (served + bytes) : 0.0;
  L["tensor.pack_cache.panel_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void add_plan_cache_layers(Report& rep, const fx::PlanCacheStats& before,
                           const fx::PlanCacheStats& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  auto& L = rep.layer;
  L["core.plan_cache.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L["core.plan_cache.misses"] = misses;
  L["core.plan_cache.replans"] = static_cast<double>(after.replans - before.replans);
  L["core.plan_cache.evictions"] = static_cast<double>(after.evictions - before.evictions);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

}  // namespace

RunTracer::RunTracer(const fx::GraphModule& gm) {
  for (const fx::Node* n : gm.graph().nodes()) kinds_[n] = op_kind(gm, *n);
}

void RunTracer::on_run_begin(std::size_t num_nodes) {
  cur_.nodes.clear();
  cur_.nodes.reserve(num_nodes);
  cur_.start = now_ns();
}

void RunTracer::on_node_begin(const fx::Node&) { node_start_ = now_ns(); }

void RunTracer::on_node_end(const fx::Node& n, const fx::RtValue&) {
  const auto it = kinds_.find(&n);
  cur_.nodes.push_back(
      {it == kinds_.end() ? OpKind::Other : it->second, node_start_, now_ns()});
}

void RunTracer::on_run_end() {
  cur_.end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  runs_.push_back(std::move(cur_));
  cur_ = Run{};
}

std::vector<RunTracer::Run> RunTracer::take_runs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Run> out = std::move(runs_);
  runs_.clear();
  return out;
}

void append_run_spans(std::vector<Span>& spans, const RunTracer::Run& run,
                      int parent, std::uint64_t id) {
  const int run_idx = static_cast<int>(spans.size());
  spans.push_back({"core.engine_run", id, parent, run.start, run.end});
  for (const RunTracer::NodeSpan& ns : run.nodes) {
    spans.push_back({std::string("core.node.") + op_kind_name(ns.kind), id,
                     run_idx, ns.start, ns.end});
  }
}

namespace {

// Per-forward self time of each operator family over traced runs, in ms.
std::map<OpKind, double> op_self_ms_per_run(const std::vector<RunTracer::Run>& runs) {
  std::map<OpKind, double> total;
  for (int k = 0; k < static_cast<int>(OpKind::Count); ++k) {
    total[static_cast<OpKind>(k)] = 0.0;
  }
  if (runs.empty()) return total;
  for (const RunTracer::Run& r : runs) {
    // Node spans are leaves and do not overlap, so self time == duration.
    for (const RunTracer::NodeSpan& ns : r.nodes) {
      total[ns.kind] += ms_between(ns.start, ns.end);
    }
  }
  for (auto& [k, v] : total) v /= static_cast<double>(runs.size());
  return total;
}

}  // namespace

void add_run_layers(Report& rep, const std::vector<RunTracer::Run>& runs) {
  for (const auto& [k, v] : op_self_ms_per_run(runs)) {
    if (k != OpKind::Other) rep.layer[std::string("core.node.") + op_kind_name(k) + "_ms"] = v;
  }
  std::vector<double> run_us;
  for (const RunTracer::Run& r : runs) run_us.push_back(ms_between(r.start, r.end) * 1e3);
  rep.layer["core.engine_run_us"] = median(run_us);
}

void write_call_trace(const std::string& path, const char* call,
                      const std::vector<RunTracer::Run>& runs, std::size_t max_calls) {
  std::vector<Span> spans;
  for (std::size_t i = 0; i < runs.size() && i < max_calls; ++i) {
    spans.push_back({call, i + 1, -1, runs[i].start, runs[i].end});
    append_run_spans(spans, runs[i], static_cast<int>(spans.size()) - 1, i + 1);
  }
  write_chrome_trace(path, spans);
}

Tensor seeded_input(std::uint64_t seed, Shape shape) {
  rt::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(shape_numel(shape)));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, std::move(shape));
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  for (const Span& s : spans) t0 = std::min(t0, s.start);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  f.precision(3);
  f << std::fixed;
  bool first = true;
  for (const Span& s : spans) {
    f << (first ? "\n" : ",\n");
    first = false;
    f << "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.id
      << ", \"ts\": " << static_cast<double>(s.start - t0) * 1e-3
      << ", \"dur\": " << static_cast<double>(std::max<std::int64_t>(0, s.end - s.start)) * 1e-3
      << ", \"name\": \"" << json_escape(s.name)
      << "\", \"args\": {\"id\": " << s.id << "}}";
  }
  f << "\n]}\n";
}

}  // namespace perfbench
