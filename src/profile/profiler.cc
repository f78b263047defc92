#include "profile/profiler.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "core/interpreter.h"
#include "core/json.h"
#include "core/plan_cache.h"
#include "kernels/dispatch.h"
#include "tensor/pack_cache.h"

namespace fxcpp::profile {

using fx::json_escape;

namespace {

double bytes_of(const fx::RtValue& v) {
  if (fx::rt_is_tensor(v)) {
    const Tensor& t = fx::rt_tensor(v);
    return static_cast<double>(t.numel()) *
           static_cast<double>(dtype_size(t.dtype()));
  }
  if (std::holds_alternative<std::vector<Tensor>>(v)) {
    double sum = 0.0;
    for (const Tensor& t : std::get<std::vector<Tensor>>(v)) {
      sum += static_cast<double>(t.numel()) *
             static_cast<double>(dtype_size(t.dtype()));
    }
    return sum;
  }
  return 0.0;
}

std::string fmt_bytes(double b) {
  char buf[64];
  if (b >= 1e9) std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  else if (b >= 1e6) std::snprintf(buf, sizeof(buf), "%.2f MB", b / 1e6);
  else if (b >= 1e3) std::snprintf(buf, sizeof(buf), "%.2f KB", b / 1e3);
  else std::snprintf(buf, sizeof(buf), "%.0f B", b);
  return buf;
}

}  // namespace

double NodeProfile::achieved_flops_per_sec() const {
  if (!measured || total_seconds <= 0.0) return 0.0;
  return flops * static_cast<double>(calls) / total_seconds;
}

double NodeProfile::roofline_ratio() const {
  if (!measured || est_seconds <= 0.0 || calls == 0) return 0.0;
  return (total_seconds / static_cast<double>(calls)) / est_seconds;
}

Profiler::Profiler(fx::GraphModule& gm, ProfileOptions opts)
    : gm_(gm), opts_(opts), epoch_(std::chrono::steady_clock::now()) {}

double Profiler::us_since_epoch(
    std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double, std::micro>(tp - epoch_).count();
}

int Profiler::lane_of_locked(std::thread::id tid) {
  auto it = lanes_.find(tid);
  if (it != lanes_.end()) return it->second;
  const int lane = static_cast<int>(lanes_.size());
  lanes_.emplace(tid, lane);
  return lane;
}

void Profiler::ensure_cost_model(const std::vector<fx::RtValue>& inputs) {
  if (!opts_.with_cost_model || cost_ready_) return;
  cost_ready_ = true;  // one attempt, even if it fails
  passes::CostReport report;
  std::vector<Tensor> ts;
  bool all_tensor = !inputs.empty();
  for (const auto& v : inputs) {
    if (!fx::rt_is_tensor(v)) {
      all_tensor = false;
      break;
    }
    ts.push_back(fx::rt_tensor(v));
  }
  try {
    // The Tensor-input overload re-runs ShapeProp when meta is missing
    // (e.g. invalidated by a transform), so fresh graphs still get costed.
    report = all_tensor
                 ? passes::estimate_cost(gm_, ts)
                 : passes::estimate_cost(
                       static_cast<const fx::GraphModule&>(gm_));
  } catch (const std::exception&) {
    return;  // best-effort: time/memory profiling works without a cost model
  }
  for (const auto& c : report.per_node) costs_[c.node] = c;
}

fx::RtValue Profiler::run_interpreter(std::vector<fx::RtValue> inputs) {
  ensure_cost_model(inputs);
  fx::Interpreter interp(gm_);
  interp.set_hooks(this);
  return interp.run(std::move(inputs));
}

std::vector<fx::RtValue> Profiler::run_tape(std::vector<fx::RtValue> inputs) {
  ensure_cost_model(inputs);
  if (!gm_.compiled()) gm_.recompile();
  return gm_.compiled_graph().run(std::move(inputs), this);
}

void Profiler::on_run_begin(std::size_t num_nodes) {
  (void)num_nodes;
  std::lock_guard<std::mutex> lock(mu_);
  run_start_ = std::chrono::steady_clock::now();
  if (opts_.track_memory) {
    if (runs_ == 0) mem_.live_before = Storage::live_bytes();
    Storage::reset_peak();
    run_alloc_before_ = Storage::total_allocated_bytes();
    run_alloc_count_before_ = Storage::allocation_count();
  }
}

void Profiler::on_node_begin(const fx::Node& n) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  OpenSlot slot;
  slot.node = &n;
  slot.lane = lane_of_locked(std::this_thread::get_id());
  slot.start = now;
  if (opts_.track_memory) slot.live_before = Storage::live_bytes();
  open_[std::this_thread::get_id()] = slot;
}

void Profiler::on_node_end(const fx::Node& n, const fx::RtValue& out) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(std::this_thread::get_id());
  if (it == open_.end() || it->second.node != &n) return;  // unmatched begin
  const OpenSlot slot = it->second;
  open_.erase(it);

  TraceEvent ev;
  ev.node = &n;
  ev.lane = slot.lane;
  ev.start_us = us_since_epoch(slot.start);
  ev.dur_us = std::chrono::duration<double, std::micro>(now - slot.start)
                  .count();
  events_.push_back(ev);

  auto [ait, inserted] = agg_.try_emplace(&n);
  NodeProfile& p = ait->second;
  if (inserted) {
    p.node = &n;
    p.name = n.name();
    p.op = fx::opcode_name(n.op());
    p.target = n.target();
    first_seen_.push_back(&n);
  }
  ++p.calls;
  const double secs = ev.dur_us * 1e-6;
  p.total_seconds += secs;
  p.max_seconds = std::max(p.max_seconds, secs);
  p.out_bytes = bytes_of(out);
  if (opts_.track_memory) {
    p.alloc_bytes += Storage::live_bytes() - slot.live_before;
  }
}

void Profiler::on_run_end() {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ++runs_;
  wall_seconds_ +=
      std::chrono::duration<double>(now - run_start_).count();
  if (opts_.track_memory) {
    mem_.live_after = Storage::live_bytes();
    mem_.peak = std::max(mem_.peak, Storage::peak_bytes());
    mem_.traffic += Storage::total_allocated_bytes() - run_alloc_before_;
    mem_.allocations += Storage::allocation_count() - run_alloc_count_before_;
  }
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.clear();
  open_.clear();
  agg_.clear();
  first_seen_.clear();
  events_.clear();
  runs_ = 0;
  wall_seconds_ = 0.0;
  mem_ = MemoryStats{};
  epoch_ = std::chrono::steady_clock::now();
}

std::vector<NodeProfile> Profiler::node_profiles() const {
  std::vector<NodeProfile> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(first_seen_.size());
    for (const fx::Node* n : first_seen_) out.push_back(agg_.at(n));
  }
  for (NodeProfile& p : out) {
    auto it = costs_.find(p.node);
    if (it == costs_.end()) continue;
    const passes::NodeCost& c = it->second;
    p.measured = c.measured;
    p.flops = c.flops;
    p.bytes = c.bytes_read + c.bytes_written;
    p.est_seconds = std::max(c.flops / opts_.flops_per_sec,
                             (c.bytes_read + c.bytes_written) /
                                 opts_.bytes_per_sec);
  }
  std::sort(out.begin(), out.end(),
            [](const NodeProfile& a, const NodeProfile& b) {
              if (a.total_seconds != b.total_seconds) {
                return a.total_seconds > b.total_seconds;
              }
              return a.name < b.name;
            });
  return out;
}

double Profiler::node_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const auto& [n, p] : agg_) sum += p.total_seconds;
  return sum;
}

int Profiler::num_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(lanes_.size());
}

std::string Profiler::text_report(std::size_t top_k) const {
  const std::vector<NodeProfile> nodes = node_profiles();
  const double node_s = node_seconds();
  std::size_t measured = 0;
  for (const auto& p : nodes) measured += p.measured ? 1 : 0;

  std::ostringstream os;
  os << "== fxprof: " << nodes.size() << " nodes, " << runs_ << " run(s), "
     << num_lanes() << " lane(s) ==\n";
  os << std::fixed;
  os << "wall time  : " << std::setprecision(3) << wall_seconds_ * 1e3
     << " ms (hooked node time " << node_s * 1e3 << " ms";
  if (wall_seconds_ > 0.0) {
    os << ", " << std::setprecision(1) << 100.0 * node_s / wall_seconds_
       << "%";
  }
  os << ")\n";
  os << "allocator  : live " << fmt_bytes(static_cast<double>(mem_.live_before))
     << " -> " << fmt_bytes(static_cast<double>(mem_.live_after))
     << ", high-water " << fmt_bytes(static_cast<double>(mem_.peak))
     << ", traffic " << fmt_bytes(static_cast<double>(mem_.traffic)) << " in "
     << mem_.allocations << " allocation(s)\n";
  os << "cost model : " << measured << "/" << nodes.size()
     << " nodes measured (device " << std::setprecision(1)
     << opts_.flops_per_sec / 1e9 << " GFLOP/s, " << opts_.bytes_per_sec / 1e9
     << " GB/s)\n\n";

  os << std::left << std::setw(28) << "node" << std::setw(15) << "op"
     << std::right << std::setw(6) << "calls" << std::setw(12) << "total ms"
     << std::setw(7) << "%" << std::setw(10) << "gflops" << std::setw(11)
     << "achv GF/s" << std::setw(11) << "roofline x" << "\n";
  std::size_t shown = 0;
  for (const auto& p : nodes) {
    if (shown++ >= top_k) break;
    os << std::left << std::setw(28) << p.name << std::setw(15) << p.op
       << std::right << std::setw(6) << p.calls << std::setw(12)
       << std::setprecision(3) << p.total_seconds * 1e3 << std::setw(7)
       << std::setprecision(1)
       << (node_s > 0.0 ? 100.0 * p.total_seconds / node_s : 0.0);
    if (p.measured) {
      os << std::setw(10) << std::setprecision(3) << p.flops / 1e9
         << std::setw(11) << std::setprecision(2)
         << p.achieved_flops_per_sec() / 1e9 << std::setw(11)
         << std::setprecision(2) << p.roofline_ratio();
    } else {
      os << std::setw(10) << "-" << std::setw(11) << "-" << std::setw(11)
         << "unmeasured";
    }
    os << "\n";
  }
  if (nodes.size() > top_k) {
    os << "(top " << top_k << " of " << nodes.size() << " by self time)\n";
  }
  return os.str();
}

std::string Profiler::chrome_trace_json() const {
  std::vector<TraceEvent> events;
  int lanes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
    lanes = static_cast<int>(lanes_.size());
  }
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (int lane = 0; lane < lanes; ++lane) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << lane
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \"lane " << lane
       << (lane == 0 ? " (caller)" : " (worker)") << "\"}}";
  }
  os.precision(3);
  os << std::fixed;
  for (const TraceEvent& ev : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << ev.lane
       << ", \"ts\": " << ev.start_us << ", \"dur\": " << ev.dur_us
       << ", \"name\": \"" << json_escape(ev.node->name())
       << "\", \"cat\": \"" << fx::opcode_name(ev.node->op())
       << "\", \"args\": {\"target\": \"" << json_escape(ev.node->target())
       << "\"}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string Profiler::summary_json() const {
  const std::vector<NodeProfile> nodes = node_profiles();
  std::ostringstream os;
  os.precision(9);
  os << "{\n";
  os << "  \"runs\": " << runs_ << ",\n";
  os << "  \"lanes\": " << num_lanes() << ",\n";
  os << "  \"wall_seconds\": " << wall_seconds_ << ",\n";
  os << "  \"node_seconds\": " << node_seconds() << ",\n";
  os << "  \"memory\": {\"live_before\": " << mem_.live_before
     << ", \"live_after\": " << mem_.live_after << ", \"peak\": " << mem_.peak
     << ", \"traffic\": " << mem_.traffic
     << ", \"allocations\": " << mem_.allocations << "},\n";
  if (const std::shared_ptr<fx::PlanCache> cache = gm_.plan_cache()) {
    // Hit/miss/evict/replan accounting of the module's multi-plan cache
    // (core/plan_cache.h) — present only when compile_planned attached one.
    os << "  \"plan_cache\": " << cache->stats().to_json() << ",\n";
  }
  {
    // Which SIMD tier the micro-kernel layer dispatched to, plus
    // process-wide pack/panel cache accounting (tensor/pack_cache.h).
    const PackCache::GlobalStats ks = PackCache::global_stats();
    os << "  \"kernels\": {\"isa\": \""
       << kernels::isa_name(kernels::active_isa())
       << "\", \"pack_hits\": " << ks.hits << ", \"pack_misses\": " << ks.misses
       << ", \"panel_hits\": " << ks.panel_hits
       << ", \"panel_misses\": " << ks.panel_misses << "},\n";
  }
  os << "  \"nodes\": [";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeProfile& p = nodes[i];
    os << (i ? "," : "") << "\n    {\"name\": \"" << json_escape(p.name)
       << "\", \"op\": \"" << p.op << "\", \"target\": \""
       << json_escape(p.target) << "\", \"calls\": " << p.calls
       << ", \"total_seconds\": " << p.total_seconds
       << ", \"out_bytes\": " << p.out_bytes
       << ", \"alloc_bytes\": " << p.alloc_bytes
       << ", \"measured\": " << (p.measured ? "true" : "false")
       << ", \"flops\": " << p.flops << ", \"bytes\": " << p.bytes
       << ", \"est_seconds\": " << p.est_seconds << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace fxcpp::profile
