// AnomalyDetector — NaN/Inf watchdog riding the ExecHooks seam, modeled on
// torch.autograd.set_detect_anomaly: attach it to any engine and it scans
// every node's output for non-finite values, reporting the *first bad node
// in graph order* together with upstream provenance (which of its producers
// were already bad), so the blame lands on the node that introduced the
// poison rather than the node where the run finally blew up.
//
// Record mode collects findings for a post-run report(); Throw mode raises
// ExecError{NumericAnomaly} at the offending node, which the engines
// annotate and propagate exactly like a kernel failure.
//
// Thread-safe: one detector may observe concurrent runs (e.g. several
// serving sessions sharing one module), so on_node_end may run
// concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_hooks.h"
#include "core/graph_module.h"

namespace fxcpp::resilience {

// Non-finite (NaN or ±inf) element count across a tensor's float values;
// integer/bool tensors are finite by construction and return 0.
std::int64_t count_nonfinite(const Tensor& t);

enum class AnomalyAction {
  Record,  // collect findings, report after the run
  Throw,   // raise ExecError{NumericAnomaly} at the first bad node observed
};

struct AnomalyFinding {
  const fx::Node* node = nullptr;
  std::size_t order = 0;        // node's index in graph order
  std::int64_t bad_count = 0;   // non-finite elements in the output
  std::int64_t total_count = 0; // total elements scanned
};

class AnomalyDetector : public fx::ExecHooks {
 public:
  // `gm` provides the graph-order index used to rank findings
  // deterministically; the module must outlive the detector.
  explicit AnomalyDetector(const fx::GraphModule& gm,
                           AnomalyAction action = AnomalyAction::Record);

  void on_node_end(const fx::Node& n, const fx::RtValue& out) override;

  // Findings in graph order (deterministic across engines/thread counts).
  std::vector<AnomalyFinding> findings() const;
  bool any() const;
  // Earliest bad node in graph order (nullptr when clean).
  const fx::Node* first_bad() const;
  // The root cause: the earliest finding all of whose producer nodes are
  // clean — i.e. the node that *introduced* the non-finite values rather
  // than one that inherited them. nullptr when clean.
  const fx::Node* origin() const;
  // Human-readable summary with per-finding upstream provenance.
  std::string report() const;

  void reset();

 private:
  std::unordered_map<const fx::Node*, std::size_t> order_;
  AnomalyAction action_;
  mutable std::mutex mu_;
  std::map<std::size_t, AnomalyFinding> findings_;  // keyed by graph order
};

}  // namespace fxcpp::resilience
