// FaultInjector — deterministic fault injection riding the ExecHooks seam.
//
// TorchProbe-style systematic fuzzing (PAPERS.md) needs a way to make any
// node fail, in any engine, on demand. Because both engines (Interpreter,
// compiled tape, planned or not) drive the same hook seam,
// one injector covers them all without engine-specific patching, and the
// differential fuzz can assert that a fault at node N surfaces as the same
// ExecError code at the same node everywhere.
//
// Targets are matched by Node identity (pointer), not by index: the
// Interpreter iterates nodes while the tape engines iterate instructions
// (placeholders are register fills there), so indices don't line up across
// engines but the Node* does. Placeholder/output nodes produce hook events
// only in the Interpreter — target compute nodes for cross-engine parity.
//
// Thread safety: all state is atomic or thread-local, so concurrent runs
// sharing one injector may call its hooks from several threads.
#pragma once

#include <atomic>

#include "core/exec_hooks.h"

namespace fxcpp::resilience {

enum class FaultKind {
  Throw,       // on_node_begin throws -> ExecError{NodeFailure} at the node
  PoisonNaN,   // on_node_output replaces the result with a NaN-poisoned copy
  PoisonInf,   // same, with +inf
  AllocLimit,  // arm a thread-local allocation ceiling for the node's
               // duration -> ExecError{AllocLimit} if the node allocates
};

const char* fault_kind_name(FaultKind k);

namespace detail {
// Thread-local ownership ledger for injected allocation ceilings. The
// Storage ceiling is single-shot and disarms itself when it trips, but a
// ceiling that was armed and never *tripped* (the target node threw for a
// different reason before allocating, or adopted arena memory) would stay
// armed on the thread and fire at an arbitrary allocation in the NEXT run —
// poisoning run_resilient's next rung or a batched run's degrade path with
// a spurious AllocLimit at the wrong node. Injectors therefore record
// themselves as the ceiling's owner when arming, and every run/node
// boundary outside the target disarms any ceiling this owner leaked, so an
// injected ceiling's state is scoped to exactly one attempt.
void arm_injected_ceiling(const void* owner);
void disarm_injected_ceiling(const void* owner);
bool ceiling_owned_by(const void* owner);
}  // namespace detail

class FaultInjector : public fx::ExecHooks {
 public:
  // Inject `kind` whenever `target` executes. `max_fires` bounds the number
  // of injections (-1 = unlimited): max_fires=1 makes the fault engine-local
  // so run_resilient's next rung recovers; unlimited makes every engine see
  // it, which is what the differential fuzz compares. The target node must
  // outlive the injector's use.
  FaultInjector(const fx::Node* target, FaultKind kind, int max_fires = -1);

  // Times the fault actually fired (throws thrown / outputs poisoned /
  // ceilings armed) since construction or reset().
  int fires() const { return fires_.load(std::memory_order_relaxed); }
  void reset(int max_fires = -1);

  // Run boundaries re-arm injector-owned thread state: an allocation
  // ceiling leaked by an aborted previous attempt (rung retry, batched-run
  // degrade) is disarmed here, so each attempt starts from a clean slate.
  void on_run_begin(std::size_t num_nodes) override;
  void on_run_end() override;
  void on_node_begin(const fx::Node& n) override;
  void on_node_output(const fx::Node& n, fx::RtValue& out) override;
  void on_node_end(const fx::Node& n, const fx::RtValue& out) override;

 private:
  bool take_fire();

  const fx::Node* target_;
  FaultKind kind_;
  std::atomic<int> remaining_;
  std::atomic<int> fires_{0};
};

}  // namespace fxcpp::resilience
