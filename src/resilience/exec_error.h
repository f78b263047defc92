// ExecError — the structured error taxonomy of the hardened execution
// runtime (src/resilience). One exception type spans both engines
// (Interpreter, compiled tape) and carries everything a production operator
// needs to act on a failure: a machine-matchable code,
// the failing node's name/op/target, which engine was running, and the
// partial environment state (names of values live at the failure point).
//
// Header-only on purpose, like analysis/diagnostic.h: the engines in
// fxcpp_core throw ExecError without a link-time dependency on
// fxcpp_resilience, while the resilience library (guards, fault injection,
// anomaly detection) builds its policies on the same type.
//
// Annotation flows inside-out: the innermost throw site sets what it knows
// (an anomaly hook knows code + node, a kernel knows nothing), and each
// enclosing layer fills only the fields still unset — node provenance at the
// per-node execution wrapper, engine at the engine boundary, the live-value
// snapshot at the run level. First writer wins, so the most precise
// information survives.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/node.h"
#include "tensor/tensor.h"

namespace fxcpp {

// What went wrong, machine-matchable. run_resilient's fallback ladder keys
// off this: input-shaped codes (arity, guard) abort immediately since no
// engine can fix the caller's inputs, everything else is worth a retry on
// the next engine down.
enum class ErrorCode {
  Unknown,
  ArityMismatch,     // wrong number of inputs for the graph's placeholders
  GuardViolation,    // an input broke its generated GuardSpec
  NodeFailure,       // a node's kernel / module / hook threw
  AllocLimit,        // allocation ceiling breached while the node ran
  NumericAnomaly,    // NaN/Inf detected in a node output (anomaly mode)
  Cancelled,         // cooperative cancellation token observed
  DeadlineExceeded,  // wall-clock deadline expired mid-run
  AdmissionRejected, // serving: request refused before execution (queue full,
                     // shed by priority watermark, or session shutting down)
                     // — never reached an engine
  CircuitOpen,       // serving: the session's circuit breaker is Open and
                     // failed the request fast — the engine was not invoked
};

// Number of ErrorCode values. The codes are contiguous from 0, so serving
// stats can keep a per-code histogram in a flat array indexed by
// static_cast<std::size_t>(code); error_code_name covers every slot.
inline constexpr std::size_t kNumErrorCodes =
    static_cast<std::size_t>(ErrorCode::CircuitOpen) + 1;

inline const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::Unknown: return "unknown";
    case ErrorCode::ArityMismatch: return "arity-mismatch";
    case ErrorCode::GuardViolation: return "guard-violation";
    case ErrorCode::NodeFailure: return "node-failure";
    case ErrorCode::AllocLimit: return "alloc-limit";
    case ErrorCode::NumericAnomaly: return "numeric-anomaly";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::AdmissionRejected: return "admission-rejected";
    case ErrorCode::CircuitOpen: return "circuit-open";
  }
  return "?";
}

// Which execution engine was driving when the failure surfaced.
enum class Engine {
  Unknown,
  Interpreter,  // Interpreter::run (node-by-node, per-node dispatch)
  Tape,         // CompiledGraph::run (serial compiled tape)
};

inline const char* engine_name(Engine e) {
  switch (e) {
    case Engine::Unknown: return "unknown";
    case Engine::Interpreter: return "interpreter";
    case Engine::Tape: return "tape";
  }
  return "?";
}

class ExecError : public std::runtime_error {
 public:
  ExecError(ErrorCode code, std::string detail)
      : std::runtime_error(detail), code_(code), detail_(std::move(detail)) {
    render();
  }

  // --- annotation (set-if-unset; returns *this for chaining) -------------
  ExecError& with_node(const fx::Node& n) {
    return with_node_info(n.name(), fx::opcode_name(n.op()), n.target());
  }
  ExecError& with_node_info(std::string name, std::string op,
                            std::string target) {
    if (node_name_.empty()) {
      node_name_ = std::move(name);
      node_op_ = std::move(op);
      node_target_ = std::move(target);
      render();
    }
    return *this;
  }
  ExecError& with_engine(Engine e) {
    if (engine_ == Engine::Unknown && e != Engine::Unknown) {
      engine_ = e;
      render();
    }
    return *this;
  }
  // Names of values computed and still live when the run failed, in graph
  // order (the "partial environment state" a postmortem starts from).
  ExecError& with_env(std::vector<std::string> live) {
    if (live_env_.empty() && !live.empty()) {
      live_env_ = std::move(live);
      render();
    }
    return *this;
  }

  // --- accessors ---------------------------------------------------------
  ErrorCode code() const { return code_; }
  Engine engine() const { return engine_; }
  bool has_node() const { return !node_name_.empty(); }
  const std::string& node_name() const { return node_name_; }
  const std::string& node_op() const { return node_op_; }
  const std::string& node_target() const { return node_target_; }
  const std::string& detail() const { return detail_; }
  const std::vector<std::string>& live_env() const { return live_env_; }

  const char* what() const noexcept override { return what_.c_str(); }

 private:
  void render() {
    what_ = std::string("ExecError[") + error_code_name(code_) + "]";
    what_ += std::string(" engine=") + engine_name(engine_);
    if (!node_name_.empty()) {
      what_ += " at node '" + node_name_ + "' (" + node_op_;
      if (!node_target_.empty()) what_ += " target=" + node_target_;
      what_ += ")";
    }
    what_ += ": " + detail_;
    if (!live_env_.empty()) {
      what_ += " [live:";
      const std::size_t shown = live_env_.size() < 8 ? live_env_.size() : 8;
      for (std::size_t i = 0; i < shown; ++i) what_ += " " + live_env_[i];
      if (live_env_.size() > shown) {
        what_ += " +" + std::to_string(live_env_.size() - shown) + " more";
      }
      what_ += "]";
    }
  }

  ErrorCode code_ = ErrorCode::Unknown;
  Engine engine_ = Engine::Unknown;
  std::string node_name_, node_op_, node_target_;
  std::string detail_;
  std::vector<std::string> live_env_;
  std::string what_;
};

// True for errors the fallback ladder must NOT retry: the inputs themselves
// are wrong, so every engine would fail identically.
inline bool is_input_error(ErrorCode c) {
  return c == ErrorCode::ArityMismatch || c == ErrorCode::GuardViolation;
}

// The one arity-mismatch message both engines share, so the parity
// tests can assert identical text modulo the engine field.
inline ExecError arity_error(std::size_t expected_placeholders,
                             std::size_t got) {
  return ExecError(ErrorCode::ArityMismatch,
                   "graph takes " + std::to_string(expected_placeholders) +
                       " placeholder input(s) but " + std::to_string(got) +
                       " were provided");
}

// Annotate the in-flight exception with node/engine/env provenance and
// rethrow. Must be called from inside a catch block. Maps the low-level
// exception zoo onto the taxonomy: ExecError passes through gaining only
// its unset fields, AllocLimitError (tensor/Storage ceiling) becomes
// AllocLimit, anything else becomes NodeFailure wrapping the original
// message. Both engines funnel their per-node failures through here,
// which is what makes differential fault injection assert "same code, same
// node" across engines.
[[noreturn]] inline void rethrow_annotated(const fx::Node* node, Engine engine,
                                           std::vector<std::string> live_env =
                                               {}) {
  try {
    throw;
  } catch (ExecError& e) {
    if (node) e.with_node(*node);
    e.with_engine(engine).with_env(std::move(live_env));
    throw;
  } catch (const AllocLimitError& a) {
    ExecError err(ErrorCode::AllocLimit, a.what());
    if (node) err.with_node(*node);
    err.with_engine(engine).with_env(std::move(live_env));
    throw err;
  } catch (const std::exception& ex) {
    ExecError err(ErrorCode::NodeFailure, ex.what());
    if (node) err.with_node(*node);
    err.with_engine(engine).with_env(std::move(live_env));
    throw err;
  } catch (...) {
    ExecError err(ErrorCode::NodeFailure, "unknown exception type");
    if (node) err.with_node(*node);
    err.with_engine(engine).with_env(std::move(live_env));
    throw err;
  }
}

}  // namespace fxcpp
