// Hardened execution runtime: ExecError taxonomy and golden message quality,
// cross-engine arity parity, input guards (strict + permissive refresh), the
// guards.coverage verifier rule, systematic differential fault injection
// (throw / NaN poison / allocation ceiling at every compute node, asserting
// identical ExecError code + node across both engines), the run_resilient
// fallback ladder, and anomaly provenance.
// All randomness is seeded (runtime/rng.h) so failures replay.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/interpreter.h"
#include "core/op_registry.h"
#include "passes/shape_prop.h"
#include "resilience/anomaly.h"
#include "resilience/exec_error.h"
#include "resilience/fault_injection.h"
#include "resilience/guards.h"
#include "runtime/rng.h"

namespace fxcpp {
namespace {

using fx::Argument;
using fx::Graph;
using fx::GraphModule;
using fx::Node;
using fx::RtValue;
using resilience::AnomalyAction;
using resilience::AnomalyDetector;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::GuardMode;

// --------------------------------------------------------------------------
// Shared helpers.
// --------------------------------------------------------------------------

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) == 0;
}

bool bit_equal(const RtValue& a, const RtValue& b) {
  if (a.index() != b.index()) return false;
  if (fx::rt_is_tensor(a)) return bit_equal(fx::rt_tensor(a), fx::rt_tensor(b));
  return true;
}

constexpr std::int64_t kSide = 4;

Tensor random_tensor(rt::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(kSide * kSide));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, {kSide, kSide});
}

struct FuzzCase {
  std::shared_ptr<GraphModule> gm;
  std::vector<RtValue> inputs;
};

FuzzCase random_dag(std::uint64_t seed) {
  rt::Rng rng(seed);
  auto g = std::make_unique<Graph>();
  std::vector<Node*> pool;

  const int n_inputs = 1 + static_cast<int>(rng.randint(0, 1));
  for (int i = 0; i < n_inputs; ++i) {
    pool.push_back(g->placeholder("x" + std::to_string(i)));
  }

  static const char* kBinary[] = {"add", "sub", "mul"};
  static const char* kUnary[] = {"relu", "neg", "sigmoid", "tanh", "gelu"};

  const int n_ops = 5 + static_cast<int>(rng.randint(0, 20));
  for (int i = 0; i < n_ops; ++i) {
    auto pick = [&]() -> Node* {
      return pool[static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(pool.size()) - 1))];
    };
    Node* n = nullptr;
    switch (rng.randint(0, 3)) {
      case 0:
        n = g->call_function(kBinary[rng.randint(0, 2)], {pick(), pick()});
        break;
      case 1:
        n = g->call_function(kUnary[rng.randint(0, 4)], {pick()});
        break;
      case 2:
        n = g->call_function(kBinary[rng.randint(0, 2)],
                             {pick(), Argument(rng.uniform(-2.0, 2.0))});
        break;
      default:
        n = g->call_function("matmul", {pick(), pick()});
        break;
    }
    pool.push_back(n);
  }

  std::vector<Node*> sinks;
  for (Node* n : pool) {
    if (n->op() != fx::Opcode::Placeholder && n->users().empty()) {
      sinks.push_back(n);
    }
  }
  Node* acc = sinks.empty() ? pool.back() : sinks[0];
  for (std::size_t i = 1; i < sinks.size(); ++i) {
    acc = g->call_function("add", {acc, sinks[i]});
  }
  g->output(acc);

  FuzzCase fc;
  fc.gm = std::make_shared<GraphModule>(nullptr, std::move(g), "Fuzz");
  fc.gm->recompile();
  for (int i = 0; i < n_inputs; ++i) fc.inputs.emplace_back(random_tensor(rng));
  return fc;
}

// Custom op this binary leans on: a node that always throws.
void ensure_test_ops() {
  static bool once = [] {
    fx::OpRegistry::functions().add(
        {"fxres_throw_a", {"x"}, [](const std::vector<RtValue>&) -> RtValue {
           throw std::runtime_error("fxres A fired");
         }});
    return true;
  }();
  (void)once;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --------------------------------------------------------------------------
// One harness to run any engine and capture success or a structured error.
// --------------------------------------------------------------------------

enum class Which { Interp, Tape };

const char* which_name(Which w) {
  return w == Which::Interp ? "interpreter" : "tape";
}

struct Outcome {
  bool ok = false;
  RtValue out;
  ErrorCode code = ErrorCode::Unknown;
  Engine engine = Engine::Unknown;
  std::string node;
  std::string detail;
  std::string what;
};

Outcome run_engine(Which w, GraphModule& gm, const std::vector<RtValue>& in,
                   fx::ExecHooks* hooks) {
  Outcome o;
  try {
    switch (w) {
      case Which::Interp: {
        fx::Interpreter interp(gm);
        interp.set_hooks(hooks);
        o.out = interp.run(in);
        break;
      }
      case Which::Tape: {
        auto outs = gm.compiled_graph().run(in, hooks);
        if (!outs.empty()) o.out = outs[0];
        break;
      }
    }
    o.ok = true;
  } catch (const ExecError& e) {
    o.code = e.code();
    o.engine = e.engine();
    o.node = e.node_name();
    o.detail = e.detail();
    o.what = e.what();
  }
  // A fault that threw out of a node can leave the thread-local allocation
  // ceiling armed (on_node_end never ran); never let that leak across runs.
  Storage::set_alloc_limit(0);
  return o;
}

// --------------------------------------------------------------------------
// ExecError taxonomy mechanics.
// --------------------------------------------------------------------------

TEST(ExecError, RenderAndAccessors) {
  ExecError e(ErrorCode::NodeFailure, "kernel exploded");
  e.with_node_info("conv1", "call_module", "layers.conv1");
  e.with_engine(Engine::Tape);
  e.with_env({"x", "conv0"});
  EXPECT_EQ(e.code(), ErrorCode::NodeFailure);
  EXPECT_EQ(e.engine(), Engine::Tape);
  EXPECT_EQ(e.node_name(), "conv1");
  EXPECT_EQ(e.node_op(), "call_module");
  EXPECT_EQ(e.node_target(), "layers.conv1");
  EXPECT_EQ(e.detail(), "kernel exploded");
  const std::string w = e.what();
  EXPECT_TRUE(contains(w, "ExecError[node-failure]")) << w;
  EXPECT_TRUE(contains(w, "engine=tape")) << w;
  EXPECT_TRUE(contains(w, "at node 'conv1'")) << w;
  EXPECT_TRUE(contains(w, "call_module target=layers.conv1")) << w;
  EXPECT_TRUE(contains(w, "kernel exploded")) << w;
  EXPECT_TRUE(contains(w, "[live: x conv0]")) << w;
}

TEST(ExecError, AnnotationIsSetIfUnset) {
  ExecError e(ErrorCode::NumericAnomaly, "nan");
  e.with_node_info("inner", "call_function", "sigmoid");
  e.with_engine(Engine::Tape);
  // Outer layers must not clobber the more precise inner provenance.
  e.with_node_info("outer", "output", "");
  e.with_engine(Engine::Interpreter);
  EXPECT_EQ(e.node_name(), "inner");
  EXPECT_EQ(e.engine(), Engine::Tape);
  e.with_env({"a"});
  e.with_env({"b", "c"});
  ASSERT_EQ(e.live_env().size(), 1u);
  EXPECT_EQ(e.live_env()[0], "a");
}

TEST(ExecError, LiveEnvRenderingIsCapped) {
  ExecError e(ErrorCode::NodeFailure, "boom");
  std::vector<std::string> live;
  for (int i = 0; i < 11; ++i) live.push_back("v" + std::to_string(i));
  e.with_env(live);
  EXPECT_EQ(e.live_env().size(), 11u);
  EXPECT_TRUE(contains(e.what(), "+3 more")) << e.what();
}

TEST(ExecError, InputErrorClassification) {
  EXPECT_TRUE(is_input_error(ErrorCode::ArityMismatch));
  EXPECT_TRUE(is_input_error(ErrorCode::GuardViolation));
  EXPECT_FALSE(is_input_error(ErrorCode::NodeFailure));
  EXPECT_FALSE(is_input_error(ErrorCode::Cancelled));
}

// --------------------------------------------------------------------------
// Satellite: arity mismatch parity across both engines.
// --------------------------------------------------------------------------

TEST(ArityParity, SameCodeAndDetailAcrossEngines) {
  auto g = std::make_unique<Graph>();
  Node* a = g->placeholder("a");
  Node* b = g->placeholder("b");
  g->output(g->call_function("add", {a, b}));
  GraphModule gm(nullptr, std::move(g), "TwoIn");
  gm.recompile();

  const std::vector<RtValue> one = {RtValue(Tensor::randn({kSide, kSide}))};
  std::vector<RtValue> three = one;
  three.emplace_back(Tensor::randn({kSide, kSide}));
  three.emplace_back(Tensor::randn({kSide, kSide}));

  const Engine expect_engine[] = {Engine::Interpreter, Engine::Tape};
  const Which engines[] = {Which::Interp, Which::Tape};
  for (const auto& bad : {one, three}) {
    std::string first_detail;
    for (std::size_t i = 0; i < 2; ++i) {
      const Outcome o = run_engine(engines[i], gm, bad, nullptr);
      ASSERT_FALSE(o.ok) << which_name(engines[i]);
      EXPECT_EQ(o.code, ErrorCode::ArityMismatch) << which_name(engines[i]);
      EXPECT_EQ(o.engine, expect_engine[i]) << which_name(engines[i]);
      EXPECT_TRUE(contains(o.detail, "graph takes 2 placeholder input(s)"))
          << o.detail;
      if (first_detail.empty()) {
        first_detail = o.detail;
      } else {
        EXPECT_EQ(o.detail, first_detail) << which_name(engines[i]);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Satellite: golden error-message quality per engine. Every engine's
// ExecError names the node, its op, its target, and the engine itself.
// --------------------------------------------------------------------------

TEST(GoldenMessages, EveryEngineNamesNodeOpTargetAndEngine) {
  ensure_test_ops();
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* r = g->call_function("relu", {x});
  Node* boom = g->call_function("fxres_throw_a", {r});
  g->output(boom);
  GraphModule gm(nullptr, std::move(g), "Golden");
  gm.recompile();
  const std::vector<RtValue> in = {RtValue(Tensor::randn({kSide, kSide}))};

  const char* expect_engine[] = {"interpreter", "tape"};
  const Which engines[] = {Which::Interp, Which::Tape};
  for (std::size_t i = 0; i < 2; ++i) {
    const Outcome o = run_engine(engines[i], gm, in, nullptr);
    ASSERT_FALSE(o.ok) << which_name(engines[i]);
    EXPECT_EQ(o.code, ErrorCode::NodeFailure);
    EXPECT_EQ(o.node, boom->name());
    EXPECT_TRUE(contains(o.what, "ExecError[node-failure]")) << o.what;
    EXPECT_TRUE(contains(o.what, "engine=" + std::string(expect_engine[i])))
        << o.what;
    EXPECT_TRUE(contains(o.what, "at node '" + boom->name() + "'")) << o.what;
    EXPECT_TRUE(contains(o.what, "call_function")) << o.what;
    EXPECT_TRUE(contains(o.what, "target=fxres_throw_a")) << o.what;
    EXPECT_TRUE(contains(o.what, "fxres A fired")) << o.what;
    // Partial environment state: relu's value was live when the node failed.
    EXPECT_TRUE(contains(o.what, "[live:")) << o.what;
    EXPECT_TRUE(contains(o.what, r->name())) << o.what;
  }
}

// --------------------------------------------------------------------------
// Input guards: generation from ShapeProp meta, strict rejection,
// permissive refresh.
// --------------------------------------------------------------------------

std::shared_ptr<GraphModule> guarded_module() {
  auto g = std::make_unique<Graph>();
  Node* a = g->placeholder("a");
  Node* b = g->placeholder("b");
  g->output(g->call_function("mul", {g->call_function("add", {a, b}), b}));
  auto gm = std::make_shared<GraphModule>(nullptr, std::move(g), "Guarded");
  gm->recompile();
  passes::shape_prop(*gm, {Tensor::randn({2, 3}), Tensor::randn({2, 3})});
  return gm;
}

TEST(Guards, GenerateFromShapeMeta) {
  auto gm = guarded_module();
  EXPECT_TRUE(gm->guards().empty());
  EXPECT_EQ(resilience::generate_guards(*gm), 2u);
  ASSERT_EQ(gm->guards().size(), 2u);
  EXPECT_EQ(gm->guards()[0].placeholder, "a");
  EXPECT_EQ(gm->guards()[1].placeholder, "b");
  EXPECT_EQ(gm->guards()[0].shape, (Shape{2, 3}));
  EXPECT_EQ(gm->guards()[0].dtype, DType::Float32);
}

TEST(Guards, StrictAcceptsMatchingInputs) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  const std::vector<RtValue> good = {RtValue(Tensor::randn({2, 3})),
                                     RtValue(Tensor::randn({2, 3}))};
  EXPECT_FALSE(resilience::check_inputs(*gm, good, GuardMode::Strict));
}

TEST(Guards, StrictRejectsNamingThePlaceholder) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  const std::vector<RtValue> bad = {RtValue(Tensor::randn({2, 3})),
                                    RtValue(Tensor::randn({5, 5}))};
  try {
    resilience::check_inputs(*gm, bad, GuardMode::Strict);
    FAIL() << "expected a guard violation";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::GuardViolation);
    EXPECT_EQ(e.node_name(), "b") << e.what();
    EXPECT_TRUE(contains(e.what(), "[2, 3]")) << e.what();
    EXPECT_TRUE(contains(e.what(), "[5, 5]")) << e.what();
  }
}

TEST(Guards, StrictRejectsNonTensorInput) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  const std::vector<RtValue> bad = {RtValue(Tensor::randn({2, 3})),
                                    RtValue(std::int64_t{7})};
  try {
    resilience::check_inputs(*gm, bad, GuardMode::Strict);
    FAIL() << "expected a guard violation";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::GuardViolation);
    EXPECT_EQ(e.node_name(), "b") << e.what();
  }
}

TEST(Guards, ArityAlwaysThrowsEvenInPermissiveMode) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  const std::vector<RtValue> one = {RtValue(Tensor::randn({2, 3}))};
  for (GuardMode m : {GuardMode::Strict, GuardMode::Permissive}) {
    try {
      resilience::check_inputs(*gm, one, m);
      FAIL() << "expected an arity mismatch";
    } catch (const ExecError& e) {
      EXPECT_EQ(e.code(), ErrorCode::ArityMismatch);
    }
  }
}

TEST(Guards, PermissiveRefreshesGuardsAndModuleStillRuns) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  const std::vector<RtValue> wide = {RtValue(Tensor::randn({4, 7})),
                                     RtValue(Tensor::randn({4, 7}))};
  EXPECT_TRUE(resilience::check_inputs(*gm, wide, GuardMode::Permissive));
  ASSERT_EQ(gm->guards().size(), 2u);
  EXPECT_EQ(gm->guards()[0].shape, (Shape{4, 7}));
  // Refreshed guards now accept the new shapes outright...
  EXPECT_FALSE(resilience::check_inputs(*gm, wide, GuardMode::Strict));
  // ...and the (shape-polymorphic) kernels execute them fine.
  const auto out = gm->compiled_graph().run(wide);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(fx::rt_tensor(out[0]).sizes(), (Shape{4, 7}));
}

// --------------------------------------------------------------------------
// Satellite: the guards.coverage verifier rule.
// --------------------------------------------------------------------------

TEST(GuardsCoverageRule, SilentWithoutMetaOrGuards) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  g->output(g->call_function("relu", {x}));
  GraphModule gm(nullptr, std::move(g), "NoMeta");
  gm.recompile();
  EXPECT_FALSE(analysis::verify(gm).has("guards.coverage"));
  // Bare-graph verification (no module) must also stay silent.
  EXPECT_FALSE(analysis::verify(gm.graph()).has("guards.coverage"));
}

TEST(GuardsCoverageRule, FlagsAnnotatedModuleWithNoGuards) {
  auto gm = guarded_module();  // shape meta present, no guards generated
  const analysis::Report rep = analysis::verify(*gm);
  EXPECT_TRUE(rep.has("guards.coverage")) << rep.to_string();
  EXPECT_TRUE(rep.ok()) << "warning, not error: " << rep.to_string();
}

TEST(GuardsCoverageRule, FreshGuardsAreClean) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  EXPECT_FALSE(analysis::verify(*gm).has("guards.coverage"));
}

TEST(GuardsCoverageRule, FlagsStaleGuardsAfterReProp) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  // A transform/re-trace changes the propagated shapes; the old specs are
  // now stale until generate_guards runs again.
  passes::shape_prop(*gm, {Tensor::randn({6, 6}), Tensor::randn({6, 6})});
  const analysis::Report rep = analysis::verify(*gm);
  EXPECT_TRUE(rep.has("guards.coverage")) << rep.to_string();
  resilience::generate_guards(*gm);
  EXPECT_FALSE(analysis::verify(*gm).has("guards.coverage"));
}

TEST(GuardsCoverageRule, FlagsGuardForMissingPlaceholder) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  auto guards = gm->guards();
  guards[1].placeholder = "ghost";
  gm->set_guards(guards);
  EXPECT_TRUE(analysis::verify(*gm).has("guards.coverage"));
}

// --------------------------------------------------------------------------
// Tentpole: differential fault-injection fuzz. For every compute node of a
// seeded random DAG and every fault kind, both engines must agree: either everyone succeeds bit-identically, or everyone fails
// with the same ExecError code at the same node.
// --------------------------------------------------------------------------

TEST(FaultFuzz, AllEnginesFailIdentically) {
  constexpr int kCases = 8;
  const Which engines[] = {Which::Interp, Which::Tape};
  int injected_runs = 0;
  for (int c = 0; c < kCases; ++c) {
    FuzzCase fc = random_dag(0xBAD5EED + static_cast<std::uint64_t>(c));
    for (Node* target : fc.gm->graph().nodes()) {
      if (target->op() == fx::Opcode::Placeholder) continue;
      for (FaultKind kind :
           {FaultKind::Throw, FaultKind::PoisonNaN, FaultKind::AllocLimit}) {
        std::vector<Outcome> outs;
        for (Which w : engines) {
          // Fresh hooks per engine run: unlimited fires, so every engine
          // sees the same fault. NaN poisoning is paired with the anomaly
          // detector in Throw mode — the poison only becomes an error
          // because anomaly mode catches it at the poisoned node.
          FaultInjector inj(target, kind);
          AnomalyDetector det(*fc.gm, AnomalyAction::Throw);
          fx::MultiHooks hooks;
          hooks.add(&inj);
          if (kind == FaultKind::PoisonNaN) hooks.add(&det);
          outs.push_back(run_engine(w, *fc.gm, fc.inputs, &hooks));
        }
        const Outcome& ref = outs[0];
        for (std::size_t i = 1; i < outs.size(); ++i) {
          const Outcome& o = outs[i];
          const std::string ctx =
              std::string("seed ") + std::to_string(c) + " node '" +
              target->name() + "' fault " +
              resilience::fault_kind_name(kind) + " engine " +
              which_name(engines[i]) + "\n  interp: " +
              (ref.ok ? "ok" : ref.what) + "\n  this:   " +
              (o.ok ? "ok" : o.what);
          ASSERT_EQ(o.ok, ref.ok) << ctx;
          if (ref.ok) {
            ASSERT_TRUE(bit_equal(ref.out, o.out)) << ctx;
          } else {
            ASSERT_EQ(o.code, ref.code) << ctx;
            ASSERT_EQ(o.node, ref.node) << ctx;
            // Throw/poison details are pure functions of the fault and the
            // (deterministic) values, so they match verbatim. The alloc
            // ceiling's message embeds live-byte counts, which legitimately
            // differ per engine (register lifetimes differ).
            if (kind != FaultKind::AllocLimit) {
              ASSERT_EQ(o.detail, ref.detail) << ctx;
            }
          }
        }
        if (!ref.ok) {
          ++injected_runs;
          // The reported node is the injection target, with the code the
          // fault kind maps onto.
          EXPECT_EQ(ref.node, target->name());
          switch (kind) {
            case FaultKind::Throw:
              EXPECT_EQ(ref.code, ErrorCode::NodeFailure);
              break;
            case FaultKind::PoisonNaN:
              EXPECT_EQ(ref.code, ErrorCode::NumericAnomaly);
              break;
            case FaultKind::AllocLimit:
              EXPECT_EQ(ref.code, ErrorCode::AllocLimit);
              break;
            default:
              break;
          }
        }
      }
    }
  }
  // The sweep must actually exercise failures, not vacuously pass.
  EXPECT_GT(injected_runs, 100) << "fault injection barely fired";
}

// --------------------------------------------------------------------------
// Tentpole: the run_resilient fallback ladder.
// --------------------------------------------------------------------------

TEST(RunResilient, RecoversFromEngineLocalFaultBitIdentically) {
  FuzzCase fc = random_dag(2024);
  const RtValue clean = fx::Interpreter(*fc.gm).run(fc.inputs);

  // Find a compute node and make it fail exactly once: the tape rung
  // absorbs the fault, the interpreter rung recovers.
  Node* target = nullptr;
  for (Node* n : fc.gm->graph().nodes()) {
    if (n->op() == fx::Opcode::CallFunction) target = n;
  }
  ASSERT_NE(target, nullptr);
  FaultInjector inj(target, FaultKind::Throw, /*max_fires=*/1);

  fx::ResilientOptions opts;
  opts.hooks = &inj;
  fx::ResilientReport report;
  const auto out = fc.gm->run_resilient(fc.inputs, opts, &report);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(bit_equal(clean, out[0]))
      << "recovered result must be bit-identical to the fault-free run";
  EXPECT_EQ(inj.fires(), 1);

  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.attempts[0].engine, Engine::Tape);
  EXPECT_FALSE(report.attempts[0].ok);
  EXPECT_EQ(report.attempts[0].code, ErrorCode::NodeFailure);
  EXPECT_TRUE(contains(report.attempts[0].error, target->name()));
  EXPECT_EQ(report.attempts[1].engine, Engine::Interpreter);
  EXPECT_TRUE(report.attempts[1].ok);
  EXPECT_EQ(report.succeeded, Engine::Interpreter);
}

TEST(RunResilient, ExhaustedLadderRethrowsWithFullReport) {
  ensure_test_ops();
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  g->output(g->call_function("fxres_throw_a", {x}));
  GraphModule gm(nullptr, std::move(g), "AlwaysBoom");
  gm.recompile();

  fx::ResilientReport report;
  try {
    gm.run_resilient({RtValue(Tensor::randn({kSide, kSide}))}, {}, &report);
    FAIL() << "expected the ladder to exhaust";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::NodeFailure);
  }
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.attempts[0].engine, Engine::Tape);
  EXPECT_EQ(report.attempts[1].engine, Engine::Interpreter);
  for (const auto& a : report.attempts) {
    EXPECT_FALSE(a.ok);
    EXPECT_EQ(a.code, ErrorCode::NodeFailure);
  }
  EXPECT_EQ(report.succeeded, Engine::Unknown);
}

TEST(RunResilient, InputErrorsAreNeverRetried) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  fx::ResilientReport report;
  try {
    gm->run_resilient({RtValue(Tensor::randn({9, 9})),
                       RtValue(Tensor::randn({9, 9}))},
                      {}, &report);
    FAIL() << "expected a guard violation";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::GuardViolation);
  }
  EXPECT_TRUE(report.attempts.empty())
      << "a bad input must not burn through the engine ladder";

  // Arity errors likewise fail before any engine runs.
  report = {};
  try {
    gm->run_resilient({RtValue(Tensor::randn({2, 3}))}, {}, &report);
    FAIL() << "expected an arity mismatch";
  } catch (const ExecError& e) {
    EXPECT_EQ(e.code(), ErrorCode::ArityMismatch);
  }
  EXPECT_TRUE(report.attempts.empty());
}

TEST(RunResilient, GuardCheckCanBeDisabled) {
  auto gm = guarded_module();
  resilience::generate_guards(*gm);
  fx::ResilientOptions opts;
  opts.check_guards = false;
  // Off-guard shapes execute fine (kernels are shape-polymorphic).
  const auto out = gm->run_resilient({RtValue(Tensor::randn({9, 9})),
                                      RtValue(Tensor::randn({9, 9}))},
                                     opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(fx::rt_tensor(out[0]).sizes(), (Shape{9, 9}));
}

TEST(RunResilient, AllEnginesDisabledThrows) {
  FuzzCase fc = random_dag(3);
  fx::ResilientOptions opts;
  opts.try_tape = opts.try_interpreter = false;
  try {
    fc.gm->run_resilient(fc.inputs, opts);
    FAIL() << "expected an ExecError";
  } catch (const ExecError& e) {
    EXPECT_TRUE(contains(e.what(), "disabled")) << e.what();
  }
}

TEST(RunResilient, TensorConvenienceOverload) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  g->output(g->call_function("relu", {x}));
  GraphModule gm(nullptr, std::move(g), "One");
  gm.recompile();
  const Tensor in = Tensor::randn({kSide, kSide});
  const Tensor out = gm.run_resilient(in);
  EXPECT_TRUE(bit_equal(out, fx::rt_tensor(fx::Interpreter(gm).run(in))));
}

// --------------------------------------------------------------------------
// MultiHooks fan-out: mutation by an earlier hook is visible to later ones.
// --------------------------------------------------------------------------

TEST(MultiHooks, PoisonThenDetectThroughOneSeam) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* r = g->call_function("relu", {x});
  g->output(r);
  GraphModule gm(nullptr, std::move(g), "Seam");
  gm.recompile();

  FaultInjector inj(r, FaultKind::PoisonInf);
  AnomalyDetector det(gm, AnomalyAction::Record);
  fx::MultiHooks hooks;
  hooks.add(&inj);
  hooks.add(&det);
  hooks.add(nullptr);  // null entries are skipped, not a crash

  const auto out = gm.compiled_graph().run(
      {RtValue(Tensor::randn({kSide, kSide}))}, &hooks);
  ASSERT_EQ(out.size(), 1u);
  // The injector's poisoned clone flowed onward: the detector saw it, and
  // the engine's result carries it too.
  EXPECT_GE(inj.fires(), 1);
  EXPECT_TRUE(det.any());
  ASSERT_NE(det.first_bad(), nullptr);
  EXPECT_EQ(det.first_bad()->name(), r->name());
  EXPECT_EQ(resilience::count_nonfinite(fx::rt_tensor(out[0])), 1);
}

// --------------------------------------------------------------------------
// Anomaly detection in Record mode: provenance from first-bad to origin.
// --------------------------------------------------------------------------

TEST(Anomaly, OriginAndProvenanceReport) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* a = g->call_function("add", {x, Argument(1.0)});
  Node* b = g->call_function("neg", {a});
  Node* c = g->call_function("add", {b, x});
  g->output(c);
  GraphModule gm(nullptr, std::move(g), "Prov");
  gm.recompile();

  FaultInjector inj(a, FaultKind::PoisonNaN);
  AnomalyDetector det(gm, AnomalyAction::Record);
  fx::MultiHooks hooks;
  hooks.add(&inj);
  hooks.add(&det);

  const auto out = gm.compiled_graph().run(
      {RtValue(Tensor::randn({kSide, kSide}))}, &hooks);
  ASSERT_EQ(out.size(), 1u);

  // NaN introduced at `a` propagates through b and c; the detector records
  // the whole blast radius but pins the origin on `a`.
  ASSERT_TRUE(det.any());
  EXPECT_GE(det.findings().size(), 3u);
  ASSERT_NE(det.first_bad(), nullptr);
  EXPECT_EQ(det.first_bad()->name(), a->name());
  ASSERT_NE(det.origin(), nullptr);
  EXPECT_EQ(det.origin()->name(), a->name());

  const std::string rep = det.report();
  EXPECT_TRUE(contains(rep, "origin '" + a->name() + "'")) << rep;
  EXPECT_TRUE(contains(rep, "(introduced here)")) << rep;
  EXPECT_TRUE(contains(rep, "inherited from")) << rep;

  det.reset();
  EXPECT_FALSE(det.any());
  EXPECT_EQ(det.origin(), nullptr);
}

TEST(Anomaly, CountNonFinite) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_EQ(resilience::count_nonfinite(t), 0);
  t.set_flat(0, std::numeric_limits<double>::quiet_NaN());
  t.set_flat(3, std::numeric_limits<double>::infinity());
  EXPECT_EQ(resilience::count_nonfinite(t), 2);
}

// --------------------------------------------------------------------------
// The Storage allocation ceiling is single-shot and self-disarming.
// --------------------------------------------------------------------------

TEST(AllocCeiling, TripsOnceThenDisarms) {
  Storage::set_alloc_limit(1);
  EXPECT_EQ(Storage::alloc_limit(), 1);
  try {
    Tensor t = Tensor::randn({64, 64});
    FAIL() << "expected the ceiling to trip";
  } catch (const AllocLimitError& e) {
    EXPECT_TRUE(contains(e.what(), "allocation")) << e.what();
  }
  // The trip disarmed the ceiling: the very next allocation succeeds.
  EXPECT_EQ(Storage::alloc_limit(), 0);
  EXPECT_NO_THROW(Tensor::randn({64, 64}));
}

TEST(AllocCeiling, MapsToExecErrorThroughTheEngines) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* r = g->call_function("relu", {x});
  g->output(r);
  GraphModule gm(nullptr, std::move(g), "Alloc");
  gm.recompile();
  const std::vector<RtValue> in = {RtValue(Tensor::randn({kSide, kSide}))};

  for (Which w : {Which::Interp, Which::Tape}) {
    FaultInjector inj(r, FaultKind::AllocLimit);
    const Outcome o = run_engine(w, gm, in, &inj);
    ASSERT_FALSE(o.ok) << which_name(w);
    EXPECT_EQ(o.code, ErrorCode::AllocLimit) << which_name(w);
    EXPECT_EQ(o.node, r->name()) << which_name(w);
  }
}

}  // namespace
}  // namespace fxcpp
