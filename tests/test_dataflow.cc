// Dataflow framework tests: constness lattice, alias-summary/planner
// agreement, liveness vs the core last_use_index, reachability/dead-code,
// and the stable --analyze JSON dump.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/verifier.h"
#include "core/codegen.h"
#include "core/functional.h"
#include "core/tracer.h"
#include "passes/memory_planner.h"
#include "passes/shape_prop.h"
#include "runtime/rng.h"

namespace fxcpp {
namespace {

using fx::Argument;
using fx::Graph;
using fx::GraphModule;
using fx::Node;
using fx::Value;

constexpr std::int64_t kSide = 4;

Tensor random_tensor(rt::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(kSide * kSide));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, {kSide, kSide});
}

// Seeded random DAG (the PR 2 differential-fuzz corpus shape).
struct FuzzCase {
  std::shared_ptr<GraphModule> gm;
  std::vector<Tensor> inputs;
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
  for (int i = 0; i < n_inputs; ++i) fc.inputs.push_back(random_tensor(rng));
  return fc;
}

// --------------------------------------------------------------------------
// Constness
// --------------------------------------------------------------------------

class ParamExprModel : public nn::Module {
 public:
  ParamExprModel() : nn::Module("ParamExprModel") {
    register_parameter("w1", Tensor::randn({4}));
    register_parameter("w2", Tensor::randn({4}));
  }
  Value forward(const std::vector<Value>& in) override {
    return in.at(0) + fx::fn::relu(param_value("w1") + param_value("w2"));
  }
};

TEST(Constness, ParamConesAreConstPlaceholdersTaint) {
  auto gm = fx::symbolic_trace(
      std::static_pointer_cast<nn::Module>(std::make_shared<ParamExprModel>()));
  const auto is_const = analysis::constant_nodes(gm->graph(), gm.get());

  int const_attrs = 0, const_calls = 0;
  for (const Node* n : gm->graph().nodes()) {
    const bool c = is_const.at(n);
    switch (n->op()) {
      case fx::Opcode::Placeholder:
      case fx::Opcode::Output:
        EXPECT_FALSE(c) << n->name();
        break;
      case fx::Opcode::GetAttr:
        EXPECT_TRUE(c) << n->name();
        ++const_attrs;
        break;
      default:
        // w1 + w2 and relu(...) are const; x + ... is tainted by x.
        if (c) ++const_calls;
        break;
    }
  }
  EXPECT_EQ(const_attrs, 2);
  EXPECT_EQ(const_calls, 2);  // the inner add and the relu
}

TEST(Constness, ImpureAndUnregisteredOpsAreNonConst) {
  auto g = std::make_unique<Graph>();
  Node* w = g->get_attr("w");
  // dropout is a registered op annotated impure (RNG); a made-up target has
  // no OpInfo at all. Neither may be treated as foldable.
  Node* drop = g->call_function(
      "dropout", {Argument(w), Argument(0.5), Argument(true)});
  Node* mystery = g->call_function("definitely_not_an_op", {Argument(w)});
  g->output(g->call_function("add", {drop, mystery}));

  const auto is_const = analysis::constant_nodes(*g, nullptr);
  EXPECT_TRUE(is_const.at(w));
  EXPECT_FALSE(is_const.at(drop));
  EXPECT_FALSE(is_const.at(mystery));
}

TEST(Constness, UnresolvableAttrIsNonConstUnderModule) {
  auto g = std::make_unique<Graph>();
  Node* w = g->get_attr("no_such_param");
  g->placeholder("x");
  g->output(w);
  GraphModule gm(nullptr, std::move(g), "Bad");
  // With a module in hand the target must actually resolve to be bakeable.
  const auto is_const = analysis::constant_nodes(gm.graph(), &gm);
  for (const auto& [n, c] : is_const) EXPECT_FALSE(c) << n->name();
}

TEST(Constness, FixpointConvergesInTwoRoundsOnDag) {
  FuzzCase fc = random_dag(7);
  analysis::ConstnessAnalysis a(fc.gm.get());
  a.run(fc.gm->graph());
  EXPECT_TRUE(a.converged());
  EXPECT_EQ(a.iterations(), 2);  // one changing round + one confirming round
}

// --------------------------------------------------------------------------
// Alias summary — must agree with the planner it was extracted from
// --------------------------------------------------------------------------

TEST(AliasSummary, MatchesPlannerIntervals) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    FuzzCase fc = random_dag(seed);
    passes::shape_prop(*fc.gm, fc.inputs);
    const auto plan = passes::plan_tape(*fc.gm);
    const analysis::AliasSummary s =
        analysis::alias_summary(fc.gm->graph(), fc.gm.get());

    ASSERT_EQ(plan->intervals.size(), s.order.size()) << "seed " << seed;
    for (std::size_t i = 0; i < s.order.size(); ++i) {
      const auto& iv = plan->intervals[i];
      EXPECT_EQ(iv.def, static_cast<int>(i));
      EXPECT_EQ(iv.last_use, s.last_use[i]) << "seed " << seed << " #" << i;
      // Planner candidacy is exactly "fresh and not escaped" (plus meta).
      if (iv.planned && !iv.in_place) {
        EXPECT_TRUE(s.fresh[i]) << "seed " << seed << " #" << i;
        EXPECT_FALSE(s.escaped[i]) << "seed " << seed << " #" << i;
      }
      if (s.escaped[i]) {
        EXPECT_FALSE(iv.planned);
      }
    }
  }
}

TEST(AliasSummary, OutputReadersEscape) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* m = g->call_function("matmul", {x, x});
  Node* r = g->call_function("relu", {m});
  g->output(r);
  GraphModule gm(nullptr, std::move(g), "Esc");
  gm.recompile();

  const analysis::AliasSummary s = analysis::alias_summary(gm.graph(), &gm);
  ASSERT_EQ(s.order.size(), 3u);  // matmul, relu, output
  EXPECT_TRUE(s.fresh[0]);
  EXPECT_FALSE(s.escaped[0]);
  EXPECT_TRUE(s.escaped[1]);  // relu feeds Output
  EXPECT_TRUE(s.direct_fresh(0));
  EXPECT_EQ(s.last_use[0], 1);
}

// --------------------------------------------------------------------------
// Liveness / reachability
// --------------------------------------------------------------------------

TEST(Liveness, MatchesCoreLastUseIndex) {
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    FuzzCase fc = random_dag(seed);
    const Graph& g = fc.gm->graph();
    analysis::LivenessAnalysis live(g);
    const auto facts = live.run(g);
    const auto core = fx::last_use_index(g.nodes());
    for (const Node* n : g.nodes()) {
      if (n->op() == fx::Opcode::Output) continue;
      const auto it = core.find(n);
      const int expect = it == core.end() ? -1 : it->second;
      EXPECT_EQ(facts.at(n).last_use, expect)
          << "seed " << seed << " node " << n->name();
    }
    EXPECT_TRUE(live.converged());
  }
}

TEST(Reachability, DeadNodesMatchEliminateDeadCode) {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* live1 = g->call_function("relu", {x});
  Node* dead1 = g->call_function("neg", {x});          // unused
  g->call_function("tanh", {dead1});                   // dead chain
  g->output(live1);

  const auto dead = analysis::dead_nodes(*g);
  EXPECT_EQ(dead.size(), 2u);
  const int erased = g->eliminate_dead_code();
  EXPECT_EQ(erased, 2);
  EXPECT_TRUE(analysis::dead_nodes(*g).empty());
}

// --------------------------------------------------------------------------
// analyze_graph — the fxlint --analyze payload
// --------------------------------------------------------------------------

TEST(AnalyzeGraph, JsonIsStableAndComplete) {
  auto make = [] {
    auto g = std::make_unique<Graph>();
    Node* x = g->placeholder("x");
    g->placeholder("unused");
    Node* m = g->call_function("matmul", {x, x});
    g->call_method("neg", {Argument(x)});  // dead
    g->output(m);
    auto gm = std::make_unique<GraphModule>(nullptr, std::move(g), "J");
    return gm;
  };
  // Deterministic: two independent builds dump byte-identical JSON — this is
  // exactly what `fxlint --analyze --json` prints, so downstream tooling can
  // diff it.
  const std::string a = analysis::analyze_graph(make()->graph()).to_json();
  const std::string b = analysis::analyze_graph(make()->graph()).to_json();
  EXPECT_EQ(a, b);

  EXPECT_NE(a.find("\"name\": \"x\""), std::string::npos);
  EXPECT_NE(a.find("\"opcode\": \"placeholder\""), std::string::npos);
  EXPECT_NE(a.find("\"dead\": true"), std::string::npos);     // the neg
  EXPECT_NE(a.find("\"escapes\": true"), std::string::npos);  // the matmul
  EXPECT_NE(a.find("\"external\": true"), std::string::npos);
  EXPECT_NE(a.find("\"iterations\""), std::string::npos);

  const std::string text = analysis::analyze_graph(make()->graph()).to_string();
  EXPECT_NE(text.find("matmul"), std::string::npos);
}

}  // namespace
}  // namespace fxcpp
