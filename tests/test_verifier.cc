// Verifier rule coverage: one well-formed (positive) and one defective
// (negative) case per rule, multi-diagnostic collection on a graph seeded
// with several simultaneous defects, the lint()/Verifier agreement contract,
// and error paths of the resolution machinery the rules lean on
// (merge_kwargs unknown kwarg, OpRegistry::at missing target).
#include <gtest/gtest.h>

#include "analysis/dataflow.h"
#include "analysis/verifier.h"
#include "core/custom_op.h"
#include "core/functional.h"
#include "core/plan_cache.h"
#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "passes/shape_prop.h"
#include "profile/profiler.h"
#include "tensor/ops.h"

namespace fxcpp {
namespace {

using analysis::Report;
using analysis::Severity;
using analysis::Verifier;
using fx::Argument;
using fx::Graph;
using fx::Node;
using fx::Value;

// A minimal well-formed graph: relu(x) -> output.
std::unique_ptr<Graph> clean_graph() {
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  Node* r = g->call_function("relu", {Argument(x)});
  g->output(Argument(r));
  return g;
}

TEST(Verifier, CleanGraphHasNoDiagnostics) {
  auto g = clean_graph();
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.diagnostics.empty()) << rep.to_string();
}

TEST(Verifier, DefaultRegistryHasAtLeastTenRules) {
  EXPECT_GE(Verifier::default_rules().size(), 10u);
}

// --- structure rules -------------------------------------------------------

TEST(Verifier, PlaceholdersFirst) {
  auto g = clean_graph();
  Node* late = g->placeholder("late");
  g->move_before(late, nullptr);  // after the output node
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("structure.placeholders-first"));
  EXPECT_TRUE(rep.has("structure.output-last"));  // also after output
  EXPECT_FALSE(
      analysis::verify(*clean_graph()).has("structure.placeholders-first"));
}

TEST(Verifier, OutputMustBeLast) {
  auto g = clean_graph();
  Node* extra = g->call_function("relu", {Argument(g->find("x"))});
  (void)extra;  // created after output
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("structure.output-last"));
  EXPECT_FALSE(analysis::verify(*clean_graph()).has("structure.output-last"));
}

TEST(Verifier, MissingOutputIsAWarning) {
  Graph g;
  Node* x = g.placeholder("x");
  g.call_function("relu", {Argument(x)});
  const Report rep = analysis::verify(g);
  EXPECT_TRUE(rep.has("structure.missing-output"));
  EXPECT_TRUE(rep.ok());  // warning, not error
  EXPECT_FALSE(analysis::verify(*clean_graph()).has("structure.missing-output"));
}

TEST(Verifier, UseBeforeDef) {
  auto g = clean_graph();
  Node* r = g->find("relu");
  g->move_before(r, g->find("x"));  // relu now precedes its input
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("structure.use-before-def"));
  EXPECT_FALSE(rep.has("structure.stale-use-def"));
}

TEST(Verifier, UnusedPlaceholder) {
  auto g = clean_graph();
  g->set_insert_point_before(g->find("relu"));
  g->placeholder("ignored");
  // Restore placeholder ordering: insert before first compute node is fine.
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("structure.unused-placeholder"));
  EXPECT_EQ(rep.count(Severity::Error), 0) << rep.to_string();
  EXPECT_FALSE(analysis::verify(*clean_graph())
                   .has("structure.unused-placeholder"));
}

TEST(Verifier, DeadCode) {
  auto g = clean_graph();
  {
    Graph::InsertScope scope(*g, g->output_node());
    g->call_method("neg", {Argument(g->find("x"))});
  }
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("structure.dead-code"));
  EXPECT_TRUE(rep.ok());  // info severity
  EXPECT_FALSE(analysis::verify(*clean_graph()).has("structure.dead-code"));
}

TEST(Verifier, DuplicateNames) {
  auto g = clean_graph();
  // Graph::unique_name makes collisions impossible at creation time; the raw
  // torch.fx-style rename is the one path that can introduce them.
  g->find("relu")->set_name("x");
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("structure.duplicate-name"));
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(analysis::verify(*clean_graph())
                   .has("structure.duplicate-name"));
}

TEST(Verifier, StaleUseDefChains) {
  // Every public mutation primitive (set_args, replace_all_uses_with,
  // erase_node, clone) maintains use-def chains, so this rule defends
  // against future internal bugs; fabricate both corruption directions by
  // reaching past the const accessor.
  auto g = clean_graph();
  Node* x = g->find("x");
  Node* r = g->find("relu");
  // Direction 1: relu lists x as input, but x no longer records the user.
  const_cast<std::set<Node*>&>(x->users()).erase(r);
  Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("structure.stale-use-def"));
  EXPECT_FALSE(rep.ok());

  // Direction 2: x records a user (the output node, which only references
  // relu) that does not actually reference it.
  auto g2 = clean_graph();
  Node* x2 = g2->find("x");
  const_cast<std::set<Node*>&>(x2->users()).insert(g2->output_node());
  rep = analysis::verify(*g2);
  EXPECT_TRUE(rep.has("structure.stale-use-def"));

  EXPECT_FALSE(analysis::verify(*clean_graph())
                   .has("structure.stale-use-def"));
}

// --- resolution rules ------------------------------------------------------

TEST(Verifier, UnresolvableFunctionTarget) {
  auto g = clean_graph();
  g->find("relu")->set_target("not_a_real_op");
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("resolve.function-target"));
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(analysis::verify(*clean_graph()).has("resolve.function-target"));
}

TEST(Verifier, UnresolvableMethodTarget) {
  Graph g;
  Node* x = g.placeholder("x");
  Node* m = g.call_method("frobnicate", {Argument(x)});
  g.output(Argument(m));
  const Report rep = analysis::verify(g);
  EXPECT_TRUE(rep.has("resolve.method-target"));

  Graph ok;
  Node* y = ok.placeholder("x");
  ok.output(Argument(ok.call_method("neg", {Argument(y)})));
  EXPECT_FALSE(analysis::verify(ok).has("resolve.method-target"));
}

TEST(Verifier, UnknownKwargName) {
  Graph g;
  Node* x = g.placeholder("x");
  Node* r = g.call_function("relu", {Argument(x)},
                            {{"alpha", Argument(0.5)}});
  g.output(Argument(r));
  const Report rep = analysis::verify(g);
  ASSERT_TRUE(rep.has("resolve.kwargs"));
  EXPECT_FALSE(rep.ok());

  Graph ok;
  Node* y = ok.placeholder("x");
  Node* f = ok.call_function("flatten", {Argument(y)},
                             {{"start_dim", Argument(1)}});
  ok.output(Argument(f));
  EXPECT_FALSE(analysis::verify(ok).has("resolve.kwargs"));
}

TEST(Verifier, TooManyPositionalArgsIsAWarning) {
  Graph g;
  Node* x = g.placeholder("x");
  Node* r = g.call_function(
      "relu", {Argument(x), Argument(1), Argument(2)});  // relu takes 1
  g.output(Argument(r));
  const Report rep = analysis::verify(g);
  EXPECT_TRUE(rep.has("resolve.kwargs"));
  EXPECT_EQ(rep.count(Severity::Error), 0) << rep.to_string();
}

TEST(Verifier, ModuleAndAttrPathsResolveAgainstHierarchy) {
  auto model = nn::models::mlp({4, 8, 2});
  auto gm = fx::symbolic_trace(model);
  EXPECT_FALSE(analysis::verify(*gm).has("resolve.module-path"));

  // Retarget a call_module at a path that does not exist.
  for (Node* n : gm->graph().nodes()) {
    if (n->op() == fx::Opcode::CallModule) {
      n->set_target("body.99");
      break;
    }
  }
  const Report rep = analysis::verify(*gm);
  EXPECT_TRUE(rep.has("resolve.module-path"));
  EXPECT_FALSE(rep.ok());
}

TEST(Verifier, GetAttrPathMustResolve) {
  auto model = nn::models::mlp({4, 8, 2});
  auto gm = fx::symbolic_trace(model);
  fx::Graph& g = gm->graph();
  {
    Graph::InsertScope scope(g, g.output_node());
    Node* a = g.get_attr("no.such.param");
    // Keep it alive so dead-code isn't the only finding.
    Node* out_src = g.output_node()->args().at(0).node();
    Node* add = g.call_function("add", {Argument(out_src), Argument(a)});
    g.output_node()->set_args({Argument(add)});
  }
  const Report rep = analysis::verify(*gm);
  EXPECT_TRUE(rep.has("resolve.attr-path"));

  auto clean = fx::symbolic_trace(nn::models::mlp({4, 8, 2}));
  EXPECT_FALSE(analysis::verify(*clean).has("resolve.attr-path"));
}

// --- metadata rules --------------------------------------------------------

TEST(Verifier, PartialShapeDtypeMetaPair) {
  auto g = clean_graph();
  g->find("relu")->set_meta("shape", Shape{2, 2});  // no dtype
  const Report rep = analysis::verify(*g);
  EXPECT_TRUE(rep.has("meta.pair"));
  EXPECT_TRUE(rep.ok());  // warning severity

  auto ok = clean_graph();
  ok->find("relu")->set_meta("shape", Shape{2, 2});
  ok->find("relu")->set_meta("dtype", DType::Float32);
  EXPECT_FALSE(analysis::verify(*ok).has("meta.pair"));
}

TEST(Verifier, StaleShapeMetaCaughtByDataflowRecheck) {
  auto gm = fx::symbolic_trace(nn::models::mlp({4, 8, 2}));
  passes::shape_prop(*gm, {Tensor::randn({3, 4})});
  EXPECT_FALSE(analysis::verify(*gm).has("meta.stale"));

  // Forge a stale annotation, as a buggy transform would leave behind.
  for (Node* n : gm->graph().nodes()) {
    if (n->op() == fx::Opcode::CallModule) {
      n->set_meta("shape", Shape{7, 7, 7});
      break;
    }
  }
  const Report rep = analysis::verify(*gm);
  EXPECT_TRUE(rep.has("meta.stale"));
  bool found_warning = false;
  for (const auto& d : rep.diagnostics) {
    if (d.rule == "meta.stale" && d.severity == Severity::Warning) {
      found_warning = true;
    }
  }
  EXPECT_TRUE(found_warning) << rep.to_string();
}

TEST(Verifier, GradualTypeConflictFromAnnotatedPlaceholders) {
  auto gm = fx::symbolic_trace(nn::models::mlp({4, 8, 2}));
  // Annotate the input with a shape whose feature dim contradicts Linear's
  // in_features. The type-check rule must flag the known-vs-known conflict.
  gm->graph().placeholders().at(0)->set_meta("shape", Shape{3, 5});
  gm->graph().placeholders().at(0)->set_meta("dtype", DType::Float32);
  const Report rep = analysis::verify(*gm);
  EXPECT_TRUE(rep.has("meta.type-conflict")) << rep.to_string();

  auto ok = fx::symbolic_trace(nn::models::mlp({4, 8, 2}));
  ok->graph().placeholders().at(0)->set_meta("shape", Shape{3, 4});
  ok->graph().placeholders().at(0)->set_meta("dtype", DType::Float32);
  EXPECT_FALSE(analysis::verify(*ok).has("meta.type-conflict"));
}

// --- multi-diagnostic collection ------------------------------------------

TEST(Verifier, CollectsAllDefectsInOnePass) {
  // >= 3 simultaneous defects; the report must contain all of them instead
  // of stopping at the first like the throwing lint() does.
  Graph g;
  Node* x = g.placeholder("x");
  g.placeholder("unused_input");                                   // W
  Node* bogus = g.call_function("not_an_op", {Argument(x)});       // E
  g.call_function("relu", {Argument(x)}, {{"bad", Argument(1)}});  // E (+dead)
  g.call_method("neg", {Argument(x)});                             // dead: I
  g.output(Argument(bogus));

  const Report rep = analysis::verify(g);
  EXPECT_TRUE(rep.has("resolve.function-target"));
  EXPECT_TRUE(rep.has("resolve.kwargs"));
  EXPECT_TRUE(rep.has("structure.unused-placeholder"));
  EXPECT_TRUE(rep.has("structure.dead-code"));
  EXPECT_GE(rep.fired_rules().size(), 4u) << rep.to_string();
  EXPECT_GE(rep.count(Severity::Error), 2);
  EXPECT_FALSE(rep.ok());

  // The machine-readable form carries the same findings.
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"resolve.function-target\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": "), std::string::npos);
}

TEST(Verifier, CustomRulesExtendTheRegistry) {
  Verifier v(false);
  EXPECT_TRUE(v.rules().empty());
  v.add_rule({"custom.no-neg", Severity::Warning, "bans neg",
              [](const analysis::RuleContext& ctx,
                 std::vector<analysis::Diagnostic>& out) {
                for (const Node* n : ctx.graph.nodes()) {
                  if (n->target() == "neg") {
                    analysis::emit(out, "custom.no-neg", Severity::Warning, n,
                                   n->name(), "neg is banned here");
                  }
                }
              }});
  Graph g;
  Node* x = g.placeholder("x");
  g.output(Argument(g.call_method("neg", {Argument(x)})));
  EXPECT_TRUE(v.verify(g).has("custom.no-neg"));

  Verifier defaults;
  defaults.disable("structure.dead-code");
  Graph g2;
  Node* y = g2.placeholder("x");
  g2.call_method("neg", {Argument(y)});
  g2.output(Argument(y));
  EXPECT_FALSE(defaults.verify(g2).has("structure.dead-code"));
}

// --- compiled modules ------------------------------------------------------

TEST(Verifier, CompiledModuleVerifiesClean) {
  auto gm = fx::symbolic_trace(nn::models::mlp({4, 8, 2}));
  gm->recompile();
  const Report rep = analysis::verify(*gm);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Verifier, UncompiledModuleVerifiesWithoutTape) {
  // A GraphModule constructed directly (no recompile yet) has no tape; the
  // tape and plan rules must skip, not throw.
  fx::GraphModule gm(nullptr, clean_graph(), "Raw");
  ASSERT_FALSE(gm.compiled());
  const Report rep = analysis::verify(gm);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// --- lint() agreement ------------------------------------------------------

TEST(Verifier, LintThrowsListingAllStructuralErrors) {
  Graph g;
  Node* x = g.placeholder("x");
  Node* a = g.call_function("relu", {Argument(x)});
  Node* b = g.call_function("neg", {Argument(a)});
  g.output(Argument(b));
  // Two independent structural defects: b precedes its input, and a
  // placeholder sits at the end of the list.
  g.move_before(b, a);
  Node* late = g.placeholder("late");
  g.move_before(late, nullptr);
  try {
    g.lint();
    FAIL() << "lint() should have thrown";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("use-before-def"), std::string::npos) << msg;
    EXPECT_NE(msg.find("placeholders-first"), std::string::npos) << msg;
  }
  // Verifier agrees on exactly the same structural facts.
  const Report rep = analysis::verify(g);
  EXPECT_TRUE(rep.has("structure.use-before-def"));
  EXPECT_TRUE(rep.has("structure.placeholders-first"));
}

TEST(Verifier, LintAndVerifierAgreeOnCleanGraphs) {
  auto gm = fx::symbolic_trace(nn::models::mlp({4, 8, 2}));
  EXPECT_NO_THROW(gm->graph().lint());
  EXPECT_TRUE(analysis::verify(*gm).ok());
}

// --- error paths of the underlying resolution machinery --------------------

TEST(OpRegistry, AtThrowsNamingTheMissingTarget) {
  fx::fn::ensure_registered();
  try {
    fx::OpRegistry::functions().at("no_such_operator");
    FAIL() << "at() should have thrown";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_operator"),
              std::string::npos);
  }
  EXPECT_EQ(fx::OpRegistry::functions().find("no_such_operator"), nullptr);
  EXPECT_NO_THROW(fx::OpRegistry::functions().at("relu"));
}

TEST(OpRegistry, MergeKwargsRejectsUnknownName) {
  fx::fn::ensure_registered();
  const fx::OpInfo& relu = fx::OpRegistry::functions().at("relu");
  try {
    fx::merge_kwargs(relu, {}, {{"alpha", fx::RtValue(1.0)}});
    FAIL() << "merge_kwargs should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("alpha"), std::string::npos);
    EXPECT_NE(msg.find("relu"), std::string::npos);
  }
  // Known kwargs merge into their positional slots.
  const fx::OpInfo& flat = fx::OpRegistry::functions().at("flatten");
  auto merged = fx::merge_kwargs(flat, {fx::RtValue(std::int64_t{0})},
                                 {{"start_dim", fx::RtValue(std::int64_t{1})}});
  ASSERT_EQ(merged.size(), flat.param_names.size());
  EXPECT_EQ(std::get<std::int64_t>(merged[1]), 1);
}

// --------------------------------------------------------------------------
// JSON emitters: every string field goes through the one shared escaper, so
// graph text carrying control bytes (parse_graph accepts any target) can
// never produce invalid JSON.
// --------------------------------------------------------------------------

bool has_raw_control_byte(const std::string& json) {
  for (const char c : json) {
    // Newlines between fields are layout, not string content.
    if (c != '\n' && static_cast<unsigned char>(c) < 0x20) return true;
  }
  return false;
}

TEST(JsonEmitters, EscapeEveryControlByte) {
  const std::string nasty = "a\rb\x01";

  Report report;
  analysis::Diagnostic d;
  d.rule = nasty;
  d.node_name = nasty;
  d.message = nasty;
  d.note = nasty;
  report.diagnostics.push_back(d);
  const std::string report_json = report.to_json();
  EXPECT_FALSE(has_raw_control_byte(report_json)) << report_json;
  EXPECT_NE(report_json.find("a\\rb\\u0001"), std::string::npos)
      << report_json;

  analysis::GraphFacts facts;
  analysis::NodeFacts nf;
  nf.name = nf.opcode = nf.target = nf.sym_shape = nasty;
  nf.alias_bases = {nasty};
  facts.nodes.push_back(nf);
  EXPECT_FALSE(has_raw_control_byte(facts.to_json())) << facts.to_json();

  fx::PlanCacheStats stats;
  fx::PlanCacheEntryStats es;
  es.signature = nasty;
  stats.per_entry.push_back(es);
  EXPECT_FALSE(has_raw_control_byte(stats.to_json())) << stats.to_json();

  fx::register_custom_op(nasty, {"x"}, [](const std::vector<Tensor>& in) {
    return ops::neg(in.at(0));
  });
  auto g = std::make_unique<Graph>();
  Node* x = g->placeholder("x");
  g->output(g->call_function(nasty, {x}));
  fx::GraphModule gm(nullptr, std::move(g));
  gm.recompile();
  profile::Profiler prof(gm);
  prof.run_tape({fx::RtValue(Tensor::randn({2, 2}))});
  EXPECT_FALSE(has_raw_control_byte(prof.summary_json()));
  EXPECT_FALSE(has_raw_control_byte(prof.chrome_trace_json()));
}

}  // namespace
}  // namespace fxcpp
