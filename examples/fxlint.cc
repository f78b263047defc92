// fxlint — standalone rule-based linter and analyzer for serialized fx
// graphs.
//
//   fxlint graph.fxir             lint a serialize_graph() text file
//   fxlint --json graph.fxir      emit machine-readable diagnostics
//   fxlint --rule <id> graph.fxir only run/report rules matching <id>
//                                 (exact id or prefix group like "resolve";
//                                 repeatable)
//   fxlint --strict graph.fxir    exit nonzero on warnings/infos too
//   fxlint --analyze graph.fxir   dump per-node dataflow facts (constness,
//                                 alias set, live range, symbolic shape,
//                                 shape-polymorphic placeholders) instead of
//                                 linting; honors --json
//   fxlint --demo                 built-in graph seeded with defects
//
// Loads the graph via graph_io, wraps it in a root-less GraphModule, and
// runs the full analysis::Verifier rule registry (or the dataflow analyses
// under --analyze). Exit code 0 = clean, 1 = error-severity diagnostics
// (any diagnostics under --strict), 2 = could not load the input.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/verifier.h"
#include "core/graph_io.h"

using namespace fxcpp;

namespace {

// A graph with several simultaneous defects: an unresolvable call_function
// target, a bogus kwarg, an unused placeholder, and dead compute nodes. The
// verifier reports all of them in one pass — the first-throw lint() would
// stop at none of these (they are not structural), and a thrown error would
// name only one.
std::unique_ptr<fx::Graph> demo_graph() {
  auto g = std::make_unique<fx::Graph>();
  fx::Node* x = g->placeholder("x");
  g->placeholder("unused_input");
  fx::Node* bogus = g->call_function("definitely_not_an_op", {fx::Argument(x)});
  g->call_function("relu", {fx::Argument(x)},
                   {{"alpha", fx::Argument(0.5)}});  // relu has no 'alpha'
  g->call_method("neg", {fx::Argument(x)});          // dead
  g->output(fx::Argument(bogus));
  return g;
}

// --rule filter: exact rule id, or a dotted-prefix group ("resolve" matches
// "resolve.kwargs"; "plan.aliasing" matches only itself).
bool rule_matches(const std::string& rule, const std::vector<std::string>& ids) {
  if (ids.empty()) return true;
  return std::any_of(ids.begin(), ids.end(), [&](const std::string& id) {
    return rule == id ||
           (rule.size() > id.size() && rule.compare(0, id.size(), id) == 0 &&
            rule[id.size()] == '.');
  });
}

void usage() {
  std::fprintf(stderr,
               "usage: fxlint [--json] [--strict] [--rule <id>]... "
               "[--analyze] (--demo | graph.fxir)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool demo = false;
  bool strict = false;
  bool analyze = false;
  std::vector<std::string> rule_ids;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    else if (std::strcmp(argv[i], "--demo") == 0) demo = true;
    else if (std::strcmp(argv[i], "--strict") == 0) strict = true;
    else if (std::strcmp(argv[i], "--analyze") == 0) analyze = true;
    else if (std::strcmp(argv[i], "--rule") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fxlint: --rule needs a rule id\n");
        usage();
        return 2;
      }
      rule_ids.emplace_back(argv[++i]);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "fxlint: unknown flag '%s'\n", argv[i]);
      usage();
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (!demo && !path) {
    usage();
    return 2;
  }

  std::unique_ptr<fx::Graph> graph;
  if (demo) {
    graph = demo_graph();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "fxlint: cannot open '%s'\n", path);
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      graph = fx::parse_graph(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fxlint: parse failed: %s\n", e.what());
      return 2;
    }
  }

  // A serialized graph carries no module hierarchy; resolve.module-path /
  // resolve.attr-path diagnostics then mean "this graph needs a root to run".
  fx::GraphModule gm(nullptr, std::move(graph), "fxlint");

  if (analyze) {
    const analysis::GraphFacts facts = analysis::analyze_graph(gm.graph(), &gm);
    std::printf("%s\n", (json ? facts.to_json() : facts.to_string()).c_str());
    if (!json) {
      // The plan cache specializes per concrete signature of these inputs —
      // many polymorphic placeholders mean many cache entries.
      std::string poly;
      for (const auto& f : facts.nodes) {
        if (f.shape_poly) poly += (poly.empty() ? "" : ", ") + f.name;
      }
      std::printf("shape-polymorphic placeholders: %s\n",
                  poly.empty() ? "(none)" : poly.c_str());
    }
    return 0;
  }

  analysis::Report report = analysis::verify(gm);
  if (!rule_ids.empty()) {
    auto& ds = report.diagnostics;
    ds.erase(std::remove_if(ds.begin(), ds.end(),
                            [&](const analysis::Diagnostic& d) {
                              return !rule_matches(d.rule, rule_ids);
                            }),
             ds.end());
  }

  if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s\n", report.to_string().c_str());
  }
  if (strict) return report.diagnostics.empty() ? 0 : 1;
  return report.ok() ? 0 : 1;
}
