// Seeded-mutation test of rule intake. Serialized rules (SerializeGfd of
// GenerateGfdSet's output) are mutated -- an edge dropped, duplicated or
// reversed, a self-loop or a node added, a digit rewritten, the pivot
// moved, some mutants twice -- and parsed against the graph. ParseGfd
// may reject a mutant, but every mutant it accepts must be served
// correctly:
//   - ViolationEngine::Detect equals DetectNaive, the per-rule reference;
//   - DetectIncremental over a random batch equals the difference of the
//     full Detect runs before and after it.
// A rule the matcher cannot enumerate (a disconnected pattern) must be
// rejected at the parse, never reach detection. Deterministic: one seed,
// one thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "gfd/serialize.h"
#include "graph/graph_view.h"
#include "testlib.h"
#include "util/rng.h"

namespace gfd {
namespace {

using gfd::testing::Join;
using gfd::testing::Split;

constexpr size_t kMutants = 3000;
constexpr size_t kBatches = 8;

// The sections of one serialized rule, by key ("nodes", "edges", ...),
// in line order.
struct Sections {
  std::vector<std::pair<std::string, std::string>> fields;

  explicit Sections(const std::string& line) {
    for (const std::string& f : Split(line, ';')) {
      const auto eq = f.find('=');
      fields.emplace_back(f.substr(0, eq),
                          eq == std::string::npos ? "" : f.substr(eq + 1));
    }
  }
  std::string& operator[](const std::string& key) {
    for (auto& [k, v] : fields) {
      if (k == key) return v;
    }
    fields.emplace_back(key, "");
    return fields.back().second;
  }
  std::string Text() const {
    std::vector<std::string> parts;
    for (const auto& [k, v] : fields) parts.push_back(k + "=" + v);
    return Join(parts, ';');
  }
};

// Applies one random mutation to `line` (a serialized rule over `g`).
std::string Mutate(const std::string& line, const PropertyGraph& g, Rng& rng) {
  Sections s(line);
  std::vector<std::string> nodes = Split(s["nodes"], '|');
  std::vector<std::string> edges;
  if (!s["edges"].empty()) edges = Split(s["edges"], ',');
  auto any_var = [&] { return std::to_string(rng.Below(nodes.size())); };
  // An edge label the pattern already uses, else any label of `g`.
  auto any_edge_label = [&]() -> std::string {
    if (!edges.empty()) return Split(edges[rng.Below(edges.size())], ':')[1];
    return g.LabelName(
        static_cast<LabelId>(1 + rng.Below(g.labels().size() - 1)));
  };
  switch (rng.Below(7)) {
    case 0:  // drop an edge
      if (!edges.empty()) edges.erase(edges.begin() + rng.Below(edges.size()));
      break;
    case 1:  // duplicate an edge
      if (!edges.empty()) edges.push_back(edges[rng.Below(edges.size())]);
      break;
    case 2:  // reverse an edge
      if (!edges.empty()) {
        std::string& e = edges[rng.Below(edges.size())];
        std::vector<std::string> parts = Split(e, ':');
        if (parts.size() == 3) std::swap(parts[0], parts[2]);
        e = Join(parts, ':');
      }
      break;
    case 3: {  // a self-loop
      const std::string v = any_var();
      edges.push_back(v + ":" + any_edge_label() + ":" + v);
      break;
    }
    case 4:  // a node, joined to the pattern by an edge or left apart
      nodes.push_back(nodes[rng.Below(nodes.size())]);
      if (rng.Chance(0.5)) {
        edges.push_back(any_var() + ":" + any_edge_label() + ":" +
                        std::to_string(nodes.size() - 1));
      }
      break;
    case 5: {  // rewrite a digit anywhere in the line
      std::string out = line;
      std::vector<size_t> digits;
      for (size_t i = 0; i < out.size(); ++i) {
        if (out[i] >= '0' && out[i] <= '9') digits.push_back(i);
      }
      if (!digits.empty()) {
        out[digits[rng.Below(digits.size())]] =
            static_cast<char>('0' + rng.Below(10));
      }
      return out;
    }
    default:  // move the pivot, now and then past the last node
      s["pivot"] = std::to_string(rng.Below(nodes.size() + 1));
      break;
  }
  s["nodes"] = Join(nodes, '|');
  s["edges"] = Join(edges, ',');
  return s.Text();
}

std::vector<Violation> Sorted(std::vector<Violation> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// `after` minus `before`, both sorted.
std::vector<Violation> Minus(const std::vector<Violation>& after,
                             const std::vector<Violation>& before) {
  std::vector<Violation> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

TEST(RuleMutation, EveryAcceptedMutantDetectsAsTheReference) {
  const PropertyGraph g = MakeSynthetic({.nodes = 40,
                                         .edges = 110,
                                         .node_labels = 3,
                                         .edge_labels = 3,
                                         .attrs = 3,
                                         .values = 5,
                                         .value_correlation = 0.8,
                                         .seed = 37});
  std::vector<std::string> lines;
  for (const Gfd& phi : GenerateGfdSet(g, {.count = 40, .k = 3, .seed = 41})) {
    lines.push_back(SerializeGfd(phi, g));
  }
  // Valid batches, each with the graph it leaves.
  Rng rng(4242);
  std::vector<std::pair<GraphDelta, PropertyGraph>> batches;
  while (batches.size() < kBatches) {
    GraphDelta d = testing::RandomBatch(g, rng, 2 + rng.Below(6));
    if (auto view = GraphView::Apply(g, d)) {
      PropertyGraph after = view->Materialize();
      batches.emplace_back(std::move(d), std::move(after));
    }
  }

  size_t accepted = 0;
  size_t rejected = 0;
  size_t violated = 0;
  for (size_t i = 0; i < kMutants; ++i) {
    std::string mutant = lines[rng.Below(lines.size())];
    for (size_t m = rng.Chance(0.3) ? 2 : 1; m > 0; --m) {
      mutant = Mutate(mutant, g, rng);
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
    std::string error;
    std::optional<Gfd> phi = ParseGfd(mutant, g, &error);
    if (!phi) {
      EXPECT_FALSE(error.empty());
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(phi->pattern.IsConnected());
    const ViolationEngine engine({*phi});
    const std::vector<Violation> before = Sorted(engine.Detect(g).violations);
    ASSERT_EQ(before, Sorted(DetectNaive(g, engine.rules()).violations));
    violated += before.empty() ? 0 : 1;

    const auto& [batch, after_graph] = batches[rng.Below(batches.size())];
    const std::vector<Violation> after =
        Sorted(engine.Detect(after_graph).violations);
    std::optional<IncrementalDiff> diff =
        engine.DetectIncremental(g, batch, {}, &error);
    ASSERT_TRUE(diff.has_value()) << error;
    ASSERT_EQ(diff->added, Minus(after, before));
    ASSERT_EQ(diff->removed, Minus(before, after));
  }
  // The mutations exercise both sides of the parse, and accepted rules
  // that find violations.
  EXPECT_GT(accepted, kMutants / 4);
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_GT(violated, 0u);
  RecordProperty("accepted", static_cast<int>(accepted));
  RecordProperty("rejected", static_cast<int>(rejected));
}

}  // namespace
}  // namespace gfd
