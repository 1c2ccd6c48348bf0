// Incremental violation detection: DetectIncremental must produce exactly
// the diff of two full Detect runs -- on hand-built fixtures where the
// expected added/removed records are known, and property-style on random
// graphs, random rule sets, and random deltas (including deletes that
// remove violations), across worker counts and repeated delta
// application.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "testlib.h"
#include "util/rng.h"

namespace gfd {
namespace {

using gfd::testing::BuildHubStar;
using gfd::testing::kLeafFollowsHub;
using gfd::testing::SameTeamRule;

// person x0 -create-> product x1, x1.type='film' -> x0.type='producer'
// over a tiny world with one proper producer and one clean musician.
PropertyGraph BuildWorld() {
  PropertyGraph::Builder b;
  NodeId p0 = b.AddNode("person");
  b.SetName(p0, "Producer0");
  b.SetAttr(p0, "type", "producer");
  NodeId p1 = b.AddNode("person");
  b.SetName(p1, "Musician");
  b.SetAttr(p1, "type", "musician");
  NodeId f0 = b.AddNode("product");
  b.SetAttr(f0, "type", "film");
  NodeId f1 = b.AddNode("product");
  b.SetAttr(f1, "type", "album");
  b.AddEdge(p0, f0, "create");
  b.AddEdge(p1, f1, "create");
  return std::move(b).Build();
}

Gfd FilmRule(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("product"));
  q.AddEdge(x, y, *g.FindLabel("create"));
  q.set_pivot(x);
  AttrId type = *g.FindAttr("type");
  return Gfd(q, {Literal::Const(y, type, *g.FindValue("film"))},
             Literal::Const(x, type, *g.FindValue("producer")));
}

// The oracle: diff of two full runs over old graph and new graph.
std::pair<std::vector<Violation>, std::vector<Violation>> FullDiff(
    const ViolationEngine& engine, const PropertyGraph& before,
    const PropertyGraph& after) {
  auto old_run = engine.Detect(before);
  auto new_run = engine.Detect(after);
  std::vector<Violation> added, removed;
  std::set_difference(new_run.violations.begin(), new_run.violations.end(),
                      old_run.violations.begin(), old_run.violations.end(),
                      std::back_inserter(added));
  std::set_difference(old_run.violations.begin(), old_run.violations.end(),
                      new_run.violations.begin(), new_run.violations.end(),
                      std::back_inserter(removed));
  return {added, removed};
}

// The one-shot diff of `d` on `g`; fails the test when `d` does not apply.
IncrementalDiff Diff(const ViolationEngine& engine, const PropertyGraph& g,
                     const GraphDelta& d, const IncrementalOptions& opts = {}) {
  std::string error;
  auto diff = engine.DetectIncremental(g, d, opts, &error);
  EXPECT_TRUE(diff.has_value()) << error;
  return diff ? std::move(*diff) : IncrementalDiff{};
}

TEST(DetectIncremental, EmptyDeltaProducesEmptyDiff) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  auto diff = Diff(engine, g, {});
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_EQ(diff.stats.affected_nodes, 0u);
  EXPECT_EQ(diff.stats.anchors_scanned, 0u);
}

TEST(DetectIncremental, InsertedEdgeAddsAViolation) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  GraphDelta d;
  d.InsertEdge(1, 2, *g.FindLabel("create"));  // Musician -create-> film
  auto view = *GraphView::Apply(g, d);
  auto diff = Diff(engine, g, d);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_EQ(diff.added[0].pivot, 1u);
  EXPECT_EQ(diff.added[0].match, (Match{1, 2}));
  auto [added, removed] = FullDiff(engine, g, view.Materialize());
  EXPECT_EQ(diff.added, added);
  EXPECT_EQ(diff.removed, removed);
}

TEST(DetectIncremental, DeletedEdgeRemovesAViolation) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  // First make Musician violate, materialize that world, then delete the
  // offending edge incrementally.
  GraphDelta grow;
  grow.InsertEdge(1, 2, *g.FindLabel("create"));
  auto bad = GraphView::Apply(g, grow)->Materialize();

  GraphDelta fix;
  fix.DeleteEdge(1, 2, *bad.FindLabel("create"));
  auto diff = Diff(engine, bad, fix);
  EXPECT_TRUE(diff.added.empty());
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0].pivot, 1u);
  EXPECT_EQ(diff.stats.violations_before, 1u);
  EXPECT_EQ(diff.stats.violations_after, 0u);
}

TEST(DetectIncremental, AttributeUpdateCanAddAndRemove) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  AttrId type = *g.FindAttr("type");
  {
    // Breaking Producer0's type adds a violation at pivot 0.
    GraphDelta d;
    d.SetAttr(0, type, *g.FindValue("musician"));
    auto diff = Diff(engine, g, d);
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.added[0].pivot, 0u);
    EXPECT_TRUE(diff.removed.empty());
  }
  {
    // Turning the album into a film makes Musician violate; fixing the
    // musician's type at the same time keeps the world clean -- the two
    // ops land on different entities of the same delta.
    GraphDelta d;
    d.SetAttr(3, type, *g.FindValue("film"));
    d.SetAttr(1, type, *g.FindValue("producer"));
    auto diff = Diff(engine, g, d);
    EXPECT_TRUE(diff.added.empty());
    EXPECT_TRUE(diff.removed.empty());
  }
}

TEST(DetectIncremental, LocalizesWorkToTheAffectedBall) {
  // A big world where one entity changes: the incremental run must seed
  // far fewer pivots than the full run scans.
  auto g = MakeSynthetic({.nodes = 2000,
                          .edges = 5000,
                          .node_labels = 6,
                          .edge_labels = 5,
                          .attrs = 3,
                          .values = 30,
                          .seed = 4});
  auto rules = GenerateGfdSet(g, {.count = 20, .k = 3, .seed = 11});
  ViolationEngine engine(rules);
  // Update a quiet corner of the graph (the zipf-skewed generator makes
  // low node ids hubs whose radius-2 ball covers half the graph).
  EdgeId quiet = 0;
  size_t best = static_cast<size_t>(-1);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    size_t d2 = g.Degree(g.EdgeSrc(e)) + g.Degree(g.EdgeDst(e));
    if (d2 < best) {
      best = d2;
      quiet = e;
    }
  }
  GraphDelta d;
  d.InsertEdge(g.EdgeSrc(quiet), g.EdgeDst(quiet), g.EdgeLabel(quiet));
  auto view = *GraphView::Apply(g, d);
  auto diff = Diff(engine, g, d);
  auto full = engine.Detect(g);
  EXPECT_LT(diff.stats.matches_seen, full.stats.matches_seen / 4)
      << "incremental run did not localize";
  auto [added, removed] = FullDiff(engine, g, view.Materialize());
  EXPECT_EQ(diff.added, added);
  EXPECT_EQ(diff.removed, removed);
}

// Random delta over g's vocabulary: inserts (some duplicating existing
// edges, some fresh endpoints), deletes of existing edges, attribute sets
// drawn from existing values plus brand-new "patched_i" values.
GraphDelta RandomDelta(const PropertyGraph& g, Rng& rng, size_t ops) {
  GraphDelta d;
  std::vector<bool> gone(g.NumEdges(), false);
  for (size_t i = 0; i < ops; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.4) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      NodeId src = rng.Chance(0.5)
                       ? g.EdgeSrc(e)
                       : static_cast<NodeId>(rng.Below(g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.Below(g.NumNodes()));
      d.InsertEdge(src, dst, g.EdgeLabel(e));
    } else if (roll < 0.7) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      if (gone[e]) continue;  // at most one delete per base edge
      gone[e] = true;
      d.DeleteEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    } else {
      NodeId v = static_cast<NodeId>(rng.Below(g.NumNodes()));
      auto attrs = g.NodeAttrs(v);
      AttrId key = attrs.empty()
                       ? d.InternAttr(g, "patched_key")
                       : attrs[rng.Below(attrs.size())].key;
      ValueId val =
          rng.Chance(0.2)
              ? d.InternValue(g, "patched_" + std::to_string(rng.Below(4)))
              : static_cast<ValueId>(rng.Below(g.values().size()));
      d.SetAttr(v, key, val);
    }
  }
  return d;
}

// The seeded oracle: incremental == diff of two full runs, across random
// graphs, rule sets, deltas, and worker counts; then once more on top of
// the materialized result (repeated delta application).
class IncrementalOracle : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalOracle, MatchesDiffOfTwoFullRuns) {
  const int seed = GetParam();
  Rng rng(seed * 1699 + 29);
  auto g = MakeSynthetic({.nodes = 150 + seed * 7,
                          .edges = 400 + seed * 11,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 15,
                          .value_correlation = 0.9,
                          .seed = static_cast<uint64_t>(seed) + 100});
  auto rules = GenerateGfdSet(
      g, {.count = 12, .k = 3, .redundancy = 0.4,
          .seed = static_cast<uint64_t>(seed) + 7});
  ViolationEngine engine(rules);
  size_t workers = 1 + seed % 3;

  PropertyGraph current = g;
  for (int round = 0; round < 2; ++round) {  // repeated delta application
    GraphDelta d = RandomDelta(current, rng, 10 + rng.Below(20));
    std::string error;
    auto view = GraphView::Apply(current, d, &error);
    ASSERT_TRUE(view.has_value()) << error;
    auto next = view->Materialize();

    auto diff = Diff(engine, current, d, {.workers = workers});
    auto [added, removed] = FullDiff(engine, current, next);
    EXPECT_EQ(diff.added, added) << "seed " << seed << " round " << round;
    EXPECT_EQ(diff.removed, removed)
        << "seed " << seed << " round " << round;
    current = std::move(next);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalOracle, ::testing::Range(0, 25));

// --- Post-update classification (exit-code semantics) ----------------------

TEST(ClassifyDelta, DistinguishesCleanAddedAndPreexisting) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  LabelId create = *g.FindLabel("create");
  // The post-update violation count, from a full Detect.
  auto count_after = [&](const PropertyGraph& before, const GraphDelta& d) {
    return static_cast<uint64_t>(
        engine.Detect(GraphView::Apply(before, d)->Materialize())
            .violations.size());
  };

  // Added: the update introduces a violation.
  GraphDelta add;
  add.InsertEdge(1, 2, create);
  auto diff_add = Diff(engine, g, add);
  EXPECT_EQ(ClassifyDelta(diff_add, count_after(g, add)),
            DeltaVerdict::kAddedViolations);

  // Clean: the update removes the only violation -- nothing is left.
  auto bad1 = GraphView::Apply(g, add)->Materialize();
  GraphDelta fix;
  fix.DeleteEdge(1, 2, *bad1.FindLabel("create"));
  auto diff_fix = Diff(engine, bad1, fix);
  EXPECT_TRUE(diff_fix.added.empty());
  EXPECT_EQ(diff_fix.removed.size(), 1u);
  EXPECT_EQ(ClassifyDelta(diff_fix, count_after(bad1, fix)),
            DeltaVerdict::kClean);

  // Pre-existing only: two violations, the update removes one -- the
  // run is indistinguishable from `fix` by the diff alone (+0 added),
  // but the graph is not clean.
  GraphDelta add2;
  add2.InsertEdge(1, 2, create);
  add2.SetAttr(0, *g.FindAttr("type"), *g.FindValue("musician"));
  auto bad2 = GraphView::Apply(g, add2)->Materialize();
  GraphDelta partial_fix;
  partial_fix.DeleteEdge(1, 2, *bad2.FindLabel("create"));
  auto diff_partial = Diff(engine, bad2, partial_fix);
  EXPECT_TRUE(diff_partial.added.empty());
  EXPECT_EQ(diff_partial.removed.size(), 1u);
  EXPECT_EQ(ClassifyDelta(diff_partial, count_after(bad2, partial_fix)),
            DeltaVerdict::kPreexistingOnly);
}

TEST(DetectOverView, MatchesDetectOverMaterialized) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  GraphDelta d;
  d.InsertEdge(1, 2, *g.FindLabel("create"));
  d.SetAttr(0, *g.FindAttr("type"), *g.FindValue("musician"));
  auto view = *GraphView::Apply(g, d);
  auto over_view = engine.Detect(view);
  auto over_mat = engine.Detect(view.Materialize());
  EXPECT_EQ(over_view.violations, over_mat.violations);
  EXPECT_EQ(over_view.violations.size(), 2u);

  // A global budget stops a run over a view as it stops one over a graph.
  DetectOptions budget;
  budget.max_total_violations = 1;
  EXPECT_EQ(engine.Detect(view, budget).violations.size(), 1u);
}

// --- Move stability of lazily-built anchor plans ---------------------------

// std::once_flag is not movable; the regression this guards: a group
// moved after its anchor plans were built must neither rebuild nor lose
// them (anchor_plans.h).
TEST(LazyAnchorPlans, SurvivesOwnerReallocationAfterBuild) {
  Pattern q;
  VarId x = q.AddNode(1);
  VarId y = q.AddNode(2);
  q.AddEdge(x, y, 3);
  q.set_pivot(x);

  std::vector<LazyAnchorPlans> owners(1);
  const std::vector<CompiledPattern>* plans = &owners[0].Get(q);
  ASSERT_EQ(plans->size(), q.NumNodes());
  ASSERT_TRUE(owners[0].built());

  // Force repeated reallocation (and therefore element moves).
  for (int i = 0; i < 64; ++i) owners.emplace_back();
  EXPECT_TRUE(owners[0].built());           // still marked built...
  EXPECT_EQ(&owners[0].Get(q), plans);      // ...and the same block,
                                            // not a second build
  std::vector<LazyAnchorPlans> stolen = std::move(owners);
  EXPECT_TRUE(stolen[0].built());
  EXPECT_EQ(&stolen[0].Get(q), plans);
}

TEST(DetectIncremental, EngineMovedAfterARunStaysCorrect) {
  auto g = BuildWorld();
  GraphDelta d;
  d.InsertEdge(1, 2, *g.FindLabel("create"));

  std::vector<ViolationEngine> engines;
  engines.push_back(ViolationEngine({FilmRule(g)}));
  auto before = Diff(engines[0], g, d);  // builds anchor plans
  ASSERT_EQ(before.added.size(), 1u);

  // Reallocate the vector several times: every resize moves the engine,
  // its group vector, and the already-built lazy plan state.
  for (int i = 0; i < 8; ++i) {
    engines.push_back(ViolationEngine({FilmRule(g)}));
  }
  auto after = Diff(engines[0], g, d);
  EXPECT_EQ(after.added, before.added);
  EXPECT_EQ(after.removed, before.removed);

  ViolationEngine moved = std::move(engines[0]);
  auto moved_diff = Diff(moved, g, d);
  EXPECT_EQ(moved_diff.added, before.added);
}

// A step anchors every attribute target and one endpoint per edge op:
// the lower-degree one in the pre-batch view, ties to the smaller id.
TEST(BatchFootprint, AnchorsEachEdgeOpAtItsLowerDegreeEndpoint) {
  const PropertyGraph g = BuildHubStar(3);  // Hub 0, fans 1-3, Leaf 4
  const LabelId follows = *g.FindLabel("follows");
  const AttrId team = *g.FindAttr("team");
  GraphDelta d;
  d.InsertEdge(4, 0, follows);  // Leaf (degree 1) -> Hub (degree 3)
  d.InsertEdge(3, 1, follows);  // two fans of degree 1: the tie goes to 1
  d.DeleteEdge(2, 0, follows);  // fan (degree 1) -> Hub
  d.SetAttr(0, team, *g.FindValue("red"));  // the hub itself
  const BatchFootprint fp =
      BatchFootprint::Of(d.ops, *GraphView::Apply(g, GraphDelta{}));
  EXPECT_EQ(fp.anchors, (std::vector<NodeId>{0, 1, 2, 4}));
  EXPECT_EQ(fp.rewired, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(fp.keys, (std::vector<AttrId>{team}));
}

// The one-shot diff anchors an edge op the way a serving step does: an
// edge into a degree-D hub seeds at its degree-1 end, so the run
// enumerates the matches through Leaf, not every pair of the hub's
// followers (D * D of them).
TEST(DetectIncremental, AnchorsAHubEdgeAtItsLowDegreeEnd) {
  constexpr size_t kDegree = 120;
  const PropertyGraph g = BuildHubStar(kDegree);
  ASSERT_EQ(g.Degree(0), kDegree);
  ViolationEngine engine({SameTeamRule(g)});
  std::istringstream in(kLeafFollowsHub);
  std::string error;
  auto d = LoadGraphDeltaTsv(in, g, &error);
  ASSERT_TRUE(d.has_value()) << error;

  auto diff = Diff(engine, g, *d);
  auto [added, removed] =
      FullDiff(engine, g, GraphView::Apply(g, *d)->Materialize());
  EXPECT_EQ(diff.added, added);
  EXPECT_EQ(diff.removed, removed);
  EXPECT_EQ(diff.added.size(), 2 * kDegree);  // Leaf vs. every follower
  EXPECT_LT(diff.stats.matches_seen, 8 * kDegree);
}

// A batch is validated before its footprint reads any degree: an
// unknown node id and a delete of a missing edge are rejected with
// GraphView::Apply's error text.
TEST(DetectIncremental, RejectsABatchThatDoesNotApply) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  const LabelId create = *g.FindLabel("create");
  {
    GraphDelta d;
    d.InsertEdge(0, 99, create);
    std::string error;
    EXPECT_FALSE(engine.DetectIncremental(g, d, {}, &error).has_value());
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
  {
    GraphDelta d;
    d.DeleteEdge(1, 2, create);  // Musician does not create the film
    std::string error;
    EXPECT_FALSE(engine.DetectIncremental(g, d, {}, &error).has_value());
    EXPECT_NE(error.find("delete of missing edge"), std::string::npos)
        << error;
  }
}

}  // namespace
}  // namespace gfd
