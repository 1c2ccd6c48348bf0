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
using gfd::testing::TangledBatch;

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
  EXPECT_EQ(diff.stats.write_units + diff.stats.edge_units, 0u);
  EXPECT_EQ(diff.stats.roots_scanned, 0u);
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

}  // namespace

// The scan PlanStep ran before the engine indexed its units -- every
// group, every variable and pattern edge, every write and changed key --
// kept as the reference the index must reproduce, and a dump of every
// field of a plan to compare them by.
struct ViolationEngineInternals {
  static StepPlan ScanPlan(const ViolationEngine& engine,
                           const GraphView& pre, const BatchFootprint& batch) {
    StepPlan plan;
    auto add_unit = [&](size_t gi, size_t index, bool edge, size_t begin) {
      const size_t end = edge ? plan.pairs_.size() : plan.nodes_.size();
      if (end > begin) {
        plan.units_.push_back({static_cast<uint32_t>(gi),
                               static_cast<uint32_t>(index), edge,
                               static_cast<uint32_t>(begin),
                               static_cast<uint32_t>(end)});
      }
    };
    for (size_t gi = 0; gi < engine.groups_.size(); ++gi) {
      const auto& group = engine.groups_[gi];
      const Pattern& rep = group.pattern();
      auto reads_at = [&](VarId u, AttrId key) {
        for (const auto& r : group.reads) {
          if (r.var == u && r.key == key) return true;
        }
        return false;
      };
      for (VarId u = 0; u < rep.NumNodes(); ++u) {
        const size_t begin = plan.nodes_.size();
        for (const BatchFootprint::Write& w : batch.writes) {
          if (plan.nodes_.size() > begin && plan.nodes_.back() == w.node) {
            continue;
          }
          if (LabelMatches(pre.NodeLabel(w.node), rep.NodeLabel(u)) &&
              reads_at(u, w.key)) {
            plan.nodes_.push_back(w.node);
          }
        }
        add_unit(gi, u, false, begin);
      }
      for (size_t j = 0; j < rep.NumEdges(); ++j) {
        const PatternEdge& e = rep.edges()[j];
        const size_t begin = plan.pairs_.size();
        for (const BatchFootprint::EdgeKey& k : batch.edges) {
          if ((k.src == k.dst) != (e.src == e.dst) ||
              !LabelMatches(k.label, e.label) ||
              !LabelMatches(pre.NodeLabel(k.src), rep.NodeLabel(e.src)) ||
              !LabelMatches(pre.NodeLabel(k.dst), rep.NodeLabel(e.dst))) {
            continue;
          }
          StepPlan::PairRoot root{k.src, k.dst};
          if (group.edge_plan[j].root_is_dst) {
            std::swap(root.first, root.second);
          }
          if (plan.pairs_.size() > begin &&
              plan.pairs_.back().first == root.first &&
              plan.pairs_.back().second == root.second) {
            continue;
          }
          plan.pairs_.push_back(root);
        }
        add_unit(gi, j, true, begin);
      }
    }
    return plan;
  }

  // One line per unit with its roots.
  static std::string Dump(const StepPlan& plan) {
    std::ostringstream out;
    for (const StepPlan::Unit& u : plan.units_) {
      out << (u.edge ? "edge unit " : "write unit ") << u.group << '.'
          << u.index << ':';
      for (uint32_t r = u.begin; r < u.end; ++r) {
        if (u.edge) {
          const StepPlan::PairRoot& root = plan.pairs_[r];
          out << ' ' << root.first << '-' << root.second;
        } else {
          out << ' ' << plan.nodes_[r];
        }
      }
      out << '\n';
    }
    return out.str();
  }
};

namespace {

// `rules` with about a third of their node and edge labels turned into
// the wildcard, which the unit index files apart.
std::vector<Gfd> Wildcarded(const std::vector<Gfd>& rules, uint64_t seed) {
  Rng rng(seed);
  std::vector<Gfd> out;
  for (const Gfd& rule : rules) {
    Pattern q;
    for (VarId u = 0; u < rule.pattern.NumNodes(); ++u) {
      q.AddNode(rng.Chance(0.35) ? kWildcardLabel : rule.pattern.NodeLabel(u));
    }
    for (const PatternEdge& e : rule.pattern.edges()) {
      q.AddEdge(e.src, e.dst, rng.Chance(0.35) ? kWildcardLabel : e.label);
    }
    q.set_pivot(rule.pattern.pivot());
    out.emplace_back(q, rule.lhs, rule.rhs);
  }
  return out;
}

// The engine's indexed PlanStep of `d` on `g` equals the scan's, field
// for field.
void ExpectPlanEqualsTheScan(const ViolationEngine& engine,
                             const PropertyGraph& g, const GraphDelta& d) {
  const GraphView pre = *GraphView::Apply(g, GraphDelta{});
  const BatchFootprint fp = BatchFootprint::Of(d.ops);
  EXPECT_EQ(
      ViolationEngineInternals::Dump(engine.PlanStep(pre, fp)),
      ViolationEngineInternals::Dump(
          ViolationEngineInternals::ScanPlan(engine, pre, fp)));
}

// The seeded oracle: incremental == diff of two full runs, across random
// graphs, rule sets, deltas, and worker counts; then once more on top of
// the materialized result (repeated delta application). Every batch's
// plan also equals the reference scan's, for the rules and for a
// wildcarded copy of them.
class IncrementalOracle : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalOracle, MatchesDiffOfTwoFullRuns) {
  const int seed = GetParam();
  Rng rng(seed * 1699 + 29);
  auto g = MakeSynthetic({.nodes = static_cast<size_t>(150 + seed * 7),
                          .edges = static_cast<size_t>(400 + seed * 11),
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
  const ViolationEngine wild(Wildcarded(rules, seed + 5));
  size_t workers = 1 + seed % 3;

  PropertyGraph current = g;
  // Repeated delta application; the last round is a tangled batch.
  for (int round = 0; round < 3; ++round) {
    GraphDelta d = round < 2 ? RandomDelta(current, rng, 10 + rng.Below(20))
                             : TangledBatch(current, rng, 4);
    std::string error;
    auto view = GraphView::Apply(current, d, &error);
    ASSERT_TRUE(view.has_value()) << error;
    auto next = view->Materialize();
    ExpectPlanEqualsTheScan(engine, current, d);
    ExpectPlanEqualsTheScan(wild, current, d);

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

// --- Move stability --------------------------------------------------------

TEST(DetectIncremental, EngineMovedAfterARunStaysCorrect) {
  auto g = BuildWorld();
  GraphDelta d;
  d.InsertEdge(1, 2, *g.FindLabel("create"));

  std::vector<ViolationEngine> engines;
  engines.push_back(ViolationEngine({FilmRule(g)}));
  auto before = Diff(engines[0], g, d);
  ASSERT_EQ(before.added.size(), 1u);

  // Reallocate the vector several times: every resize moves the engine,
  // its group vector, and the groups' plans.
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

// A footprint keys every attribute write by (node, key) and every edge op
// by its directed (src, dst, label), and answers for a pattern edge's
// label, the wildcard included.
TEST(BatchFootprint, KeysEveryWriteAndEveryEdgeOp) {
  const PropertyGraph g = BuildHubStar(3);  // Hub 0, fans 1-3, Leaf 4
  const LabelId follows = *g.FindLabel("follows");
  const AttrId team = *g.FindAttr("team");
  GraphDelta d;
  d.InsertEdge(4, 0, follows);
  d.InsertEdge(3, 1, follows);
  d.DeleteEdge(2, 0, follows);
  d.SetAttr(0, team, *g.FindValue("red"));
  const BatchFootprint fp = BatchFootprint::Of(d.ops);
  EXPECT_EQ(fp.writes, (std::vector<BatchFootprint::Write>{{0, team}}));
  const std::vector<BatchFootprint::EdgeKey> keys{
      {2, 0, follows}, {3, 1, follows}, {4, 0, follows}};
  EXPECT_EQ(fp.edges, keys);
  EXPECT_TRUE(fp.Wrote(0, team));
  EXPECT_FALSE(fp.Wrote(1, team));
  EXPECT_TRUE(fp.Changed(3, 1, follows));
  EXPECT_TRUE(fp.Changed(3, 1, kWildcardLabel));
  EXPECT_FALSE(fp.Changed(1, 3, follows));  // keys are directed
  EXPECT_FALSE(fp.Changed(3, 1, *g.FindLabel("likes")));
}

// --- Attribution of a step's units -----------------------------------------

// Three disjoint 2-paths a -e-> b -e-> c whose ends disagree on `k`, and
// a rule over the path that the disagreement violates.
PropertyGraph BuildPaths() {
  PropertyGraph::Builder b;
  for (int i = 0; i < 3; ++i) {
    NodeId a = b.AddNode("n");
    NodeId mid = b.AddNode("n");
    NodeId c = b.AddNode("n");
    b.SetAttr(a, "k", "left");
    b.SetAttr(c, "k", "right");
    b.AddEdge(a, mid, "e");
    b.AddEdge(mid, c, "e");
  }
  return std::move(b).Build();
}

Gfd PathRule(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("n"));
  VarId y = q.AddNode(*g.FindLabel("n"));
  VarId z = q.AddNode(*g.FindLabel("n"));
  q.AddEdge(x, y, *g.FindLabel("e"));
  q.AddEdge(y, z, *g.FindLabel("e"));
  q.set_pivot(x);
  AttrId k = *g.FindAttr("k");
  return Gfd(q, {}, Literal::Vars(x, k, z, k));
}

// A match that maps two pattern edges onto changed keys is evaluated at
// the lower one only: deleting both edges of every path removes each
// path's violation exactly once, from one evaluated match per path.
TEST(DetectIncremental, PathDeletesReportEachRemovedViolationOnce) {
  const PropertyGraph g = BuildPaths();
  ViolationEngine engine({PathRule(g)});
  ASSERT_EQ(engine.Detect(g).violations.size(), 3u);
  GraphDelta d;
  const LabelId e = *g.FindLabel("e");
  for (NodeId a = 0; a < 9; a += 3) {
    d.DeleteEdge(a, a + 1, e);
    d.DeleteEdge(a + 1, a + 2, e);
  }
  auto diff = Diff(engine, g, d);
  auto [added, removed] =
      FullDiff(engine, g, GraphView::Apply(g, d)->Materialize());
  EXPECT_TRUE(diff.added.empty());
  EXPECT_EQ(diff.removed, removed);
  EXPECT_EQ(diff.removed.size(), 3u);
  EXPECT_EQ(diff.stats.matches_seen, 3u);
  EXPECT_EQ(diff.stats.write_units, 0u);
  EXPECT_EQ(diff.stats.edge_units, 2u);
}

// A match binding a written node and a changed key is evaluated once, at
// the write: Musician starts creating the film and loses the producer
// type in one batch.
TEST(DetectIncremental, AMatchThroughAWriteAndAChangedKeyIsEvaluatedOnce) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  GraphDelta d;
  d.InsertEdge(1, 2, *g.FindLabel("create"));
  d.SetAttr(1, *g.FindAttr("type"), *g.FindValue("film"));
  auto diff = Diff(engine, g, d);
  auto [added, removed] =
      FullDiff(engine, g, GraphView::Apply(g, d)->Materialize());
  EXPECT_EQ(diff.added, added);
  EXPECT_EQ(diff.removed, removed);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0].match, (Match{1, 2}));
  // Musician's one match before (to the album) and two after.
  EXPECT_EQ(diff.stats.matches_seen, 3u);
}

// A second copy of an existing edge changes no match: the step evaluates
// the matches over its key on both sides, and they cancel.
TEST(DetectIncremental, AParallelCopyOfAnEdgeAddsNothing) {
  auto g = BuildWorld();
  ViolationEngine engine({FilmRule(g)});
  GraphDelta d;
  d.InsertEdge(0, 2, *g.FindLabel("create"));  // Producer0 -> film again
  d.InsertEdge(1, 3, *g.FindLabel("create"));  // Musician -> album again
  auto diff = Diff(engine, g, d);
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_EQ(diff.stats.matches_seen, 4u);
}

// Accounts that pay themselves: a self-loop pattern edge over inserted
// and deleted self-loops, in a one-variable pattern and beside another
// edge.
TEST(DetectIncremental, SelfLoopPatternEdgesFollowChangedSelfLoops) {
  PropertyGraph::Builder b;
  const NodeId a = b.AddNode("acct");
  const NodeId c = b.AddNode("acct");
  const NodeId d = b.AddNode("acct");
  b.SetAttr(a, "risk", "low");
  b.SetAttr(c, "risk", "low");
  b.SetAttr(d, "risk", "high");
  b.AddEdge(a, a, "pays");
  b.AddEdge(a, d, "pays");
  b.AddEdge(c, d, "pays");
  b.AddEdge(d, d, "owes");
  const PropertyGraph g = std::move(b).Build();
  const LabelId acct = *g.FindLabel("acct");
  const LabelId pays = *g.FindLabel("pays");
  const AttrId risk = *g.FindAttr("risk");
  Pattern loop;  // x -pays-> x
  VarId x = loop.AddNode(acct);
  loop.AddEdge(x, x, pays);
  loop.set_pivot(x);
  Pattern loop_and_pay = loop;  // x -pays-> x, x -pays-> y
  VarId y = loop_and_pay.AddNode(acct);
  loop_and_pay.AddEdge(x, y, pays);
  const Gfd low_risk(loop, {}, Literal::Const(x, risk, *g.FindValue("low")));
  const Gfd same_risk(loop_and_pay, {}, Literal::Vars(x, risk, y, risk));
  ViolationEngine engine({low_risk, same_risk});

  GraphDelta delta;
  delta.DeleteEdge(a, a, pays);
  delta.InsertEdge(c, c, pays);
  delta.InsertEdge(d, d, pays);
  auto diff = Diff(engine, g, delta);
  auto [added, removed] =
      FullDiff(engine, g, GraphView::Apply(g, delta)->Materialize());
  EXPECT_EQ(diff.added, added);
  EXPECT_EQ(diff.removed, removed);
  // d now pays itself with high risk; c pays d.
  EXPECT_EQ(diff.added.size(), 2u);
  // a no longer pays itself, so its payment to d no longer violates.
  EXPECT_EQ(diff.removed.size(), 1u);
}

// person x -create-> product y, y.genre = drama -> x.type = producer:
// `genre` is read at y only.
Gfd DramaRule(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("product"));
  q.AddEdge(x, y, *g.FindLabel("create"));
  q.set_pivot(x);
  const Literal drama =
      Literal::Const(y, *g.FindAttr("genre"), *g.FindValue("drama"));
  const Literal producer =
      Literal::Const(x, *g.FindAttr("type"), *g.FindValue("producer"));
  return Gfd(q, {drama}, producer);
}

PropertyGraph BuildDramaWorld() {
  PropertyGraph::Builder b;
  NodeId p = b.AddNode("person");
  b.SetName(p, "Musician");
  b.SetAttr(p, "type", "musician");
  NodeId f = b.AddNode("product");
  b.SetAttr(f, "genre", "comedy");
  b.InternValue("drama");
  b.InternValue("producer");
  b.AddEdge(p, f, "create");
  return std::move(b).Build();
}

// A write roots work only where some member reads its key: `genre` set
// at a person roots no unit, so the group is not scanned at all.
// Written beside a read write on one match, it does not take the match
// from the variable that reads it.
TEST(DetectIncremental, AWriteNoMemberReadsThereEnumeratesNothing) {
  const PropertyGraph g = BuildDramaWorld();
  ViolationEngine engine({DramaRule(g)});
  const AttrId genre = *g.FindAttr("genre");
  {
    GraphDelta d;
    d.SetAttr(0, genre, *g.FindValue("drama"));  // the person
    auto diff = Diff(engine, g, d);
    EXPECT_EQ(diff.stats.groups_scanned, 0u);
    EXPECT_EQ(diff.stats.write_units, 0u);
    EXPECT_EQ(diff.stats.roots_scanned, 0u);
    EXPECT_EQ(diff.stats.matches_seen, 0u);
    EXPECT_TRUE(diff.added.empty());
  }
  {
    GraphDelta d;
    d.SetAttr(0, genre, *g.FindValue("drama"));  // read at no variable
    d.SetAttr(1, genre, *g.FindValue("drama"));  // read at y
    auto diff = Diff(engine, g, d);
    auto [added, removed] =
        FullDiff(engine, g, GraphView::Apply(g, d)->Materialize());
    EXPECT_EQ(diff.added, added);
    EXPECT_EQ(diff.removed, removed);
    EXPECT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.stats.write_units, 1u);
    EXPECT_EQ(diff.stats.matches_seen, 2u);
  }
}

// The one-shot diff roots an edge op the way a serving step does: an edge
// into a degree-D hub roots the units of the pattern edges it can map
// onto at the edge itself, so the run enumerates the matches through
// Leaf, not every pair of the hub's followers (D * D of them).
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
