// Distributed incremental detection over vertex-cut fragments of one
// graph: the Coordinator's merged per-fragment diffs must be
// byte-identical to single-node DetectStep / AppendAndDiff on the
// unfragmented store -- on fixtures, property-style across random seeds
// x graph scales x fragment counts {1,2,4,8} x batch streams (repeated,
// delete-heavy, and mid-stream rebalanced batches included), across a
// restart, and from directories older builds wrote, which convert once.
// Both backends are driven through the ServingStore interface. On top of
// the oracle, every fragment's seeds must run inside its residency masks
// (the shared-nothing check: rerun on the subgraphs a fragment holding
// its masks would store, they give the same part diff and matches), the
// masks' summed footprint must be ~replication x |G|, not N x |G|, and
// the coordinator's durable state must be its master store plus the
// owner table. Crash recovery at every durable write point is
// crash_sweep_test's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/live_graph.h"
#include "graph/loader.h"
#include "obs/trace.h"
#include "parallel/fragment.h"
#include "serve/coordinator.h"
#include "serve/delta_log.h"
#include "serve/graph_store.h"
#include "serve/serving_store.h"
#include "testlib.h"
#include "util/rng.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;
using gfd::testing::BuildHubStar;
using gfd::testing::kLeafFollowsHub;
using gfd::testing::SameTeamRule;
using gfd::testing::TangledBatch;

// Fresh per-test scratch directory under gtest's temp root.
std::string Scratch(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gfd_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string GraphBytes(const PropertyGraph& g) {
  std::ostringstream os;
  SaveGraphTsv(g, os);
  return std::move(os).str();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// Opens a fresh JSON-lines trace at a scratch path and installs it as
// the process trace. Uninstalls (and closes) on scope exit.
struct ScopedTestTrace {
  std::string path;
  std::unique_ptr<obs::TraceLog> log;

  explicit ScopedTestTrace(const std::string& name)
      : path(::testing::TempDir() + "gfd_" + name + ".jsonl") {
    fs::remove(path);
    log = obs::TraceLog::Open(path);
    obs::SetActiveTrace(log.get());
  }
  ~ScopedTestTrace() { obs::SetActiveTrace(nullptr); }

  std::string Text() const { return FileBytes(path); }
};

std::string DeltaBytes(const PropertyGraph& base, const GraphDelta& d) {
  std::ostringstream os;
  SaveGraphDeltaTsv(base, d, os);
  return std::move(os).str();
}

// Random update batch over the *current* state `g`: inserts with
// label-plausible endpoints, deletes of existing edges, attribute sets
// (some introducing brand-new values). `delete_bias` > 0.3 makes the
// stream delete-heavy.
GraphDelta RandomBatch(const PropertyGraph& g, Rng& rng, size_t ops,
                       double delete_bias = 0.3) {
  GraphDelta d;
  std::vector<bool> gone(g.NumEdges(), false);
  for (size_t i = 0; i < ops; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.4 && g.NumEdges() > 0) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      NodeId src = rng.Chance(0.5)
                       ? g.EdgeSrc(e)
                       : static_cast<NodeId>(rng.Below(g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.Below(g.NumNodes()));
      d.InsertEdge(src, dst, g.EdgeLabel(e));
    } else if (roll < 0.4 + delete_bias && g.NumEdges() > 0) {
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

// The subgraph of `g` a fragment holding residency `resident` would
// store: every node row and the whole vocabulary, ids preserved, and the
// edges with both endpoints resident.
PropertyGraph ExtractSubgraph(const PropertyGraph& g,
                              std::span<const char> resident) {
  PropertyGraph::Builder b;
  // Re-intern the full vocabulary in id order so every id is preserved
  // verbatim (Intern dedups the builder's pre-interned wildcard).
  for (uint32_t l = 0; l < g.labels().size(); ++l) {
    b.InternLabel(g.LabelName(l));
  }
  for (uint32_t a = 0; a < g.attrs().size(); ++a) b.InternAttr(g.AttrName(a));
  for (uint32_t v = 0; v < g.values().size(); ++v) {
    b.InternValue(g.ValueName(v));
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    b.AddNodeById(g.NodeLabel(v));  // ids are dense, so the id is v
    if (!g.NodeName(v).empty()) b.SetName(v, g.NodeName(v));
    for (const Attribute& a : g.NodeAttrs(v)) b.SetAttrById(v, a.key, a.value);
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (resident[g.EdgeSrc(e)] && resident[g.EdgeDst(e)]) {
      b.AddEdgeById(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    }
  }
  return std::move(b).Build();
}

// The shared-nothing check. Plans the seeds of batch `d` on `pre` under
// `p` as a coordinator's master does, and reruns each fragment's seeds on
// the graphs a fragment holding its masks would store: ExtractSubgraph of
// `pre` under its residency before the batch, then of the post-batch
// graph under its residency after it. Each rerun must give the part diff
// and the matches_seen of the same seeds on the whole graph, so a seed
// planned where its fragment's masks miss part of its ball fails here.
// Returns every fragment's seeds.
std::vector<std::vector<NodeId>> ExpectSeedsRunInsideTheirFragments(
    const PropertyGraph& pre, const Partition& p,
    const ViolationEngine& engine, const GraphDelta& d) {
  const GraphView view = *GraphView::Apply(pre, GraphDelta{});
  const BatchFootprint fp = BatchFootprint::Of(d.ops, view);
  const StepPlan plan = engine.PlanStep(view, fp);
  std::vector<std::vector<NodeId>> seeds =
      PlanSeeds(p, view, d.ops, fp.anchors, plan.anchor_costs(),
                engine.MaxPatternRadius());
  const PropertyGraph post = GraphView::Apply(pre, d)->Materialize();
  const FragmentResidency before = ComputeResidency(pre, p);
  const FragmentResidency after = ComputeResidency(post, p);
  for (size_t f = 0; f < p.num_fragments; ++f) {
    SCOPED_TRACE("fragment " + std::to_string(f) + " of " +
                 std::to_string(p.num_fragments));
    GraphView whole = *GraphView::Apply(pre, GraphDelta{});
    auto absorb = [&] { return whole.AbsorbAppended(d, 0); };
    auto one_view = engine.DetectStep(whole, fp, seeds[f], absorb);

    const PropertyGraph held_before = ExtractSubgraph(pre, before[f]);
    const PropertyGraph held_after = ExtractSubgraph(post, after[f]);
    GraphView held = *GraphView::Apply(held_before, GraphDelta{});
    auto swap_in_after = [&] {
      held = *GraphView::Apply(held_after, GraphDelta{});
      return true;
    };
    auto own = engine.DetectStep(held, fp, seeds[f], swap_in_after);
    EXPECT_TRUE(one_view.has_value() && own.has_value());
    if (!one_view || !own) continue;
    const IncrementalDiff want = StepDiff(*one_view);
    const IncrementalDiff have = StepDiff(*own);
    EXPECT_EQ(have.added, want.added);
    EXPECT_EQ(have.removed, want.removed);
    EXPECT_EQ(have.stats.matches_seen, want.stats.matches_seen);
  }
  return seeds;
}

// A coordinator's residency masks are those of its current graph under
// its owner table.
void ExpectResidencyCurrent(const Coordinator& coord) {
  EXPECT_EQ(coord.residency(),
            ComputeResidency(coord.MaterializeCurrent(), coord.partition()));
}

// --- Fragment-scoped step seeds ---------------------------------------------

// Runs the step of `d` on `g` whole, and again per fragment at 1, 2, 4
// and 8 fragments -- seeded by owner, then as the master's planner
// places the anchors: the fragments' step diffs, enumerated matches and
// scanned roots must partition the whole step's, whose diff equals the
// diff of two full Detect runs.
void ExpectFragmentSeedsPartition(const PropertyGraph& g,
                                  const ViolationEngine& engine,
                                  const GraphDelta& d) {
  const BatchFootprint fp =
      BatchFootprint::Of(d.ops, *GraphView::Apply(g, GraphDelta{}));
  // Runs the step from a fresh live view of `g`, anchored at `seeds`.
  auto step = [&](std::span<const NodeId> seeds) {
    auto live = *GraphView::Apply(g, GraphDelta{});
    auto apply = [&] { return live.AbsorbAppended(d, 0); };
    auto sides = engine.DetectStep(live, fp, seeds, apply);
    EXPECT_TRUE(sides.has_value());
    return StepDiff(*sides);
  };
  auto full = step(fp.anchors);
  auto old_run = engine.Detect(g);
  auto new_run = engine.Detect(GraphView::Apply(g, d)->Materialize());
  std::vector<Violation> want_added, want_removed;
  std::set_difference(new_run.violations.begin(), new_run.violations.end(),
                      old_run.violations.begin(), old_run.violations.end(),
                      std::back_inserter(want_added));
  std::set_difference(old_run.violations.begin(), old_run.violations.end(),
                      new_run.violations.begin(), new_run.violations.end(),
                      std::back_inserter(want_removed));
  EXPECT_EQ(full.added, want_added);
  EXPECT_EQ(full.removed, want_removed);
  EXPECT_GT(full.stats.edge_units, 0u);

  // Seeds per fragment -- by owner, then as the master's planner places
  // them -- must partition the anchors, and their step diffs the full one.
  auto expect_partition = [&](const std::vector<std::vector<NodeId>>& seeds,
                              const std::string& what) {
    std::vector<NodeId> all;
    std::vector<Violation> added, removed;
    uint64_t matches = 0, roots = 0;
    for (const std::vector<NodeId>& part_seeds : seeds) {
      EXPECT_TRUE(std::is_sorted(part_seeds.begin(), part_seeds.end()));
      all.insert(all.end(), part_seeds.begin(), part_seeds.end());
      auto part = step(part_seeds);
      matches += part.stats.matches_seen;
      roots += part.stats.roots_scanned;
      // Disjoint by attribution: plain merges reproduce the full diff.
      std::vector<Violation> merged;
      std::merge(added.begin(), added.end(), part.added.begin(),
                 part.added.end(), std::back_inserter(merged));
      added = std::move(merged);
      merged.clear();
      std::merge(removed.begin(), removed.end(), part.removed.begin(),
                 part.removed.end(), std::back_inserter(merged));
      removed = std::move(merged);
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, fp.anchors) << what;  // each anchor exactly once
    EXPECT_EQ(added, full.added) << what;
    EXPECT_EQ(removed, full.removed) << what;
    // Each unit root at one fragment, each match evaluated at one.
    EXPECT_EQ(matches, full.stats.matches_seen) << what;
    EXPECT_EQ(roots, full.stats.roots_scanned) << what;
    // No duplicates slipped through the merge.
    EXPECT_TRUE(std::adjacent_find(added.begin(), added.end()) == added.end());
  };
  const uint32_t radius = engine.MaxPatternRadius();
  for (size_t n : {1u, 2u, 4u, 8u}) {
    Fragmentation frag = VertexCutPartition(g, n);
    std::vector<std::vector<NodeId>> by_owner(n);
    for (NodeId v : fp.anchors) {
      by_owner[frag.partition.node_owner[v]].push_back(v);
    }
    expect_partition(by_owner, std::to_string(n) + " fragments, by owner");

    // The tightest halo the rules allow, so the masks leave out much of
    // the graph and a misplaced seed shows.
    Partition p = frag.partition;
    p.halo_radius = std::max<uint32_t>(1, radius);
    const std::vector<std::vector<NodeId>> planned =
        ExpectSeedsRunInsideTheirFragments(g, p, engine, d);
    ASSERT_EQ(planned.size(), n);
    expect_partition(planned, std::to_string(n) + " fragments, planned");
  }
}

// One step over the whole graph, seeded per fragment: for a random
// batch and for a tangled one (2-paths deleted whole, a parallel copy, a
// write at an edge op's endpoint, a self-loop), both with edge units.
TEST(DetectStep, FragmentSeedsPartitionTheStepDiff) {
  auto g = MakeSynthetic({.nodes = 200,
                          .edges = 600,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 15,
                          .value_correlation = 0.9,
                          .seed = 42});
  auto rules = GenerateGfdSet(g, {.count = 12, .k = 3, .seed = 7});
  ViolationEngine engine(rules);
  Rng rng(99);
  const GraphDelta random = RandomBatch(g, rng, 40);
  const GraphDelta tangled = TangledBatch(g, rng, 6);
  {
    SCOPED_TRACE("random batch");
    ExpectFragmentSeedsPartition(g, engine, random);
  }
  {
    SCOPED_TRACE("tangled batch");
    ExpectFragmentSeedsPartition(g, engine, tangled);
  }
}

// --- Seed eligibility ------------------------------------------------------

// Nodes 0..n-1 (one label) joined by `edges` (one label).
PropertyGraph Gadget(size_t nodes,
                     std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  PropertyGraph::Builder b;
  for (size_t i = 0; i < nodes; ++i) b.AddNode("n");
  for (const auto& [src, dst] : edges) b.AddEdge(src, dst, "e");
  return std::move(b).Build();
}

// Nodes within `radius` undirected hops of v.
std::vector<NodeId> Ball(const GraphView& g, NodeId v, uint32_t radius) {
  std::vector<uint32_t> dist(g.NumNodes(), UINT32_MAX);
  std::vector<NodeId> ball{v};
  dist[v] = 0;
  for (size_t head = 0; head < ball.size(); ++head) {
    const NodeId u = ball[head];
    if (dist[u] == radius) continue;
    auto reach = [&](NodeId w) {
      if (dist[w] != UINT32_MAX) return;
      dist[w] = dist[u] + 1;
      ball.push_back(w);
    };
    for (EdgeId e : g.OutEdges(u)) reach(g.EdgeDst(e));
    for (EdgeId e : g.InEdges(u)) reach(g.EdgeSrc(e));
  }
  return ball;
}

// SeedableFragments of `batch` over `g` under `p`, checked for soundness
// by BFS: wherever it admits fragment f for node v, f's residency before
// the batch holds v's ball in the graph before it, and f's residency
// after the batch holds v's ball in the graph after it.
FragmentMasks CheckedSeedable(const PropertyGraph& g, const Partition& p,
                              const GraphDelta& batch, uint32_t radius) {
  const GraphView pre = *GraphView::Apply(g, GraphDelta{});
  const GraphView post = *GraphView::Apply(g, batch);
  const FragmentResidency before = ComputeResidency(pre, p);
  const FragmentResidency after = ComputeResidency(post, p);
  EXPECT_EQ(before, ComputeResidency(g, p));
  FragmentMasks seedable = SeedableFragments(pre, batch.ops, p, radius);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (size_t f = 0; f < p.num_fragments; ++f) {
      if (!seedable.Test(v, f)) continue;
      for (NodeId w : Ball(pre, v, radius)) {
        EXPECT_TRUE(before[f][w]) << "node " << v << " fragment " << f
                                  << ": pre-batch ball reaches " << w;
      }
      for (NodeId w : Ball(post, v, radius)) {
        EXPECT_TRUE(after[f][w]) << "node " << v << " fragment " << f
                                 << ": post-batch ball reaches " << w;
      }
    }
  }
  return seedable;
}

Partition TwoFragments(std::vector<uint32_t> owners) {
  Partition p;
  p.num_fragments = 2;
  p.halo_radius = 1;
  p.node_owner = std::move(owners);
  return p;
}

TEST(SeedableFragments, ABallThatReachesAFragmentsBorderBlocksIt) {
  constexpr NodeId u = 0, a = 1, x = 2, y = 3;
  // Fragment 0 owns u, fragment 1 the rest; at halo radius 1 fragment 0
  // holds u and a, never x.
  {
    // Before the batch a's ball reaches x; the E- cuts that path, so
    // after it the ball is {u, a}, all resident at 0. Fragment 0's view
    // before the batch lacks x, so it must not seed a.
    PropertyGraph g = Gadget(4, {{u, a}, {a, x}, {x, y}});
    GraphDelta d;
    d.DeleteEdge(a, x, *g.FindLabel("e"));
    FragmentMasks seedable =
        CheckedSeedable(g, TwoFragments({0, 1, 1, 1}), d, /*radius=*/1);
    EXPECT_FALSE(seedable.Test(a, 0));
    EXPECT_TRUE(seedable.Test(a, 1));
    EXPECT_TRUE(seedable.Test(u, 0));
    EXPECT_TRUE(seedable.Test(u, 1));
  }
  {
    // Before the batch a's ball is {u, a}; the E+ makes a path to x, so
    // fragment 0's view after the batch lacks part of the ball.
    PropertyGraph g = Gadget(4, {{u, a}, {x, y}});
    GraphDelta d;
    d.InsertEdge(a, x, *g.FindLabel("e"));
    FragmentMasks seedable =
        CheckedSeedable(g, TwoFragments({0, 1, 1, 1}), d, /*radius=*/1);
    EXPECT_FALSE(seedable.Test(a, 0));
    EXPECT_TRUE(seedable.Test(a, 1));
  }
}

// Residency that changes with the batch: a node resident at a fragment
// on one side only still blocks it.
TEST(SeedableFragments, ResidencyOnOneSideOnlyBlocks) {
  {
    // The E+ u -> x brings x into fragment 0's halo after the batch; a's
    // ball held x before it, when fragment 0 did not.
    constexpr NodeId u = 0, a = 1, x = 2;
    PropertyGraph g = Gadget(3, {{u, a}, {a, x}});
    GraphDelta d;
    d.InsertEdge(u, x, *g.FindLabel("e"));
    FragmentMasks seedable =
        CheckedSeedable(g, TwoFragments({0, 1, 1}), d, /*radius=*/1);
    EXPECT_FALSE(seedable.Test(a, 0));
    EXPECT_TRUE(seedable.Test(a, 1));
  }
  {
    // The E- u -> x drops x from fragment 0's halo; v's ball holds x on
    // both sides, and fragment 0's view after the batch lacks it.
    constexpr NodeId u = 0, w = 1, v = 2, x = 3;
    PropertyGraph g = Gadget(4, {{u, x}, {w, v}, {v, x}});
    GraphDelta d;
    d.DeleteEdge(u, x, *g.FindLabel("e"));
    FragmentMasks seedable =
        CheckedSeedable(g, TwoFragments({0, 0, 1, 1}), d, /*radius=*/1);
    EXPECT_FALSE(seedable.Test(v, 0));
    EXPECT_TRUE(seedable.Test(v, 1));
    EXPECT_TRUE(seedable.Test(w, 0));
  }
}

// The mask sweeps give residency's definition: v is resident at f iff a
// node f owns lies within halo_radius undirected hops of v.
TEST(ComputeResidency, SweepsMatchTheHopDefinition) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto g = MakeSynthetic({.nodes = 150, .edges = 300, .seed = seed});
    const GraphView view = *GraphView::Apply(g, GraphDelta{});
    for (uint32_t halo : {1u, 2u, 3u}) {
      Partition p = VertexCutPartition(g, 3 + seed % 3).partition;
      p.halo_radius = halo;
      const FragmentResidency resident = ComputeResidency(view, p);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        std::vector<char> near(p.num_fragments, 0);
        for (NodeId w : Ball(view, v, halo)) near[p.node_owner[w]] = 1;
        for (size_t f = 0; f < p.num_fragments; ++f) {
          EXPECT_EQ(resident[f][v] != 0, near[f] != 0)
              << "node " << v << " fragment " << f << " halo " << halo;
        }
      }
    }
  }
}

// Random graphs and batches: whatever the mask admits is sound, and it
// admits fragments other than the owner.
TEST(SeedableFragments, SoundOnRandomBatches) {
  size_t off_owner = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto g = MakeSynthetic({.nodes = 150, .edges = 360, .seed = seed});
    Rng rng(seed * 31);
    GraphDelta d = RandomBatch(g, rng, 30, /*delete_bias=*/0.4);
    Partition p = VertexCutPartition(g, 2 + seed % 3).partition;
    p.halo_radius = 2;
    for (uint32_t radius : {1u, 2u}) {
      FragmentMasks seedable = CheckedSeedable(g, p, d, radius);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        for (size_t f = 0; f < p.num_fragments; ++f) {
          if (f != p.node_owner[v] && seedable.Test(v, f)) ++off_owner;
        }
      }
    }
  }
  EXPECT_GT(off_owner, 0u);
}

// SeedableFragments by its definition, pulled node by node over
// adjacency lists: residency pulled from the owners over the edges both
// sides hold, then every node's missing fragments pulled from its
// neighbours over the edges either side holds, `radius` times. Returns
// seedable[v][f].
std::vector<std::vector<char>> PulledSeedable(
    const GraphView& pre, std::span<const GraphDelta::Op> ops,
    const Partition& p, uint32_t radius) {
  const size_t n = pre.NumNodes();
  const size_t frags = p.num_fragments;
  std::set<std::tuple<NodeId, NodeId, LabelId>> cut;
  std::vector<std::vector<NodeId>> both(n), either(n);
  for (const GraphDelta::Op& op : ops) {
    if (op.kind == GraphDelta::OpKind::kDeleteEdge) {
      cut.insert({op.src, op.dst, op.label});
    }
    if (op.kind != GraphDelta::OpKind::kSetAttr) {
      either[op.src].push_back(op.dst);
      either[op.dst].push_back(op.src);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    for (EdgeId e : pre.OutEdges(v)) {
      const NodeId w = pre.EdgeDst(e);
      either[v].push_back(w);
      either[w].push_back(v);
      if (cut.count({v, w, pre.EdgeLabel(e)}) == 0) {
        both[v].push_back(w);
        both[w].push_back(v);
      }
    }
  }
  auto pull = [&](std::vector<std::vector<char>> sets,
                  const std::vector<std::vector<NodeId>>& adj, uint32_t hops) {
    for (uint32_t h = 0; h < hops; ++h) {
      std::vector<std::vector<char>> next = sets;
      for (NodeId v = 0; v < n; ++v) {
        for (NodeId w : adj[v]) {
          for (size_t f = 0; f < frags; ++f) next[v][f] |= sets[w][f];
        }
      }
      sets = std::move(next);
    }
    return sets;
  };
  std::vector<std::vector<char>> owner(n, std::vector<char>(frags, 0));
  for (NodeId v = 0; v < n; ++v) owner[v][p.node_owner[v]] = 1;
  std::vector<std::vector<char>> missing = pull(owner, both, p.halo_radius);
  for (auto& set : missing) {
    for (char& bit : set) bit = !bit;
  }
  std::vector<std::vector<char>> seedable = pull(missing, either, radius);
  for (auto& set : seedable) {
    for (char& bit : set) bit = !bit;
  }
  return seedable;
}

// The masks SeedableFragments pushes from the nodes whose missing set
// changed equal the pulled definition: on random batches, at radius 0,
// beyond one 64-fragment block, and where the missing sets start dense
// (halo 1 on a sparse graph).
TEST(SeedableFragments, PushedMasksEqualThePulledDefinition) {
  struct Case {
    size_t nodes, edges, fragments;
    uint32_t halo, radius;
  };
  const Case cases[] = {
      {150, 360, 3, 2, 2}, {150, 360, 4, 3, 3}, {150, 360, 2, 2, 0},
      {200, 150, 4, 1, 1}, {200, 150, 3, 1, 3}, {120, 300, 70, 2, 2},
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Case& c : cases) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(c.nodes) + " nodes, " +
                   std::to_string(c.fragments) + " fragments, halo " +
                   std::to_string(c.halo) + ", radius " +
                   std::to_string(c.radius));
      auto g = MakeSynthetic({.nodes = c.nodes, .edges = c.edges,
                              .seed = seed});
      Rng rng(seed * 97 + c.fragments);
      const GraphDelta d = RandomBatch(g, rng, 30);
      Partition p = VertexCutPartition(g, c.fragments).partition;
      p.halo_radius = c.halo;
      const GraphView pre = *GraphView::Apply(g, GraphDelta{});
      const FragmentMasks pushed = SeedableFragments(pre, d.ops, p, c.radius);
      const auto pulled = PulledSeedable(pre, d.ops, p, c.radius);
      size_t mismatches = 0;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        for (size_t f = 0; f < p.num_fragments; ++f) {
          mismatches += pushed.Test(v, f) != (pulled[v][f] != 0);
        }
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

// --- Coordinator basics ----------------------------------------------------

TEST(Coordinator, InitRejectsBadParamsAndDoubleInit) {
  auto g = MakeSynthetic({.nodes = 20, .edges = 40, .seed = 1});
  std::string dir = Scratch("coord_init");
  std::string error;
  EXPECT_FALSE(Coordinator::Init(dir, g, 0, 3, &error));
  EXPECT_FALSE(Coordinator::Init(dir, g, 2, 0, &error));
  EXPECT_NE(error.find("halo radius"), std::string::npos);
  ASSERT_TRUE(Coordinator::Init(dir, g, 2, 3, &error)) << error;
  EXPECT_FALSE(Coordinator::Init(dir, g, 2, 3, &error));
  EXPECT_NE(error.find("already holds"), std::string::npos);
}

// The fragments are masks over the one graph: after every append they
// are the residency of the current graph, and an invalid batch changes
// neither the graph nor them.
TEST(Coordinator, AppendKeepsFragmentsInLockstepAndResident) {
  auto g = MakeSynthetic({.nodes = 60, .edges = 180, .seed = 2});
  std::string dir = Scratch("coord_lockstep");
  ASSERT_TRUE(Coordinator::Init(dir, g, 3));
  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  Rng rng(7);
  for (int b = 0; b < 3; ++b) {
    PropertyGraph current = coord->MaterializeCurrent();
    GraphDelta d = RandomBatch(current, rng, 10);
    std::string error;
    auto seq = coord->Append(DeltaBytes(current, d), &error);
    ASSERT_TRUE(seq.has_value()) << error;
    EXPECT_EQ(*seq, static_cast<uint64_t>(b + 1));
    ExpectResidencyCurrent(*coord);
  }
  // An invalid batch is rejected before the log sees it.
  const std::string graph = GraphBytes(coord->MaterializeCurrent());
  const FragmentResidency masks = coord->residency();
  std::string error;
  EXPECT_FALSE(coord->Append("E-\tno_such_node\talso_missing\tx\n", &error));
  EXPECT_EQ(coord->last_seq(), 3u);
  EXPECT_EQ(GraphBytes(coord->MaterializeCurrent()), graph);
  EXPECT_EQ(coord->residency(), masks);
}

// A numeric field of one trace line.
uint64_t TraceField(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size() + 3));
}

// Sums one numeric field over the trace's "detect" spans.
uint64_t SumDetectField(const std::string& text, const std::string& key) {
  uint64_t sum = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"stage\":\"detect\"") == std::string::npos) continue;
    sum += TraceField(line, key);
  }
  return sum;
}

// The coordinator picks the same lower-degree anchor as the single store:
// one edge into a hub from a degree-1 node diffs exactly like two full
// Detect runs and enumerates on the order of the hub's degree D, not the
// ~D^2 follower pairs a hub seed would. The per-fragment detect spans
// say where that work went.
TEST(Coordinator, AppendAndDiffAnchorsAHubEdgeAtItsLowDegreeEnd) {
  constexpr size_t kDegree = 120;
  const PropertyGraph g = BuildHubStar(kDegree);
  ASSERT_EQ(g.Degree(0), kDegree);
  std::string dir = Scratch("coord_hub_edge");
  ASSERT_TRUE(Coordinator::Init(dir, g, 2));
  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  ViolationEngine engine({SameTeamRule(g)});

  std::optional<IncrementalDiff> diff;
  std::string error;
  std::string trace_text;
  {
    ScopedTestTrace trace("coord_hub_edge_trace");
    diff = coord->AppendAndDiff(engine, kLeafFollowsHub, {}, nullptr, &error);
    trace_text = trace.Text();
  }
  ASSERT_TRUE(diff.has_value()) << error;
  auto old_run = engine.Detect(g);
  auto new_run = engine.Detect(coord->MaterializeCurrent());
  std::vector<Violation> want_added, want_removed;
  std::set_difference(new_run.violations.begin(), new_run.violations.end(),
                      old_run.violations.begin(), old_run.violations.end(),
                      std::back_inserter(want_added));
  std::set_difference(old_run.violations.begin(), old_run.violations.end(),
                      new_run.violations.begin(), new_run.violations.end(),
                      std::back_inserter(want_removed));
  EXPECT_EQ(diff->added, want_added);
  EXPECT_EQ(diff->removed, want_removed);
  EXPECT_EQ(diff->added.size(), 2 * kDegree);  // Leaf vs. every follower
  EXPECT_LT(diff->stats.matches_seen, 8 * kDegree);
  EXPECT_EQ(SumDetectField(trace_text, "anchors"), 1u);  // Leaf alone
  EXPECT_EQ(SumDetectField(trace_text, "matches"), diff->stats.matches_seen);
}

// Per-fragment "anchors" of the trace's "detect" spans, and the sum of
// the "route" spans' anchors.
struct SeedTrace {
  std::vector<uint64_t> detect;
  uint64_t route = 0;
};
SeedTrace SeedAnchors(const std::string& text, size_t fragments) {
  SeedTrace out;
  out.detect.assign(fragments, 0);
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"stage\":\"detect\"") != std::string::npos) {
      out.detect.at(TraceField(line, "fragment")) +=
          TraceField(line, "anchors");
    } else if (line.find("\"stage\":\"route\"") != std::string::npos) {
      out.route += TraceField(line, "anchors");
    }
  }
  return out;
}

// The master plans the seeds: on a graph whose owner rule gives fragment
// 0 most of a batch's anchors, the seeds still spread evenly, each
// anchor at exactly one fragment, and the merged diff is the single
// store's.
TEST(Coordinator, AppendAndDiffSpreadsTheSeedsOffTheOwners) {
  auto g = MakeSynthetic({.nodes = 400,
                          .edges = 1200,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 15,
                          .value_correlation = 0.9,
                          .degree_skew = 0,
                          .seed = 21});
  ViolationEngine engine(GenerateGfdSet(g, {.count = 12, .k = 3, .seed = 7}));
  ASSERT_LE(engine.MaxPatternRadius(), 3u);
  constexpr size_t kFragments = 4;
  std::string dir = Scratch("coord_spread");
  std::string single_dir = Scratch("coord_spread_single");
  ASSERT_TRUE(Coordinator::Init(dir, g, kFragments, /*halo_radius=*/3));
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  auto coord = Coordinator::Open(dir);
  auto single = GraphStore::Open(single_dir);
  ASSERT_TRUE(coord.has_value());
  ASSERT_TRUE(single.has_value());

  Rng rng(5);
  GraphDelta d = RandomBatch(g, rng, 80);
  const BatchFootprint fp =
      BatchFootprint::Of(d.ops, *GraphView::Apply(g, GraphDelta{}));
  std::vector<uint64_t> owned(kFragments, 0);
  for (NodeId v : fp.anchors) ++owned[coord->node_owner()[v]];
  // The largest count over the mean.
  auto skew = [](const std::vector<uint64_t>& counts) {
    double sum = 0;
    for (uint64_t c : counts) sum += static_cast<double>(c);
    const double most = *std::max_element(counts.begin(), counts.end());
    return most * static_cast<double>(counts.size()) / sum;
  };
  ASSERT_GT(skew(owned), 1.5) << "the owner rule must skew this batch";

  const std::string batch = DeltaBytes(g, d);
  std::optional<IncrementalDiff> diff;
  std::string error;
  std::string trace_text;
  {
    ScopedTestTrace trace("coord_spread_trace");
    diff = coord->AppendAndDiff(engine, batch, {}, nullptr, &error);
    trace_text = trace.Text();
  }
  ASSERT_TRUE(diff.has_value()) << error;
  auto want = single->AppendAndDiff(engine, batch, {}, nullptr, &error);
  ASSERT_TRUE(want.has_value()) << error;
  EXPECT_EQ(diff->added, want->added);
  EXPECT_EQ(diff->removed, want->removed);
  EXPECT_EQ(diff->payload, want->payload);

  const SeedTrace seeds = SeedAnchors(trace_text, kFragments);
  uint64_t seeded_total = 0;
  for (uint64_t c : seeds.detect) seeded_total += c;
  EXPECT_EQ(seeds.route, fp.anchors.size());
  EXPECT_EQ(seeded_total, seeds.route);
  EXPECT_NE(seeds.detect, owned) << "some anchor is seeded off its owner";
  EXPECT_LE(skew(seeds.detect), 1.5);
}

// One step span of a trace line: its stage and its numeric fields
// (ts_ns and dur_ns included).
struct StepSpan {
  std::string stage;
  std::map<std::string, uint64_t> fields;
};

bool IsStepStage(const std::string& stage) {
  return stage == "route" || stage == "plan" || stage == "detect" ||
         stage == "merge" || stage == "render" || stage == "sync_wait";
}

// The spans of a trace's serving steps -- route, plan, detect, merge,
// render and sync_wait -- in the order they were emitted. A line reads
// {"ts_ns":1,"stage":"detect","dur_ns":2,"seq":3,...}.
std::vector<StepSpan> StepSpans(const std::string& text) {
  std::vector<StepSpan> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    StepSpan span;
    std::istringstream pairs(line.substr(1, line.size() - 2));
    for (std::string pair; std::getline(pairs, pair, ',');) {
      const size_t colon = pair.find(':');
      const std::string key = pair.substr(1, colon - 2);
      const std::string value = pair.substr(colon + 1);
      if (key == "stage") {
        span.stage = value.substr(1, value.size() - 2);
      } else {
        span.fields[key] = std::stoull(value);
      }
    }
    if (IsStepStage(span.stage)) out.push_back(std::move(span));
  }
  return out;
}

// Both backends run one step and trace it in one shape: per seq, a
// `route` holding `plan`, one `detect` per share (fragment 0 alone on a
// single store) whose anchors sum to the route's, a `merge` holding
// `render`, then the `sync_wait` for the record's fsync.
TEST(ServingStep, BothBackendsTraceOneShape) {
  auto g = MakeSynthetic({.nodes = 200,
                          .edges = 600,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 15,
                          .value_correlation = 0.9,
                          .seed = 23});
  ViolationEngine engine(GenerateGfdSet(g, {.count = 12, .k = 3, .seed = 9}));
  ASSERT_LE(engine.MaxPatternRadius(), 3u);
  Rng rng(11);
  const std::string batch = DeltaBytes(g, RandomBatch(g, rng, 40));

  std::string single_dir = Scratch("trace_shape_single");
  std::string coord_dir = Scratch("trace_shape_coord");
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  ASSERT_TRUE(Coordinator::Init(coord_dir, g, 2, /*halo_radius=*/3));
  auto single = GraphStore::Open(single_dir);
  auto coord = Coordinator::Open(coord_dir);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(coord.has_value());

  std::vector<IncrementalDiff> diffs;
  GraphStore* const backends[] = {&*single, &*coord};
  for (size_t shares = 1; shares <= 2; ++shares) {
    SCOPED_TRACE(std::to_string(shares) + " share(s)");
    GraphStore& store = *backends[shares - 1];
    std::optional<IncrementalDiff> diff;
    uint64_t seq = 0;
    std::string error;
    std::string text;
    {
      ScopedTestTrace trace("trace_shape_" + std::to_string(shares));
      diff = store.AppendAndDiff(engine, batch, {}, &seq, &error);
      text = trace.Text();
    }
    ASSERT_TRUE(diff.has_value()) << error;
    const std::vector<StepSpan> spans = StepSpans(text);
    std::vector<std::string> stages;
    for (const StepSpan& span : spans) stages.push_back(span.stage);
    std::vector<std::string> want = {"plan", "route"};
    want.insert(want.end(), shares, "detect");
    want.insert(want.end(), {"render", "merge", "sync_wait"});
    ASSERT_EQ(stages, want);
    for (const StepSpan& span : spans) {
      EXPECT_EQ(span.fields.at("seq"), seq) << span.stage;
      EXPECT_TRUE(span.fields.contains("dur_ns")) << span.stage;
    }

    const StepSpan& plan = spans[0];
    const StepSpan& route = spans[1];
    const StepSpan& render = spans[2 + shares];
    const StepSpan& merge = spans[3 + shares];
    EXPECT_LE(plan.fields.at("dur_ns"), route.fields.at("dur_ns"));
    EXPECT_LE(render.fields.at("dur_ns"), merge.fields.at("dur_ns"));
    EXPECT_TRUE(plan.fields.contains("write_units"));
    EXPECT_TRUE(plan.fields.contains("edge_units"));
    const uint64_t anchors = route.fields.at("anchors");
    EXPECT_GT(anchors, 0u);

    uint64_t seeded = 0;
    uint64_t matches = 0;
    for (size_t f = 0; f < shares; ++f) {
      const std::map<std::string, uint64_t>& detect = spans[2 + f].fields;
      EXPECT_EQ(detect.at("fragment"), f);
      EXPECT_TRUE(detect.contains("write_units"));
      EXPECT_TRUE(detect.contains("edge_units"));
      EXPECT_EQ(detect.at("anchors"), store.stats().seeds[f]);
      seeded += detect.at("anchors");
      matches += detect.at("matches");
    }
    EXPECT_EQ(seeded, anchors);
    EXPECT_EQ(matches, diff->stats.matches_seen);
    EXPECT_GT(matches, 0u);
    diffs.push_back(std::move(*diff));
  }
  EXPECT_EQ(diffs[0].added, diffs[1].added);
  EXPECT_EQ(diffs[0].removed, diffs[1].removed);
  EXPECT_EQ(diffs[0].payload, diffs[1].payload);
}

TEST(Coordinator, PartitionedFootprintIsReplicationTimesGNotNTimesG) {
  // Sparse graph + tight halo: the regime partitioned storage exists
  // for. Whole-graph replication would store fragments x |E| edges; the
  // masks span a small multiple of |E|, and the process stores |E| once.
  auto g = MakeSynthetic({.nodes = 600, .edges = 900, .seed = 11});
  const size_t fragments = 8;
  std::string dir = Scratch("coord_footprint");
  ASSERT_TRUE(Coordinator::Init(dir, g, fragments, /*halo_radius=*/1));
  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  const FragmentResidency residency = coord->residency();
  uint64_t sum = 0;
  for (size_t f = 0; f < fragments; ++f) {
    const uint64_t resident = ResidentEdges(coord->view(), residency[f]);
    // What a fragment holding its mask would store.
    EXPECT_EQ(resident, ExtractSubgraph(g, residency[f]).NumEdges())
        << "fragment " << f;
    sum += resident;
  }
  // Every edge is stored at least once (storage completeness)...
  EXPECT_GE(sum, g.NumEdges());
  // ...and the total is a small replication multiple of |G|, far below
  // the N x |G| of whole-graph replication.
  EXPECT_LT(sum, fragments * g.NumEdges() / 2);
}

// --- The oracle property suite ---------------------------------------------
//
// Coordinator::AppendAndDiff over vertex-cut partitioned fragments must
// equal single-node AppendAndDiff over one unfragmented store, batch for
// batch, byte for byte -- across seeds, graph scales, fragment counts
// {1,2,4,8}, and stream shapes (a repeated batch, a delete-heavy batch,
// and -- for multi-fragment runs -- a mid-stream ownership rebalance ride
// in every stream). Both backends are driven through the ServingStore
// interface, the way gfdtool drives them.
class CoordinatorOracle : public ::testing::TestWithParam<int> {};

TEST_P(CoordinatorOracle, MergedDiffEqualsSingleNodeIncremental) {
  const int seed = GetParam();
  const size_t fragments = size_t{1} << (seed % 4);  // 1, 2, 4, 8
  Rng rng(seed * 7919 + 13);
  auto g = MakeSynthetic({.nodes = 120 + static_cast<size_t>(seed) * 9,
                          .edges = 350 + static_cast<size_t>(seed) * 13,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 15,
                          .value_correlation = 0.9,
                          .seed = static_cast<uint64_t>(seed) + 500});
  auto rules = GenerateGfdSet(
      g, {.count = 10, .k = 3, .redundancy = 0.4,
          .seed = static_cast<uint64_t>(seed) + 31});
  ViolationEngine engine(rules);

  std::string coord_dir = Scratch("coord_oracle_" + std::to_string(seed));
  std::string single_dir = Scratch("coord_oracle_ref_" + std::to_string(seed));
  ASSERT_TRUE(Coordinator::Init(coord_dir, g, fragments));
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  auto coord = Coordinator::Open(coord_dir);
  auto single = GraphStore::Open(single_dir);
  ASSERT_TRUE(coord.has_value());
  ASSERT_TRUE(single.has_value());
  ServingStore& dist = *coord;
  ServingStore& ref = *single;

  // 4 batches: random, repeated (delete-free, so it re-validates),
  // delete-heavy, random -- in one sequenced stream.
  std::vector<std::string> payloads;
  {
    PropertyGraph current = g;
    GraphDelta b0 = RandomBatch(current, rng, 8 + rng.Below(10));
    payloads.push_back(DeltaBytes(current, b0));
    current = GraphView::Apply(current, b0)->Materialize();
    GraphDelta b1 = RandomBatch(current, rng, 6, /*delete_bias=*/0.0);
    payloads.push_back(DeltaBytes(current, b1));
    payloads.push_back(payloads.back());  // repeated batch
    // Two applications of b1 later; deletes against that state.
    current = GraphView::Apply(current, b1)->Materialize();
    current = GraphView::Apply(current, b1)->Materialize();
    GraphDelta b2 = RandomBatch(current, rng, 8 + rng.Below(8),
                                /*delete_bias=*/0.55);
    payloads.push_back(DeltaBytes(current, b2));
  }

  for (size_t b = 0; b < payloads.size(); ++b) {
    // Every fragment's seeds run inside its masks, and the coordinator
    // seeds each fragment as planned.
    const PropertyGraph pre = coord->MaterializeCurrent();
    const auto batch = LiveGraph(pre).Parse(payloads[b]);
    ASSERT_TRUE(batch.has_value());
    const std::vector<std::vector<NodeId>> planned =
        ExpectSeedsRunInsideTheirFragments(pre, coord->partition(), engine,
                                           *batch);
    const std::vector<uint64_t> seeded = coord->stats().seeds;

    std::string cerror, serror;
    uint64_t cseq = 0, sseq = 0;
    auto merged = dist.AppendAndDiff(engine, payloads[b], {}, &cseq, &cerror);
    auto refd = ref.AppendAndDiff(engine, payloads[b], {}, &sseq, &serror);
    ASSERT_TRUE(merged.has_value())
        << "seed " << seed << " batch " << b << ": " << cerror;
    ASSERT_TRUE(refd.has_value())
        << "seed " << seed << " batch " << b << ": " << serror;
    EXPECT_EQ(cseq, sseq);
    EXPECT_EQ(merged->added, refd->added)
        << "seed " << seed << " batch " << b << " (" << fragments
        << " fragments)";
    EXPECT_EQ(merged->removed, refd->removed)
        << "seed " << seed << " batch " << b << " (" << fragments
        << " fragments)";
    for (size_t f = 0; f < fragments; ++f) {
      EXPECT_EQ(coord->stats().seeds[f] - seeded[f], planned[f].size())
          << "seed " << seed << " batch " << b << " fragment " << f;
    }

    // Mid-stream rebalance: move ownership of one node to the last
    // fragment. The graph is unchanged, so the reference consumes the
    // same sequence number with an empty batch. Neither side compacts,
    // so both materialize their edges in one order.
    if (b == 1 && fragments > 1) {
      std::span<const uint32_t> owner = coord->node_owner();
      uint32_t target = static_cast<uint32_t>(fragments - 1);
      NodeId node = 0;
      while (node < owner.size() && owner[node] == target) ++node;
      ASSERT_LT(node, owner.size());
      std::string rerror;
      auto rseq = coord->Rebalance(node, target, &rerror);
      ASSERT_TRUE(rseq.has_value()) << "seed " << seed << ": " << rerror;
      EXPECT_EQ(coord->node_owner()[node], target);
      ASSERT_TRUE(ref.Append("").has_value());
      ExpectResidencyCurrent(*coord);
    }
  }
  EXPECT_EQ(GraphBytes(coord->MaterializeCurrent()),
            GraphBytes(single->MaterializeCurrent()));
  ExpectResidencyCurrent(*coord);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordinatorOracle, ::testing::Range(0, 25));

// --- Restart and crash recovery --------------------------------------------

TEST(Coordinator, RestartReplaysEveryFragmentToTheSameGlobalState) {
  auto g = MakeSynthetic({.nodes = 80, .edges = 240, .seed = 3});
  auto rules = GenerateGfdSet(g, {.count = 8, .k = 3, .seed = 17});
  ViolationEngine engine(rules);
  std::string dir = Scratch("coord_restart");
  ASSERT_TRUE(Coordinator::Init(dir, g, 4));
  std::string expect;
  Rng rng(23);
  {
    auto coord = Coordinator::Open(dir);
    ASSERT_TRUE(coord.has_value());
    for (int b = 0; b < 3; ++b) {
      PropertyGraph current = coord->MaterializeCurrent();
      GraphDelta d = RandomBatch(current, rng, 12);
      auto diff = coord->AppendAndDiff(engine, DeltaBytes(current, d));
      ASSERT_TRUE(diff.has_value());
    }
    expect = GraphBytes(coord->MaterializeCurrent());
  }
  auto reopened = Coordinator::Open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->last_seq(), 3u);
  EXPECT_EQ(reopened->MetricsSnapshot().replayed_batches, 3u);
  EXPECT_EQ(GraphBytes(reopened->MaterializeCurrent()), expect);
  ExpectResidencyCurrent(*reopened);
}

// A rejected batch names its failing op from the batch's first op, so
// both backends answer one bad batch with one text, whatever overlay
// each holds: "op 1", not the op's place in the overlay.
TEST(Coordinator, RejectsABadBatchWithTheSingleStoresText) {
  auto g = MakeSynthetic({.nodes = 40, .edges = 120, .seed = 21});
  std::string dir = Scratch("coord_op_text");
  std::string single_dir = Scratch("coord_op_text_single");
  ASSERT_TRUE(Coordinator::Init(dir, g, 2));
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  auto coord = Coordinator::Open(dir);
  auto single = GraphStore::Open(single_dir);
  ASSERT_TRUE(coord.has_value());
  ASSERT_TRUE(single.has_value());
  std::string good = "A\t" + g.NodeAlias(0) + "\tkey=one\n";
  good += "A\t" + g.NodeAlias(1) + "\tkey=two\n";
  good += "E+\t" + g.NodeAlias(2) + "\t" + g.NodeAlias(3) + "\tfresh_label\n";
  ASSERT_TRUE(coord->Append(good).has_value());
  ASSERT_TRUE(single->Append(good).has_value());
  std::string bad = "E-\t" + g.NodeAlias(4) + "\t" + g.NodeAlias(5);
  bad += "\tnever_an_edge\n";
  std::string coord_error, single_error;
  EXPECT_FALSE(coord->Append(bad, &coord_error).has_value());
  EXPECT_FALSE(single->Append(bad, &single_error).has_value());
  EXPECT_EQ(coord_error, single_error);
  EXPECT_EQ(coord_error.rfind("op 1: delete of missing edge", 0), 0u)
      << coord_error;
}

// The coordinator's durable state is one GraphStore plus the owner
// table: after a stream with a compaction and a rebalance, the directory
// holds coordinator.meta and the master's store.meta, deltas.log and one
// snapshot, and each log record is the global batch as sent (an empty
// one for the rebalance). The meta holds the partition alone: setting
// the running count rewrites store.meta, not the owner table.
TEST(Coordinator, DurableStateIsTheMasterStoreAndTheOwnerTable) {
  auto g = MakeSynthetic({.nodes = 60, .edges = 180, .seed = 13});
  std::string dir = Scratch("coord_layout");
  ASSERT_TRUE(Coordinator::Init(dir, g, 3));
  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  Rng rng(59);
  auto append = [&] {
    PropertyGraph current = coord->MaterializeCurrent();
    std::string batch = DeltaBytes(current, RandomBatch(current, rng, 10));
    EXPECT_TRUE(coord->Append(batch).has_value());
    return batch;
  };
  append();
  append();
  ASSERT_TRUE(coord->Compact());
  const NodeId moved = 0;
  ASSERT_TRUE(coord->Rebalance(moved, (coord->node_owner()[moved] + 1) % 3));
  std::vector<std::string> sent{""};
  sent.push_back(append());
  sent.push_back(append());

  std::set<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    files.insert(fs::relative(entry.path(), dir).string());
  }
  const std::set<std::string> want{"coordinator.meta", "deltas.log",
                                   "snapshot-2.tsv", "store.meta"};
  EXPECT_EQ(files, want);
  auto log = DeltaLog::Open(dir + "/deltas.log", 1);
  ASSERT_TRUE(log.has_value());
  const auto records = log->ReadRecords();
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ((*records)[i].seq, 3 + i);
    EXPECT_EQ((*records)[i].payload, sent[i]) << "seq " << 3 + i;
  }

  const std::string meta = FileBytes(dir + "/coordinator.meta");
  ASSERT_TRUE(coord->SetViolationCount(7, 0xfeedu));
  EXPECT_EQ(FileBytes(dir + "/coordinator.meta"), meta);
  EXPECT_EQ(meta.find("violations"), std::string::npos);
  EXPECT_NE(FileBytes(dir + "/store.meta").find("violations 7 5 "),
            std::string::npos);
}

// --- Directories older builds wrote -----------------------------------------

// tests/data (README.md there) holds a directory in each older layout:
// coordinator_with_fragment_stores (frag-<f>/ stores, journal records
// with per-fragment frames, an owners_seq line) and
// coordinator_with_global_journal (routing.log and one global snapshot).
// Each opens at the seq and graph its build reached, under the meta's
// owner table, with the meta's count carried; afterwards the directory
// holds only the current layout, and it serves the next batch as a
// single store over the same graph does, across a reopen.
TEST(Coordinator, ConvertsOlderLayoutsOnce) {
  for (const char* name : testing::kOlderLayouts) {
    SCOPED_TRACE(name);
    const std::string fixture = std::string(GFD_TEST_DATA_DIR) + "/" + name;
    std::string gerr;
    auto want = LoadGraphTsvFile(fixture + ".graph.tsv", &gerr);
    ASSERT_TRUE(want.has_value()) << gerr;
    auto rules = GenerateGfdSet(*want, {.count = 8, .k = 3, .seed = 61});
    ViolationEngine engine(rules);
    ASSERT_LE(engine.MaxPatternRadius(), 2u);  // the fixtures' halo radius
    Rng rng(67);
    const std::string batch = DeltaBytes(*want, RandomBatch(*want, rng, 12));
    std::string single_dir = Scratch("coord_fixture_single");
    ASSERT_TRUE(GraphStore::Init(single_dir, *want));
    auto single = GraphStore::Open(single_dir);
    ASSERT_TRUE(single.has_value());
    auto expect = single->AppendAndDiff(engine, batch);
    ASSERT_TRUE(expect.has_value());
    const std::string want_after = GraphBytes(single->MaterializeCurrent());

    const auto [owners, count] =
        testing::ReadOlderMeta(fixture + "/coordinator.meta");
    ASSERT_EQ(owners.size(), want->NumNodes());
    ASSERT_TRUE(count.has_value());
    ASSERT_EQ(count->seq, 5u);

    const std::string dir = Scratch("coord_fixture");
    fs::copy(fixture, dir, fs::copy_options::recursive);
    std::string error;
    auto coord = Coordinator::Open(dir, {}, &error);
    ASSERT_TRUE(coord.has_value()) << error;
    EXPECT_EQ(coord->last_seq(), 5u);
    EXPECT_EQ(GraphBytes(coord->MaterializeCurrent()), GraphBytes(*want));
    EXPECT_TRUE(std::ranges::equal(coord->node_owner(), owners));
    ExpectResidencyCurrent(*coord);
    EXPECT_EQ(coord->violation_count(count->fingerprint), count->count);

    std::set<std::string> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      files.insert(fs::relative(entry.path(), dir).string());
    }
    const std::set<std::string> layout{"coordinator.meta", "deltas.log",
                                       "snapshot-5.tsv", "store.meta"};
    EXPECT_EQ(files, layout);
    const std::string meta = FileBytes(dir + "/coordinator.meta");
    EXPECT_EQ(meta.find("violations"), std::string::npos) << meta;
    EXPECT_EQ(meta.find("owners_seq"), std::string::npos) << meta;

    uint64_t seq = 0;
    auto merged = coord->AppendAndDiff(engine, batch, {}, &seq, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(seq, 6u);
    EXPECT_EQ(merged->added, expect->added);
    EXPECT_EQ(merged->removed, expect->removed);
    EXPECT_EQ(merged->payload, expect->payload);

    coord.reset();
    auto reopened = Coordinator::Open(dir, {}, &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    EXPECT_EQ(reopened->last_seq(), 6u);
    EXPECT_EQ(GraphBytes(reopened->MaterializeCurrent()), want_after);
    ExpectResidencyCurrent(*reopened);
  }
}

// --- Halo-radius guard -----------------------------------------------------

TEST(Coordinator, RejectsRulesWiderThanTheHaloRadius) {
  auto g = MakeSynthetic({.nodes = 60,
                          .edges = 180,
                          .value_correlation = 0.9,
                          .seed = 14});
  auto rules = GenerateGfdSet(g, {.count = 10, .k = 4, .seed = 33});
  ViolationEngine engine(rules);
  if (engine.MaxPatternRadius() <= 1) {
    GTEST_SKIP() << "generated patterns too narrow to exercise the guard";
  }
  std::string dir = Scratch("coord_radius_guard");
  ASSERT_TRUE(Coordinator::Init(dir, g, 2, /*halo_radius=*/1));
  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  std::string error;
  EXPECT_FALSE(coord->AppendAndDiff(engine, "", {}, nullptr, &error));
  EXPECT_NE(error.find("halo radius"), std::string::npos);
  // Plain appends (no detection) are still fine at any radius >= 1.
  EXPECT_TRUE(coord->Append("").has_value());
}

// --- Running violation count on the coordinator ----------------------------

TEST(Coordinator, ViolationCountPersistsAndInvalidates) {
  auto g = MakeSynthetic({.nodes = 60,
                          .edges = 180,
                          .value_correlation = 0.9,
                          .seed = 9});
  auto rules = GenerateGfdSet(g, {.count = 8, .k = 3, .seed = 29});
  ViolationEngine engine(rules);
  const uint64_t fp = 0xfeedu;

  std::string dir = Scratch("coord_count");
  ASSERT_TRUE(Coordinator::Init(dir, g, 2));
  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  EXPECT_FALSE(coord->violation_count(fp).has_value());

  uint64_t count = engine.Detect(coord->MaterializeCurrent()).violations.size();
  ASSERT_TRUE(coord->SetViolationCount(count, fp));
  EXPECT_EQ(coord->violation_count(fp), count);
  EXPECT_FALSE(coord->violation_count(fp + 1).has_value());  // wrong rules

  Rng rng(43);
  PropertyGraph current = coord->MaterializeCurrent();
  GraphDelta d = RandomBatch(current, rng, 10);
  auto diff = coord->AppendAndDiff(engine, DeltaBytes(current, d));
  ASSERT_TRUE(diff.has_value());
  EXPECT_FALSE(coord->violation_count(fp).has_value());  // outdated
  count = count + diff->added.size() - diff->removed.size();
  ASSERT_TRUE(coord->SetViolationCount(count, fp));

  auto reopened = Coordinator::Open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->violation_count(fp), count);
  EXPECT_EQ(
      engine.Detect(reopened->MaterializeCurrent()).violations.size(), count);
}

// Metas written by older builds carry advisory `border <f> <node> ...`
// lines. The coordinator no longer writes them, but must still open such
// a meta and serve from it exactly as a single store does.
TEST(Coordinator, OpensAMetaWithLegacyBorderLines) {
  auto g = MakeSynthetic({.nodes = 60,
                          .edges = 180,
                          .value_correlation = 0.9,
                          .seed = 12});
  auto rules = GenerateGfdSet(g, {.count = 8, .k = 3, .seed = 31});
  ViolationEngine engine(rules);
  std::string dir = Scratch("coord_legacy_border");
  std::string single_dir = Scratch("coord_legacy_border_single");
  ASSERT_TRUE(Coordinator::Init(dir, g, 2));
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  const std::string meta = dir + "/coordinator.meta";
  EXPECT_EQ(FileBytes(meta).find("border"), std::string::npos);
  {
    std::ofstream out(meta, std::ios::app);
    out << "border 0 1 2 3\nborder 1 4 5\n";
  }

  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  auto single = GraphStore::Open(single_dir);
  ASSERT_TRUE(single.has_value());
  Rng rng(47);
  GraphDelta d = RandomBatch(g, rng, 16);
  auto merged = coord->AppendAndDiff(engine, DeltaBytes(g, d));
  auto expect = single->AppendAndDiff(engine, DeltaBytes(g, d));
  ASSERT_TRUE(merged.has_value());
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(merged->added, expect->added);
  EXPECT_EQ(merged->removed, expect->removed);
  EXPECT_EQ(merged->payload, expect->payload);
  EXPECT_EQ(GraphBytes(coord->MaterializeCurrent()),
            GraphBytes(single->MaterializeCurrent()));
}

}  // namespace
}  // namespace gfd
