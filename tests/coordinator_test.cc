// Distributed incremental detection over true vertex-cut partitioned
// storage: the Coordinator's merged per-fragment diffs must be
// byte-identical to single-node DetectStep / AppendAndDiff on the
// unfragmented store -- on fixtures, property-style across random seeds
// x graph scales x fragment counts {1,2,4,8} x batch streams (repeated,
// delete-heavy, and mid-stream rebalanced batches included), across a
// restart, and from a directory an older build wrote with durable
// fragment stores. Both backends are driven through the ServingStore
// interface. On top of the oracle, every fragment must equal the
// resident subgraph of the global state (edges exact, resident-node
// attributes fresh), the summed footprint must be ~replication x |G|,
// not N x |G|, and the coordinator's durable state must be its meta,
// its journal and one global snapshot. Crash recovery at every durable
// write point is crash_sweep_test's.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/live_graph.h"
#include "graph/loader.h"
#include "graph/subgraph.h"
#include "obs/trace.h"
#include "parallel/fragment.h"
#include "serve/coordinator.h"
#include "serve/delta_log.h"
#include "serve/graph_store.h"
#include "serve/routing_index.h"
#include "serve/serving_store.h"
#include "testlib.h"
#include "util/rng.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;
using gfd::testing::BuildHubStar;
using gfd::testing::kLeafFollowsHub;
using gfd::testing::SameTeamRule;

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

// Edge multiset by (src, dst, label) -- node and label ids are preserved
// across fragments and the master, so keys compare directly.
std::multiset<std::tuple<NodeId, NodeId, LabelId>> EdgeKeys(
    const PropertyGraph& g) {
  std::multiset<std::tuple<NodeId, NodeId, LabelId>> keys;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    keys.insert({g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e)});
  }
  return keys;
}

std::vector<Attribute> Attrs(const PropertyGraph& g, NodeId v) {
  auto s = g.NodeAttrs(v);
  return {s.begin(), s.end()};
}

// The storage invariant of vertex-cut sharding: every fragment's current
// graph is exactly the resident subgraph of the global state (edge
// multisets equal), and attributes of resident nodes are fresh.
// Attributes of NON-resident nodes may be stale by design (they are
// refreshed when the node re-enters the halo), so they are not compared.
void ExpectFragmentsMatchResidentSubgraphs(const Coordinator& coord) {
  PropertyGraph current = coord.MaterializeCurrent();
  const FragmentResidency& res = coord.residency();
  for (size_t f = 0; f < coord.num_fragments(); ++f) {
    PropertyGraph frag = coord.fragment(f).view().Materialize();
    PropertyGraph want = ExtractSubgraph(current, res[f]);
    EXPECT_EQ(EdgeKeys(frag), EdgeKeys(want)) << "fragment " << f;
    ASSERT_EQ(frag.NumNodes(), current.NumNodes()) << "fragment " << f;
    for (NodeId v = 0; v < current.NumNodes(); ++v) {
      if (!res[f][v]) continue;
      EXPECT_EQ(Attrs(frag, v), Attrs(current, v))
          << "fragment " << f << " node " << v;
    }
  }
}

// --- Fragment-scoped step seeds ---------------------------------------------

// One step over the whole graph, seeded per owner: the owners' step
// diffs must partition the store-wide step diff, which in turn equals
// the diff of two full Detect runs.
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
  GraphDelta d = RandomBatch(g, rng, 40);
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

  for (size_t n : {1u, 2u, 4u, 8u}) {
    Fragmentation frag = VertexCutPartition(g, n);
    std::vector<Violation> added, removed;
    size_t owned_total = 0;
    for (uint32_t f = 0; f < n; ++f) {
      std::vector<NodeId> seeds;
      for (NodeId v : fp.anchors) {
        if (frag.partition.node_owner[v] == f) seeds.push_back(v);
      }
      auto part = step(seeds);
      owned_total += part.stats.affected_nodes;
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
    EXPECT_EQ(owned_total, full.stats.affected_nodes) << n << " fragments";
    EXPECT_EQ(added, full.added) << n << " fragments";
    EXPECT_EQ(removed, full.removed) << n << " fragments";
    // No duplicates slipped through the merge.
    EXPECT_TRUE(std::adjacent_find(added.begin(), added.end()) == added.end());
  }
}

TEST(RouteDelta, ShipsOpsToFragmentsWhoseResidentSetCoversThem) {
  auto g = MakeSynthetic({.nodes = 50, .edges = 150, .seed = 5});
  Fragmentation frag = VertexCutPartition(g, 4);
  frag.partition.halo_radius = 1;
  auto resident = ComputeResidency(g, frag.partition);
  GraphDelta d;
  EdgeId e = 0;
  d.InsertEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
  d.SetAttr(g.EdgeSrc(e), 0, 0);
  auto route = RouteDelta(d, resident);
  uint32_t src_owner = frag.partition.node_owner[g.EdgeSrc(e)];
  uint32_t dst_owner = frag.partition.node_owner[g.EdgeDst(e)];
  // Radius >= 1 makes both endpoints of an existing edge resident at
  // both endpoint owners, so the edge op reaches at least those two; the
  // src owner additionally receives the attribute op.
  EXPECT_GE(route.fragment_ops[src_owner].size(), 2u);
  EXPECT_TRUE(std::binary_search(route.affected_fragments.begin(),
                                 route.affected_fragments.end(), src_owner));
  EXPECT_TRUE(std::binary_search(route.affected_fragments.begin(),
                                 route.affected_fragments.end(), dst_owner));
  // Every shipped op's referenced nodes are resident at the receiver --
  // the storage-completeness contract of residency-based routing.
  for (size_t f = 0; f < resident.size(); ++f) {
    for (size_t i : route.fragment_ops[f]) {
      const GraphDelta::Op& op = d.ops[i];
      EXPECT_TRUE(resident[f][op.src]) << "fragment " << f << " op " << i;
      if (op.kind != GraphDelta::OpKind::kSetAttr) {
        EXPECT_TRUE(resident[f][op.dst]) << "fragment " << f << " op " << i;
      }
    }
  }
}

// --- Routing index plans ----------------------------------------------------

// PlanBatch absorbs its batch into the master's view; a plan rolled back
// instead of committed (its journal append failed) must leave the index
// exactly as it was, so the next batch plans as on an index that never
// saw the doomed one -- payload bytes, footprint and residency included.
TEST(RoutingIndex, RolledBackPlanLeavesTheIndexAsItWas) {
  auto g = MakeSynthetic({.nodes = 60, .edges = 180, .seed = 4});
  Fragmentation frag = VertexCutPartition(g, 3);
  frag.partition.halo_radius = 2;
  auto index = RoutingIndex::Build(LiveGraph(g), frag.partition);
  auto fresh = RoutingIndex::Build(LiveGraph(g), frag.partition);
  ASSERT_TRUE(index.has_value());
  ASSERT_TRUE(fresh.has_value());

  Rng rng(13);
  auto next_batch = [&] {
    PropertyGraph current = fresh->view().Materialize();
    return DeltaBytes(current, RandomBatch(current, rng, 12));
  };
  auto plan_both = [&](const std::string& batch) {
    auto a = index->PlanBatch(batch);
    auto b = fresh->PlanBatch(batch);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->payloads, b->payloads);
    EXPECT_EQ(a->footprint.anchors, b->footprint.anchors);
    EXPECT_EQ(a->new_resident, b->new_resident);
    index->Commit(std::move(*a));
    fresh->Commit(std::move(*b));
  };
  plan_both(next_batch());

  const std::string before = GraphBytes(index->view().Materialize());
  // New vocabulary and edge changes, absorbed by the plan...
  PropertyGraph current = index->view().Materialize();
  std::string doomed = next_batch();
  doomed += "E+\t" + current.NodeAlias(0) + "\t" + current.NodeAlias(1) +
            "\tlabel_never_seen\n";
  doomed += "A\t" + current.NodeAlias(2) + "\tkey_never_seen=value\n";
  auto plan = index->PlanBatch(doomed);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NE(GraphBytes(index->view().Materialize()), before);
  // ...and taken back out.
  index->Rollback(*plan);
  EXPECT_EQ(GraphBytes(index->view().Materialize()), before);
  EXPECT_EQ(index->view().NumDeltaOps(), fresh->view().NumDeltaOps());
  EXPECT_FALSE(index->view().FindLabel("label_never_seen").has_value());
  EXPECT_EQ(index->residency(), fresh->residency());

  // A rolled-back rebalance changes nothing either.
  NodeId moved = 5;
  uint32_t to = (index->partition().node_owner[moved] + 1) % 3;
  auto rebalance = index->PlanRebalance(moved, to);
  ASSERT_TRUE(rebalance.has_value());
  index->Rollback(*rebalance);
  EXPECT_EQ(index->partition().node_owner, fresh->partition().node_owner);

  // The next batches plan as on the index that never saw either plan.
  plan_both(next_batch());
  plan_both(next_batch());
  EXPECT_EQ(GraphBytes(index->view().Materialize()),
            GraphBytes(fresh->view().Materialize()));
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
  }
  ExpectFragmentsMatchResidentSubgraphs(*coord);
  // An invalid batch is rejected before the journal or any fragment sees
  // it.
  std::vector<std::string> before;
  for (size_t f = 0; f < coord->num_fragments(); ++f) {
    before.push_back(GraphBytes(coord->fragment(f).view().Materialize()));
  }
  std::string error;
  EXPECT_FALSE(coord->Append("E-\tno_such_node\talso_missing\tx\n", &error));
  EXPECT_EQ(coord->last_seq(), 3u);
  for (size_t f = 0; f < coord->num_fragments(); ++f) {
    EXPECT_EQ(GraphBytes(coord->fragment(f).view().Materialize()), before[f])
        << "fragment " << f;
  }
}

// Sums one numeric field over the trace's "detect" spans.
uint64_t SumDetectField(const std::string& text, const std::string& key) {
  uint64_t sum = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"stage\":\"detect\"") == std::string::npos) continue;
    const size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos) continue;
    sum += std::stoull(line.substr(at + key.size() + 3));
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

TEST(Coordinator, PartitionedFootprintIsReplicationTimesGNotNTimesG) {
  // Sparse graph + tight halo: the regime partitioned storage exists
  // for. Whole-graph replication would store fragments x |E| edges.
  auto g = MakeSynthetic({.nodes = 600, .edges = 900, .seed = 11});
  const size_t fragments = 8;
  std::string dir = Scratch("coord_footprint");
  ASSERT_TRUE(Coordinator::Init(dir, g, fragments, /*halo_radius=*/1));
  auto coord = Coordinator::Open(dir);
  ASSERT_TRUE(coord.has_value());
  uint64_t sum = 0;
  for (size_t f = 0; f < fragments; ++f) {
    uint64_t resident = coord->resident_edges(f);
    // The footprint counter equals what the fragment actually holds.
    EXPECT_EQ(resident, coord->fragment(f).view().NumEdges())
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
      ExpectFragmentsMatchResidentSubgraphs(*coord);
    }
  }
  EXPECT_EQ(GraphBytes(coord->MaterializeCurrent()),
            GraphBytes(single->MaterializeCurrent()));
  ExpectFragmentsMatchResidentSubgraphs(*coord);
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
  EXPECT_EQ(reopened->stats().replayed_batches, 3u);
  EXPECT_EQ(GraphBytes(reopened->MaterializeCurrent()), expect);
  ExpectFragmentsMatchResidentSubgraphs(*reopened);
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

// Fragments keep nothing durable: after a stream with a compaction and a
// rebalance, the directory holds the meta, the journal and one global
// snapshot, and each journal record is the global batch as sent (an
// empty one for the rebalance).
TEST(Coordinator, DurableStateIsTheMetaTheJournalAndOneSnapshot) {
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
  ASSERT_TRUE(coord->CompactAll());
  const NodeId moved = 0;
  ASSERT_TRUE(coord->Rebalance(moved, (coord->node_owner()[moved] + 1) % 3));
  std::vector<std::string> sent{""};
  sent.push_back(append());
  sent.push_back(append());

  std::set<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    files.insert(fs::relative(entry.path(), dir).string());
  }
  const std::set<std::string> want{"coordinator.meta", "routing.log",
                                   "global-snapshot-2.tsv"};
  EXPECT_EQ(files, want);
  auto journal = DeltaLog::Open(dir + "/routing.log", 1);
  ASSERT_TRUE(journal.has_value());
  ASSERT_EQ(journal->records().size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(journal->records()[i].seq, 3 + i);
    EXPECT_EQ(journal->records()[i].payload, sent[i]) << "seq " << 3 + i;
  }
}

// --- A directory an older build wrote ---------------------------------------

// tests/data/coordinator_with_fragment_stores: the layout in which every
// fragment was a durable store -- frag-<f>/ directories, journal records
// with per-fragment frames, an owners_seq line (tests/data/README.md).
// It opens at the seq and graph that build reached, lays the fragments
// out under the meta's owner table, and serves the next batch as a
// single store over the same graph does. With owners_seq bumped past the
// snapshot's anchor -- what that build read as a torn rebalance -- it
// opens the same way.
TEST(Coordinator, OpensADirectoryWithFragmentStores) {
  const std::string data = GFD_TEST_DATA_DIR;
  const std::string fixture = data + "/coordinator_with_fragment_stores";
  std::string gerr;
  auto want = LoadGraphTsvFile(fixture + ".graph.tsv", &gerr);
  ASSERT_TRUE(want.has_value()) << gerr;
  auto rules = GenerateGfdSet(*want, {.count = 8, .k = 3, .seed = 61});
  ViolationEngine engine(rules);
  ASSERT_LE(engine.MaxPatternRadius(), 2u);  // the fixture's halo radius
  Rng rng(67);
  const std::string batch = DeltaBytes(*want, RandomBatch(*want, rng, 12));
  std::string single_dir = Scratch("coord_fixture_single");
  ASSERT_TRUE(GraphStore::Init(single_dir, *want));
  auto single = GraphStore::Open(single_dir);
  ASSERT_TRUE(single.has_value());
  auto expect = single->AppendAndDiff(engine, batch);
  ASSERT_TRUE(expect.has_value());
  const std::string want_after = GraphBytes(single->MaterializeCurrent());

  const std::string meta_text = FileBytes(fixture + "/coordinator.meta");
  std::vector<uint32_t> owners;
  {
    std::istringstream lines(meta_text);
    for (std::string line; std::getline(lines, line);) {
      if (!line.starts_with("owners ")) continue;
      std::istringstream fields(line.substr(7));
      for (uint32_t o; fields >> o;) owners.push_back(o);
    }
  }
  ASSERT_EQ(owners.size(), want->NumNodes());

  for (const bool torn_mark : {false, true}) {
    SCOPED_TRACE(torn_mark ? "owners_seq past the anchor" : "as written");
    const std::string dir = Scratch("coord_fixture");
    fs::copy(fixture, dir, fs::copy_options::recursive);
    if (torn_mark) {
      std::string meta = meta_text;
      const size_t pos = meta.find("owners_seq 3\n");
      ASSERT_NE(pos, std::string::npos);
      meta.replace(pos, 12, "owners_seq 5");
      std::ofstream(dir + "/coordinator.meta", std::ios::trunc) << meta;
    }
    std::string error;
    auto coord = Coordinator::Open(dir, {}, &error);
    ASSERT_TRUE(coord.has_value()) << error;
    EXPECT_EQ(coord->last_seq(), 5u);
    EXPECT_EQ(GraphBytes(coord->MaterializeCurrent()), GraphBytes(*want));
    EXPECT_TRUE(std::ranges::equal(coord->node_owner(), owners));
    ExpectFragmentsMatchResidentSubgraphs(*coord);

    uint64_t seq = 0;
    auto merged = coord->AppendAndDiff(engine, batch, {}, &seq, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(seq, 6u);
    EXPECT_EQ(merged->added, expect->added);
    EXPECT_EQ(merged->removed, expect->removed);
    EXPECT_EQ(merged->payload, expect->payload);

    // The journal now mixes both record forms; a reopen reads both.
    coord.reset();
    auto reopened = Coordinator::Open(dir, {}, &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    EXPECT_EQ(reopened->last_seq(), 6u);
    EXPECT_EQ(GraphBytes(reopened->MaterializeCurrent()), want_after);
    ExpectFragmentsMatchResidentSubgraphs(*reopened);
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
