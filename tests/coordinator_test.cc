// Serving over a vertex-cut partition of one graph: a Coordinator runs
// the single store's step behind a halo-radius check, so its diffs must
// be byte-identical to single-node AppendAndDiff on the unfragmented
// store -- on fixtures, property-style across random seeds x graph
// scales x fragment counts {1,2,4,8} x batch streams (repeated,
// delete-heavy, and mid-stream rebalanced batches included), and across
// a restart. Directories older builds wrote are refused untouched. Both
// backends are driven through the ServingStore interface and trace one
// step shape. On top of the oracle, the residency masks a
// shared-nothing deployment would store must follow the hop definition
// and sum to ~replication x |G|, not N x |G|, and the coordinator's
// durable state must be its store plus the owner table. Crash recovery
// at every durable write point is crash_sweep_test's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "graph/graph_view.h"
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

// A coordinator's residency masks are those of its current graph under
// its owner table.
void ExpectResidencyCurrent(const Coordinator& coord) {
  EXPECT_EQ(coord.residency(),
            ComputeResidency(coord.MaterializeCurrent(), coord.partition()));
}

// --- Residency ---------------------------------------------------------------

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

// The coordinator runs the single store's step: one edge into a hub from
// a degree-1 node diffs exactly like two full Detect runs and enumerates
// on the order of the hub's degree D, not the ~D^2 follower pairs a hub
// seed would, because the edge roots only the units of the pattern edges
// it can map onto. The detect span says where that work went.
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
  // No write; the edge roots one unit per pattern edge into the hub.
  EXPECT_EQ(SumDetectField(trace_text, "write_units"), 0u);
  EXPECT_EQ(SumDetectField(trace_text, "edge_units"), 2u);
  EXPECT_EQ(SumDetectField(trace_text, "matches"), diff->stats.matches_seen);
}

// One step span of a trace line: its stage and its numeric fields
// (ts_ns and dur_ns included).
struct StepSpan {
  std::string stage;
  std::map<std::string, uint64_t> fields;
};

bool IsStepStage(const std::string& stage) {
  return stage == "parse" || stage == "route" || stage == "absorb" ||
         stage == "detect" || stage == "merge" || stage == "render" ||
         stage == "sync_wait";
}

// The spans of a trace's serving steps -- parse, route, absorb, detect,
// merge, render and sync_wait -- in the order they were emitted. A line
// reads {"ts_ns":1,"stage":"detect","dur_ns":2,"seq":3,...}.
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

// Both backends run one step and trace it in one shape: per seq, the
// `parse` of the batch, a `route` (the plan), the `absorb` between the
// plan's two sides, one
// `detect` timing both sides, a `merge` holding `render`, then the
// `sync_wait` for the record's fsync -- the same stage sequence and the
// same fields on a single store and on a 2-fragment coordinator, whose
// diff is that of two full Detect runs.
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
  const GraphDelta d = RandomBatch(g, rng, 40);
  const std::string batch = DeltaBytes(g, d);

  std::string single_dir = Scratch("trace_shape_single");
  std::string coord_dir = Scratch("trace_shape_coord");
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  ASSERT_TRUE(Coordinator::Init(coord_dir, g, 2, /*halo_radius=*/3));
  auto single = GraphStore::Open(single_dir);
  auto coord = Coordinator::Open(coord_dir);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(coord.has_value());

  const std::vector<std::string> want = {"parse",  "route", "absorb",
                                         "detect", "render", "merge",
                                         "sync_wait"};
  std::vector<IncrementalDiff> diffs;
  std::vector<std::vector<std::string>> shapes;
  const std::pair<const char*, ServingStore*> backends[] = {
      {"single store", &*single}, {"2-fragment coordinator", &*coord}};
  for (const auto& [name, store] : backends) {
    SCOPED_TRACE(name);
    std::optional<IncrementalDiff> diff;
    uint64_t seq = 0;
    std::string error;
    std::string text;
    {
      ScopedTestTrace trace(std::string("trace_shape_") + name);
      diff = store->AppendAndDiff(engine, batch, {}, &seq, &error);
      text = trace.Text();
    }
    ASSERT_TRUE(diff.has_value()) << error;
    const std::vector<StepSpan> spans = StepSpans(text);
    std::vector<std::string> stages;
    for (const StepSpan& span : spans) stages.push_back(span.stage);
    ASSERT_EQ(stages, want);
    for (const StepSpan& span : spans) {
      EXPECT_EQ(span.fields.at("seq"), seq) << span.stage;
      EXPECT_TRUE(span.fields.contains("dur_ns")) << span.stage;
    }

    const StepSpan& parse = spans[0];
    const StepSpan& route = spans[1];
    const StepSpan& absorb = spans[2];
    const StepSpan& detect = spans[3];
    const StepSpan& render = spans[4];
    const StepSpan& merge = spans[5];
    EXPECT_LE(render.fields.at("dur_ns"), merge.fields.at("dur_ns"));
    EXPECT_EQ(parse.fields.at("ops"), d.ops.size());
    // The parse ends before the route starts.
    EXPECT_LE(parse.fields.at("ts_ns"),
              route.fields.at("ts_ns") - route.fields.at("dur_ns"));
    EXPECT_EQ(absorb.fields.at("ops"), d.ops.size());
    EXPECT_GT(route.fields.at("write_units") + route.fields.at("edge_units"),
              0u);
    EXPECT_EQ(detect.fields.at("write_units"), route.fields.at("write_units"));
    EXPECT_EQ(detect.fields.at("edge_units"), route.fields.at("edge_units"));
    EXPECT_FALSE(detect.fields.contains("fragment"));
    EXPECT_EQ(detect.fields.at("matches"), diff->stats.matches_seen);
    EXPECT_GT(diff->stats.matches_seen, 0u);
    shapes.push_back(std::move(stages));
    diffs.push_back(std::move(*diff));
  }
  EXPECT_EQ(shapes[0], shapes[1]);
  EXPECT_EQ(diffs[0].added, diffs[1].added);
  EXPECT_EQ(diffs[0].removed, diffs[1].removed);
  EXPECT_EQ(diffs[0].payload, diffs[1].payload);
  auto old_run = engine.Detect(g);
  auto new_run = engine.Detect(GraphView::Apply(g, d)->Materialize());
  std::vector<Violation> want_added, want_removed;
  std::set_difference(new_run.violations.begin(), new_run.violations.end(),
                      old_run.violations.begin(), old_run.violations.end(),
                      std::back_inserter(want_added));
  std::set_difference(old_run.violations.begin(), old_run.violations.end(),
                      new_run.violations.begin(), new_run.violations.end(),
                      std::back_inserter(want_removed));
  EXPECT_EQ(diffs[0].added, want_added);
  EXPECT_EQ(diffs[0].removed, want_removed);
  EXPECT_GT(diffs[0].stats.edge_units, 0u);
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
// Coordinator::AppendAndDiff over a vertex-cut partition must equal
// single-node AppendAndDiff over one unfragmented store, batch for
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
    EXPECT_EQ(merged->payload, refd->payload)
        << "seed " << seed << " batch " << b;

    // Mid-stream rebalance: move ownership of one node to the last
    // fragment. It rewrites the owner table alone, so the reference does
    // nothing and the next batch takes the next seq on both. Neither
    // side compacts, so both materialize their edges in one order.
    if (b == 1 && fragments > 1) {
      std::span<const uint32_t> owner = coord->node_owner();
      uint32_t target = static_cast<uint32_t>(fragments - 1);
      NodeId node = 0;
      while (node < owner.size() && owner[node] == target) ++node;
      ASSERT_LT(node, owner.size());
      const uint64_t seq = coord->last_seq();
      std::string rerror;
      ASSERT_TRUE(coord->Rebalance(node, target, &rerror))
          << "seed " << seed << ": " << rerror;
      EXPECT_EQ(coord->node_owner()[node], target);
      EXPECT_EQ(coord->last_seq(), seq);
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
// snapshot, and each log record is the global batch as sent (the
// rebalance writes none). The meta holds the partition alone: setting
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
  const uint32_t to = (coord->node_owner()[moved] + 1) % 3;
  ASSERT_TRUE(coord->Rebalance(moved, to));
  EXPECT_EQ(coord->last_seq(), 2u);
  std::vector<std::string> sent;
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
  EXPECT_NE(FileBytes(dir + "/store.meta").find("violations 7 4 "),
            std::string::npos);
  auto reopened = Coordinator::Open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->node_owner()[moved], to);
}

// --- Directories older builds wrote -----------------------------------------

// Older builds kept a routing.log journal beside global snapshots and
// wrote a count line into coordinator.meta. This build reads none of it:
// Open fails naming the older layout, Init refuses the directory, and
// neither changes a byte of any file in it.
TEST(Coordinator, RefusesAnOlderLayoutUntouched) {
  auto g = MakeSynthetic({.nodes = 12, .edges = 30, .seed = 8});
  const std::string dir = Scratch("coord_older_layout");
  fs::create_directories(dir);
  {
    std::ofstream meta(dir + "/coordinator.meta", std::ios::binary);
    meta << "gfd-coordinator v2\nfragments 2\nradius 2\nreplication 1.5\n"
         << "violations 3 5 4660\nowners";
    for (NodeId v = 0; v < g.NumNodes(); ++v) meta << ' ' << v % 2;
    meta << "\n";
    std::ofstream journal(dir + "/routing.log", std::ios::binary);
    journal << "R 5 3 0\nE+\n";
    std::ofstream snapshot(dir + "/global-snapshot-4.tsv", std::ios::binary);
    SaveGraphTsv(g, snapshot);
  }
  auto files = [&] {
    std::map<std::string, std::string> bytes;
    for (const auto& entry : fs::directory_iterator(dir)) {
      bytes[entry.path().filename().string()] =
          FileBytes(entry.path().string());
    }
    return bytes;
  };
  const std::map<std::string, std::string> before = files();

  std::string error;
  EXPECT_FALSE(Coordinator::Open(dir, {}, &error).has_value());
  EXPECT_NE(error.find("routing.log"), std::string::npos) << error;
  EXPECT_NE(error.find("older layout"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(Coordinator::Init(dir, g, 2, 2, &error));
  EXPECT_NE(error.find("already holds"), std::string::npos) << error;
  EXPECT_EQ(files(), before);
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

}  // namespace
}  // namespace gfd
