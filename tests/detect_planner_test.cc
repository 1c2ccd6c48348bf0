// The cost-based detect planner (detect/planner.h): unit coverage of the
// decision rule (seeded crossover, forced modes, online calibration) and
// the serving-level oracle -- a batch stream must produce byte-identical
// per-batch diffs and final violation counts whichever path the planner
// picks, on both the single-node GraphStore and the vertex-cut
// Coordinator, across 25 random seeds with a forced-flip batch that
// straddles the seeded crossover, runs of small batches on aging overlays
// and a mid-stream compaction. Also the full-path re-seed rule: a
// running violation counter must be re-seeded from full_post_count after
// a full-path batch, never composed -- the full run is authoritative and
// re-seeding repairs any drift a composed counter would persist.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "detect/planner.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "serve/serving_store.h"
#include "util/rng.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;

std::string Scratch(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gfd_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string DeltaBytes(const PropertyGraph& base, const GraphDelta& d) {
  std::ostringstream os;
  SaveGraphDeltaTsv(base, d, os);
  return std::move(os).str();
}

// Random update batch over the *current* state `g` (same shape as the
// coordinator oracle's): inserts with label-plausible endpoints, deletes
// of existing edges, attribute sets. Each batch ends with the shapes the
// one-endpoint anchoring of edge ops must get right: an attribute set on
// the higher-degree endpoint of an edge op (the endpoint the op does not
// anchor), a delete and re-insert of one edge, and a duplicate insert of
// an existing edge followed by a delete of one copy.
GraphDelta RandomBatch(const PropertyGraph& g, Rng& rng, size_t ops,
                       double delete_bias = 0.3) {
  GraphDelta d;
  std::vector<bool> gone(g.NumEdges(), false);
  auto random_node = [&] {
    return static_cast<NodeId>(rng.Below(g.NumNodes()));
  };
  auto random_edge = [&] {
    return static_cast<EdgeId>(rng.Below(g.NumEdges()));
  };
  auto set_attr = [&](NodeId v) {
    auto attrs = g.NodeAttrs(v);
    AttrId key = attrs.empty() ? d.InternAttr(g, "patched_key")
                               : attrs[rng.Below(attrs.size())].key;
    ValueId val =
        rng.Chance(0.2)
            ? d.InternValue(g, "patched_" + std::to_string(rng.Below(4)))
            : static_cast<ValueId>(rng.Below(g.values().size()));
    d.SetAttr(v, key, val);
  };
  for (size_t i = 0; i < ops; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.4 && g.NumEdges() > 0) {
      EdgeId e = random_edge();
      NodeId src = rng.Chance(0.5) ? g.EdgeSrc(e) : random_node();
      d.InsertEdge(src, random_node(), g.EdgeLabel(e));
    } else if (roll < 0.4 + delete_bias && g.NumEdges() > 0) {
      EdgeId e = random_edge();
      if (gone[e]) continue;  // at most one delete per base edge
      gone[e] = true;
      d.DeleteEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    } else {
      set_attr(random_node());
    }
  }
  if (g.NumEdges() == 0) return d;

  EdgeId e = random_edge();
  const NodeId src = g.EdgeSrc(e);
  const NodeId dst = random_node();
  d.InsertEdge(src, dst, g.EdgeLabel(e));
  const bool src_higher = g.Degree(src) != g.Degree(dst)
                              ? g.Degree(src) > g.Degree(dst)
                              : src > dst;
  set_attr(src_higher ? src : dst);
  for (bool reinsert : {true, false}) {
    e = random_edge();
    if (gone[e]) continue;
    gone[e] = true;
    if (reinsert) {
      d.DeleteEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
      d.InsertEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    } else {
      d.InsertEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
      d.DeleteEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    }
  }
  return d;
}

PlannerInputs SyntheticInputs() {
  PlannerInputs in;
  in.graph_nodes = 100;
  in.graph_edges = 1000;
  in.num_groups = 4;
  in.anchor_plans = 8;
  in.batch_ops = 5;
  return in;
}

// --- Decision rule ---------------------------------------------------------

TEST(DetectPlanner, SeededRuleCrossesAtTheConfiguredFraction) {
  DetectPlanner planner;  // adaptive, uncalibrated
  ASSERT_FALSE(planner.calibrated());
  PlannerInputs in = SyntheticInputs();
  in.batch_ops = static_cast<size_t>(kIncrementalCrossoverFraction * 1000) - 1;
  EXPECT_EQ(planner.Plan(in), DetectPath::kIncremental);
  in.batch_ops = static_cast<size_t>(kIncrementalCrossoverFraction * 1000);
  EXPECT_EQ(planner.Plan(in), DetectPath::kFull);
  EXPECT_EQ(planner.stats().incremental_decisions, 1u);
  EXPECT_EQ(planner.stats().full_decisions, 1u);
}

TEST(DetectPlanner, ForcedModesIgnoreInputsAndCalibration) {
  PlannerInputs tiny = SyntheticInputs();
  PlannerInputs huge = SyntheticInputs();
  huge.batch_ops = huge.graph_edges;  // far past any crossover

  DetectPlanner inc({.mode = PlannerConfig::Mode::kForceIncremental});
  EXPECT_EQ(inc.Plan(huge), DetectPath::kIncremental);
  inc.ObserveIncremental(huge, 1e9);  // incremental "observed" ruinously slow
  inc.ObserveFull(huge, 1e-9);
  EXPECT_EQ(inc.Plan(huge), DetectPath::kIncremental);

  DetectPlanner full({.mode = PlannerConfig::Mode::kForceFull});
  EXPECT_EQ(full.Plan(tiny), DetectPath::kFull);
}

TEST(DetectPlanner, CalibrationFlipsTheSeededDecision) {
  PlannerInputs in = SyntheticInputs();  // small batch: seeded rule says
                                         // incremental
  DetectPlanner planner;
  EXPECT_EQ(planner.Plan(in), DetectPath::kIncremental);

  // Observe the incremental path as ruinously expensive and the full path
  // as nearly free: once both units are live, the cost comparison must
  // override the seeded rule even though the batch is tiny.
  planner.ObserveIncremental(in, 10.0);
  EXPECT_FALSE(planner.calibrated());  // one-sided: still seeded
  EXPECT_EQ(planner.Plan(in), DetectPath::kIncremental);
  planner.ObserveFull(in, 1e-6);
  ASSERT_TRUE(planner.calibrated());
  EXPECT_EQ(planner.Plan(in), DetectPath::kFull);
  EXPECT_EQ(planner.stats().incremental_observations, 1u);
  EXPECT_EQ(planner.stats().full_observations, 1u);

  // And the mirror image: a huge batch stays on the incremental path
  // when the observations say incremental is the cheap one.
  PlannerInputs big = SyntheticInputs();
  big.batch_ops = big.graph_edges;
  DetectPlanner planner2;
  planner2.ObserveIncremental(big, 1e-6);
  planner2.ObserveFull(big, 10.0);
  ASSERT_TRUE(planner2.calibrated());
  EXPECT_EQ(planner2.Plan(big), DetectPath::kIncremental);
}

TEST(DetectPlanner, NonPositiveDurationsCountButDoNotCalibrate) {
  DetectPlanner planner;
  PlannerInputs in = SyntheticInputs();
  planner.ObserveIncremental(in, 0.0);
  planner.ObserveFull(in, -1.0);
  EXPECT_FALSE(planner.calibrated());
  EXPECT_EQ(planner.stats().incremental_observations, 1u);
  EXPECT_EQ(planner.stats().full_observations, 1u);
}

TEST(MakePlannerInputs, IsDeterministicAndCountsBatchOps) {
  auto g = MakeSynthetic({.nodes = 40, .edges = 120, .seed = 3});
  GraphDelta none;
  auto view = GraphView::Apply(g, none);
  ASSERT_TRUE(view.has_value());

  // Two edge ops, one attribute op, plus noise lines that must not count.
  std::string tsv =
      "E+\ta\tb\tl\n"
      "E-\tc\td\tl\n"
      "A\ta\tk\tv\n"
      "# comment\n"
      "\n";
  PlannerInputs a = MakePlannerInputs(*view, tsv, 4, 9);
  PlannerInputs b = MakePlannerInputs(*view, tsv, 4, 9);
  EXPECT_EQ(a.batch_ops, 3u);
  EXPECT_EQ(a.graph_nodes, g.NumNodes());
  EXPECT_EQ(a.graph_edges, g.NumEdges());
  EXPECT_EQ(a.num_groups, 4u);
  EXPECT_EQ(a.anchor_plans, 9u);
  // Bitwise-identical on identical serving state + batch text: this is
  // what keeps every backend's per-batch decision the same.
  EXPECT_EQ(a.batch_ops, b.batch_ops);
  EXPECT_EQ(IncrementalWork(a), IncrementalWork(b));
  EXPECT_EQ(FullWork(a), FullWork(b));

  // Work measures stay positive even on degenerate inputs, so observed
  // seconds always divide.
  PlannerInputs zero;
  EXPECT_GE(IncrementalWork(zero), 1.0);
  EXPECT_GE(FullWork(zero), 1.0);
}

// --- The serving oracle ----------------------------------------------------
//
// One batch stream, served under every planner mode on both backends:
// per-batch diffs and the running violation count (maintained by the
// re-seed rule the serving loop uses) must equal the reference computed
// from full Detect runs -- i.e. the path choice is invisible in the
// output. Batch 1 is the forced-flip batch: large enough that the seeded
// crossover sends an adaptive planner to the full path mid-stream.
class PlannerOracle : public ::testing::TestWithParam<int> {};

TEST_P(PlannerOracle, PathChoiceNeverChangesDiffsOrCounts) {
  const int seed = GetParam();
  Rng rng(seed * 6007 + 11);
  auto g = MakeSynthetic({.nodes = 90 + static_cast<size_t>(seed) * 7,
                          .edges = 270 + static_cast<size_t>(seed) * 11,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 15,
                          .value_correlation = 0.9,
                          .seed = static_cast<uint64_t>(seed) + 900});
  auto rules = GenerateGfdSet(
      g, {.count = 10, .k = 3, .redundancy = 0.4,
          .seed = static_cast<uint64_t>(seed) + 61});
  ViolationEngine engine(rules);

  // Small, the forced-flip batch (a quarter of the edge count, far past
  // the seeded crossover fraction), small again; then a run of small
  // batches that land on overlays several batches old, with a Compact()
  // after batch kCompactAfter so the rest land on a fresh snapshot.
  constexpr size_t kCompactAfter = 4;
  std::vector<std::string> payloads;
  std::vector<std::vector<Violation>> want_added, want_removed;
  std::vector<uint64_t> want_count;
  {
    PropertyGraph current = g;
    DetectionResult before = engine.Detect(current);
    const size_t sizes[] = {8 + rng.Below(8), g.NumEdges() / 4,
                            6 + rng.Below(8)};
    std::vector<size_t> stream(std::begin(sizes), std::end(sizes));
    for (size_t b = 0; b < stream.size(); ++b) {
      GraphDelta d = RandomBatch(current, rng, stream[b]);
      if (b == 2) {
        for (int i = 0; i < 5; ++i) stream.push_back(3 + rng.Below(6));
      }
      payloads.push_back(DeltaBytes(current, d));
      current = GraphView::Apply(current, d)->Materialize();
      DetectionResult after = engine.Detect(current);
      std::vector<Violation> added, removed;
      std::set_difference(after.violations.begin(), after.violations.end(),
                          before.violations.begin(), before.violations.end(),
                          std::back_inserter(added));
      std::set_difference(before.violations.begin(), before.violations.end(),
                          after.violations.begin(), after.violations.end(),
                          std::back_inserter(removed));
      want_added.push_back(std::move(added));
      want_removed.push_back(std::move(removed));
      want_count.push_back(after.violations.size());
      before = std::move(after);
    }
  }
  const uint64_t count_seed =
      static_cast<uint64_t>(engine.Detect(g).violations.size());

  const PlannerConfig::Mode kModes[] = {
      PlannerConfig::Mode::kForceIncremental,
      PlannerConfig::Mode::kForceFull,
      PlannerConfig::Mode::kAdaptive,
  };
  const size_t fragments = size_t{1} << (seed % 3);  // 1, 2, 4
  for (PlannerConfig::Mode mode : kModes) {
    const std::string tag =
        std::to_string(seed) + "_m" +
        std::to_string(static_cast<int>(mode));
    std::string single_dir = Scratch("planner_oracle_single_" + tag);
    std::string coord_dir = Scratch("planner_oracle_coord_" + tag);
    ASSERT_TRUE(GraphStore::Init(single_dir, g));
    ASSERT_TRUE(Coordinator::Init(coord_dir, g, fragments));
    auto single = GraphStore::Open(single_dir);
    auto coord = Coordinator::Open(coord_dir);
    ASSERT_TRUE(single.has_value());
    ASSERT_TRUE(coord.has_value());

    ServingStore* backends[] = {&*single, &*coord};
    for (ServingStore* backend : backends) {
      DetectPlanner planner({.mode = mode});
      IncrementalOptions iopts;
      iopts.planner = &planner;
      uint64_t count = count_seed;
      for (size_t b = 0; b < payloads.size(); ++b) {
        std::string error;
        auto diff = backend->AppendAndDiff(engine, payloads[b], iopts,
                                           nullptr, &error);
        ASSERT_TRUE(diff.has_value())
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " batch " << b << ": " << error;
        EXPECT_EQ(diff->added, want_added[b])
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " batch " << b;
        EXPECT_EQ(diff->removed, want_removed[b])
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " batch " << b;
        if (mode == PlannerConfig::Mode::kForceFull) {
          EXPECT_TRUE(diff->used_full_path);
        } else if (mode == PlannerConfig::Mode::kForceIncremental) {
          EXPECT_FALSE(diff->used_full_path);
        }
        // The serving loop's counter rule: re-seed from the
        // authoritative count after a full-path batch, compose otherwise.
        count = diff->used_full_path
                    ? diff->full_post_count
                    : count + diff->added.size() - diff->removed.size();
        EXPECT_EQ(count, want_count[b])
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " batch " << b;
        if (b == kCompactAfter) {
          ASSERT_TRUE(backend->Compact(&error)) << error;
        }
      }
      // The forced-flip batch straddles the seeded crossover, so an
      // adaptive planner must have taken the full path at least once
      // (deterministically: calibration cannot kick in before the first
      // full observation).
      if (mode == PlannerConfig::Mode::kAdaptive) {
        EXPECT_GE(planner.stats().full_decisions, 1u) << "seed " << seed;
        EXPECT_GE(planner.stats().incremental_decisions, 1u)
            << "seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerOracle, ::testing::Range(0, 25));

// --- Full-path counter re-seed ---------------------------------------------

// Regression for the serving-loop counter bug class: a running count that
// drifted (crash, bad restore, earlier composition bug) must be REPAIRED
// by the first full-path batch, because full_post_count comes from the
// authoritative post-state Detect. Composing the same diff onto the
// drifted count would persist the drift forever.
TEST(FullPathReseed, AuthoritativeCountRepairsDrift) {
  auto g = MakeSynthetic({.nodes = 80,
                          .edges = 240,
                          .value_correlation = 0.9,
                          .seed = 15});
  auto rules = GenerateGfdSet(g, {.count = 8, .k = 3, .seed = 37});
  ViolationEngine engine(rules);
  std::string dir = Scratch("planner_reseed");
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());

  Rng rng(71);
  GraphDelta d = RandomBatch(g, rng, 12);
  DetectPlanner planner({.mode = PlannerConfig::Mode::kForceFull});
  IncrementalOptions iopts;
  iopts.planner = &planner;
  auto diff = store->AppendAndDiff(engine, DeltaBytes(g, d), iopts);
  ASSERT_TRUE(diff.has_value());
  ASSERT_TRUE(diff->used_full_path);

  const uint64_t truth =
      engine.Detect(store->MaterializeCurrent()).violations.size();
  EXPECT_EQ(diff->full_post_count, truth);

  // A counter that had drifted to garbage: composition would keep the
  // garbage, the re-seed rule restores the truth.
  const uint64_t drifted = 999'999;
  uint64_t composed = drifted + diff->added.size() - diff->removed.size();
  uint64_t reseeded = diff->used_full_path
                          ? diff->full_post_count
                          : composed;
  EXPECT_NE(composed, truth);
  EXPECT_EQ(reseeded, truth);
}

}  // namespace
}  // namespace gfd
