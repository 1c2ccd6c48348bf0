// The serving-level oracle: a batch stream served through AppendAndDiff
// must produce, batch for batch, the diff of two full Detect runs and a
// composed running count equal to a full Detect's, on both the
// single-node GraphStore and the vertex-cut Coordinator, across 25
// random seeds with a batch of a quarter of the edges, runs of small
// batches on aging overlays and a mid-stream compaction.
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

// One batch stream, served on both backends: per-batch diffs and the
// running violation count (composed as the serving loop composes it)
// must equal the reference computed from full Detect runs. Batch 1 is a
// quarter of the edge count, far larger than any serving batch.
class ServingOracle : public ::testing::TestWithParam<int> {};

TEST_P(ServingOracle, DiffsAndCountsMatchFullDetect) {
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

  // Small, a quarter of the edge count, small again; then a run of small
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

  const size_t fragments = size_t{1} << (seed % 3);  // 1, 2, 4
  const std::string tag = std::to_string(seed);
  std::string single_dir = Scratch("serving_oracle_single_" + tag);
  std::string coord_dir = Scratch("serving_oracle_coord_" + tag);
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  ASSERT_TRUE(Coordinator::Init(coord_dir, g, fragments));
  auto single = GraphStore::Open(single_dir);
  auto coord = Coordinator::Open(coord_dir);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(coord.has_value());

  ServingStore* backends[] = {&*single, &*coord};
  for (ServingStore* backend : backends) {
    uint64_t count = count_seed;
    for (size_t b = 0; b < payloads.size(); ++b) {
      std::string error;
      auto diff =
          backend->AppendAndDiff(engine, payloads[b], {}, nullptr, &error);
      ASSERT_TRUE(diff.has_value())
          << "seed " << seed << " batch " << b << ": " << error;
      EXPECT_EQ(diff->added, want_added[b])
          << "seed " << seed << " batch " << b;
      EXPECT_EQ(diff->removed, want_removed[b])
          << "seed " << seed << " batch " << b;
      count += diff->added.size() - diff->removed.size();
      EXPECT_EQ(count, want_count[b]) << "seed " << seed << " batch " << b;
      if (b == kCompactAfter) {
        ASSERT_TRUE(backend->Compact(&error)) << error;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingOracle, ::testing::Range(0, 25));

}  // namespace
}  // namespace gfd
