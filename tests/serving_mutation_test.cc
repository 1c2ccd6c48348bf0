// Seeded-mutation test of batch intake on both serving backends. Valid
// batches are mutated -- byte flips, truncation, swapped or unknown node
// and label names, deletes of missing edges, new vocabulary -- and fed
// to a GraphStore and to a 2-fragment Coordinator over the same graph.
// Both run the delta TSV parser (graph/loader.h) and the live graph's
// validate-and-absorb (graph/live_graph.h), so they must agree on every
// batch:
//   - the same accept/reject decision;
//   - an accepted batch gets the same seq on both and leaves
//     canonical-equal graphs, with every fragment equal to the resident
//     subgraph of the coordinator's global graph;
//   - a rejected batch gets the same error text from both, and leaves
//     last_seq, the graph and every file of both directories unchanged;
//   - a reopen recovers the same state.
// Deterministic: one seed, no threads beyond the coordinator's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/synthetic.h"
#include "graph/subgraph.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "testlib.h"
#include "util/rng.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;

constexpr size_t kBatches = 1000;
constexpr size_t kReopenEvery = 125;

// Every file under `dir`, by relative path.
std::map<std::string, std::string> Files(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out[fs::relative(entry.path(), dir).string()] = std::move(bytes).str();
  }
  return out;
}

// The live graph as numbers: every node's out-edges (dst, label) in list
// order, then its attributes. Equal views materialize equal graphs, and
// reading one costs no materialization.
std::vector<uint64_t> ViewState(const GraphView& v) {
  std::vector<uint64_t> out{v.NumEdges()};
  for (NodeId n = 0; n < v.NumNodes(); ++n) {
    for (EdgeId e : v.OutEdges(n)) {
      out.push_back(uint64_t{v.EdgeDst(e)} << 32 | v.EdgeLabel(e));
    }
    for (const Attribute& a : v.NodeAttrs(n)) {
      out.push_back(uint64_t{a.key} << 32 | a.value);
    }
    out.push_back(UINT64_MAX);
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (true) {
    const auto end = s.find(sep, start);
    out.push_back(s.substr(start, end - start));
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

// Applies one random mutation to `batch` (a valid delta TSV over `g`).
std::string Mutate(const std::string& batch, const PropertyGraph& g,
                   Rng& rng) {
  auto any_node = [&] {
    return g.NodeAlias(static_cast<NodeId>(rng.Below(g.NumNodes())));
  };
  std::vector<std::string> lines = Split(batch, '\n');
  if (lines.back().empty()) lines.pop_back();
  if (lines.empty()) lines.push_back("A\t" + any_node() + "\tkey=value");
  auto any_line = [&]() -> std::string& {
    return lines[rng.Below(lines.size())];
  };
  auto edit_fields = [&](auto edit) {
    std::string& line = any_line();
    std::vector<std::string> fields = Split(line, '\t');
    edit(fields);
    line = Join(fields, '\t');
  };
  switch (rng.Below(9)) {
    case 0: {  // flip one byte
      std::string out = batch;
      if (!out.empty()) {
        out[rng.Below(out.size())] ^= static_cast<char>(1 + rng.Below(255));
      }
      return out;
    }
    case 1:  // cut the batch anywhere, mid-line included
      return batch.substr(0, rng.Below(batch.size() + 1));
    case 2:  // swap an edge op's endpoints
      edit_fields([](std::vector<std::string>& f) {
        if (f.size() >= 3 && f[0][0] == 'E') std::swap(f[1], f[2]);
      });
      break;
    case 3:  // a node nobody has heard of
      edit_fields([&](std::vector<std::string>& f) {
        if (f.size() >= 2) f[1] = "ghost_" + std::to_string(rng.Below(5));
      });
      break;
    case 4:  // another existing label, or a new one
      edit_fields([&](std::vector<std::string>& f) {
        if (f.size() < 4 || f[0][0] != 'E') return;
        f[3] = rng.Chance(0.5)
                   ? g.LabelName(static_cast<LabelId>(
                         1 + rng.Below(g.labels().size() - 1)))
                   : "fresh_label_" + std::to_string(rng.Below(3));
      });
      break;
    case 5: {  // delete an edge twice, or one that was never there
      const std::string& line = any_line();
      if (line.starts_with("E-") && rng.Chance(0.5)) {
        lines.push_back(line);
      } else {
        lines.push_back("E-\t" + any_node() + "\t" + any_node() +
                        "\tnever_an_edge");
      }
      break;
    }
    case 6:  // new vocabulary: a key, value and label never seen
      lines.push_back("A\t" + any_node() + "\tfresh_key_" +
                      std::to_string(rng.Below(3)) + "=fresh_value");
      lines.push_back("E+\t" + any_node() + "\t" + any_node() +
                      "\tfresh_label_" + std::to_string(rng.Below(3)));
      break;
    case 7:  // a vocabulary preamble line, possibly malformed
      lines.insert(lines.begin(),
                   rng.Chance(0.5) ? "L\tdeclared_label" : "K");
      break;
    default:  // drop or duplicate a line
      if (rng.Chance(0.5)) {
        lines.erase(lines.begin() + rng.Below(lines.size()));
      } else {
        lines.push_back(any_line());
      }
      break;
  }
  return Join(lines, '\n') + "\n";
}

// Every fragment holds exactly the resident subgraph of the global graph.
void ExpectFragmentsResident(const Coordinator& coord) {
  const PropertyGraph current = coord.MaterializeCurrent();
  for (size_t f = 0; f < coord.num_fragments(); ++f) {
    const PropertyGraph want = ExtractSubgraph(current, coord.residency()[f]);
    std::multiset<std::tuple<NodeId, NodeId, LabelId>> want_keys, have_keys;
    for (EdgeId e = 0; e < want.NumEdges(); ++e) {
      want_keys.insert({want.EdgeSrc(e), want.EdgeDst(e), want.EdgeLabel(e)});
    }
    const PropertyGraph have = coord.fragment(f).view().Materialize();
    for (EdgeId e = 0; e < have.NumEdges(); ++e) {
      have_keys.insert({have.EdgeSrc(e), have.EdgeDst(e), have.EdgeLabel(e)});
    }
    EXPECT_EQ(have_keys, want_keys) << "fragment " << f;
  }
}

TEST(ServingMutation, BothBackendsAgreeOnEveryMutatedBatch) {
  const PropertyGraph g = MakeSynthetic({.nodes = 40,
                                         .edges = 120,
                                         .node_labels = 3,
                                         .edge_labels = 3,
                                         .attrs = 3,
                                         .values = 6,
                                         .seed = 31});
  const std::string single_dir = ::testing::TempDir() + "gfd_mutation_single";
  const std::string coord_dir = ::testing::TempDir() + "gfd_mutation_coord";
  fs::remove_all(single_dir);
  fs::remove_all(coord_dir);
  ASSERT_TRUE(GraphStore::Init(single_dir, g));
  ASSERT_TRUE(Coordinator::Init(coord_dir, g, /*fragments=*/2));
  std::optional<GraphStore> single = GraphStore::Open(single_dir);
  std::optional<Coordinator> coord = Coordinator::Open(coord_dir);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(coord.has_value());

  // What a rejected batch must leave untouched on both backends.
  struct Untouched {
    uint64_t single_seq = 0;
    uint64_t coord_seq = 0;
    std::vector<uint64_t> single_graph;
    std::vector<uint64_t> coord_graph;
    std::map<std::string, std::string> single_files;
    std::map<std::string, std::string> coord_files;
    bool operator==(const Untouched&) const = default;
  };
  auto capture = [&] {
    return Untouched{single->last_seq(),
                     coord->last_seq(),
                     ViewState(single->view()),
                     ViewState(coord->view()),
                     Files(single_dir),
                     Files(coord_dir)};
  };
  PropertyGraph current = single->MaterializeCurrent();
  Untouched untouched = capture();

  Rng rng(2024);
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < kBatches; ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    std::string batch = testing::DeltaBytes(
        current, testing::RandomBatch(current, rng, 1 + rng.Below(6)));
    for (size_t m = 1 + rng.Below(2); m > 0; --m) {
      batch = Mutate(batch, current, rng);
    }
    std::string single_error, coord_error;
    const auto single_seq = single->Append(batch, &single_error);
    const auto coord_seq = coord->Append(batch, &coord_error);
    ASSERT_EQ(single_seq.has_value(), coord_seq.has_value())
        << "single: " << single_error << "\ncoordinator: " << coord_error
        << "\nbatch:\n"
        << batch;
    if (single_seq) {
      ++accepted;
      ASSERT_EQ(*single_seq, *coord_seq);
      ASSERT_TRUE(single->MaybeCompact());
      ASSERT_TRUE(coord->MaybeCompact());
      current = single->MaterializeCurrent();
      ASSERT_EQ(testing::CanonicalLines(coord->MaterializeCurrent()),
                testing::CanonicalLines(current));
      untouched = capture();
    } else {
      ++rejected;
      // Both number a failing op from the batch, so they reject with
      // one text whatever each has compacted.
      ASSERT_EQ(single_error, coord_error) << "batch:\n" << batch;
      ASSERT_TRUE(capture() == untouched) << "a rejected batch left a trace";
    }
    if ((i + 1) % kReopenEvery == 0) {
      single = GraphStore::Open(single_dir);
      coord = Coordinator::Open(coord_dir);
      ASSERT_TRUE(single.has_value());
      ASSERT_TRUE(coord.has_value());
      ASSERT_EQ(single->last_seq(), untouched.single_seq);
      ASSERT_EQ(coord->last_seq(), untouched.coord_seq);
      ASSERT_EQ(testing::CanonicalLines(single->MaterializeCurrent()),
                testing::CanonicalLines(current));
      ASSERT_EQ(testing::CanonicalLines(coord->MaterializeCurrent()),
                testing::CanonicalLines(current));
      ExpectFragmentsResident(*coord);
      untouched = capture();
    }
  }
  ExpectFragmentsResident(*coord);
  // Both outcomes must be well represented for the agreement to mean
  // anything, and both backends must have compacted on the way.
  EXPECT_GE(accepted, kBatches / 5);
  EXPECT_GE(rejected, kBatches / 5);
  EXPECT_GT(single->stats().anchor_seq, 0u);
  EXPECT_GT(coord->stats().anchor_seq, 0u);
}

}  // namespace
}  // namespace gfd
