#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/cover.h"
#include "core/seqdis.h"
#include "cover_checks.h"
#include "datagen/gfd_gen.h"
#include "datagen/kb.h"
#include "gfd/problems.h"
#include "parallel/fragment.h"
#include "parallel/parcover.h"
#include "parallel/pardis.h"

namespace gfd {
namespace {

// Canonical sortable rendering of a GFD set for set-equality assertions.
std::multiset<std::string> Render(const std::vector<Gfd>& gfds,
                                  const PropertyGraph& g) {
  std::multiset<std::string> out;
  for (const auto& phi : gfds) out.insert(phi.ToString(g));
  return out;
}

// Each GFD rendered with its support, in discovery order.
std::vector<std::string> RenderInOrder(const std::vector<Gfd>& gfds,
                                       const std::vector<uint64_t>& supports,
                                       const PropertyGraph& g) {
  std::vector<std::string> out;
  for (size_t i = 0; i < gfds.size(); ++i) {
    out.push_back(gfds[i].ToString(g) + " @" + std::to_string(supports[i]));
  }
  return out;
}

// SeqDis and ParDis run one literal lattice, so beyond the output set they
// agree on its order, on every support, and on the lattice's counters.
void ExpectSameLatticeRun(const DiscoveryResult& par,
                          const DiscoveryResult& seq,
                          const PropertyGraph& g) {
  EXPECT_EQ(RenderInOrder(par.positives, par.positive_supports, g),
            RenderInOrder(seq.positives, seq.positive_supports, g));
  EXPECT_EQ(RenderInOrder(par.negatives, par.negative_supports, g),
            RenderInOrder(seq.negatives, seq.negative_supports, g));
  EXPECT_EQ(par.stats.candidates_generated, seq.stats.candidates_generated);
  EXPECT_EQ(par.stats.candidates_validated, seq.stats.candidates_validated);
  EXPECT_EQ(par.stats.candidates_pruned_trivial,
            seq.stats.candidates_pruned_trivial);
  EXPECT_EQ(par.stats.candidates_pruned_reduced,
            seq.stats.candidates_pruned_reduced);
  EXPECT_EQ(par.stats.positives_found, seq.stats.positives_found);
  EXPECT_EQ(par.stats.negatives_found, seq.stats.negatives_found);
  EXPECT_EQ(par.stats.budget_exceeded, seq.stats.budget_exceeded);
}

TEST(Fragmentation, EdgesPartitionedEvenly) {
  KbConfig cfg{.scale = 150, .seed = 3};
  auto g = MakeYago2Like(cfg);
  for (size_t n : {1u, 2u, 4u, 8u}) {
    auto frag = VertexCutPartition(g, n);
    ASSERT_EQ(frag.fragment_edges.size(), n);
    size_t total = 0, max_sz = 0, min_sz = SIZE_MAX;
    for (const auto& fe : frag.fragment_edges) {
      total += fe.size();
      max_sz = std::max(max_sz, fe.size());
      min_sz = std::min(min_sz, fe.size());
    }
    EXPECT_EQ(total, g.NumEdges());
    EXPECT_LE(max_sz - min_sz, g.NumEdges() / n / 4 + 2)
        << "imbalanced at n=" << n;
  }
}

TEST(Fragmentation, EveryEdgeAssignedOnce) {
  KbConfig cfg{.scale = 100, .seed = 3};
  auto g = MakeYago2Like(cfg);
  auto frag = VertexCutPartition(g, 4);
  std::vector<int> seen(g.NumEdges(), 0);
  for (size_t f = 0; f < 4; ++f) {
    for (EdgeId e : frag.fragment_edges[f]) {
      EXPECT_EQ(frag.edge_fragment[e], f);
      ++seen[e];
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Fragmentation, ReplicationBounded) {
  KbConfig cfg{.scale = 150, .seed = 3};
  auto g = MakeYago2Like(cfg);
  auto frag = VertexCutPartition(g, 8);
  EXPECT_GE(frag.partition.replication, 1.0);
  EXPECT_LE(frag.partition.replication, 8.0);
  // The greedy endpoint-affine placement should do much better than
  // random (which would approach min(degree, n)).
  EXPECT_LT(frag.partition.replication, 4.0);
}

TEST(Fragmentation, NodeOwnersValid) {
  KbConfig cfg{.scale = 100, .seed = 3};
  auto g = MakeYago2Like(cfg);
  auto frag = VertexCutPartition(g, 4);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LT(frag.partition.node_owner[v], 4u);
  }
}

TEST(Fragmentation, SingleFragmentDegenerate) {
  KbConfig cfg{.scale = 100, .seed = 3};
  auto g = MakeYago2Like(cfg);
  auto frag = VertexCutPartition(g, 1);
  EXPECT_EQ(frag.fragment_edges[0].size(), g.NumEdges());
  EXPECT_DOUBLE_EQ(frag.partition.replication, 1.0);
}

// --- ParDis == SeqDis --------------------------------------------------------

class ParDisEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(ParDisEquivalence, MatchesSequentialOutput) {
  KbConfig kcfg{.scale = 150, .seed = 3};
  auto g = MakeYago2Like(kcfg);
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 8;
  auto seq = SeqDis(g, cfg);

  ParallelRunConfig pcfg;
  pcfg.workers = GetParam();
  ClusterStats cs;
  auto par = ParDis(g, cfg, pcfg, &cs);

  EXPECT_EQ(Render(par.positives, g), Render(seq.positives, g));
  EXPECT_EQ(Render(par.negatives, g), Render(seq.negatives, g));
  // Supports must agree GFD by GFD.
  auto support_map = [&](const DiscoveryResult& r) {
    std::map<std::string, uint64_t> m;
    for (size_t i = 0; i < r.positives.size(); ++i) {
      m[r.positives[i].ToString(g)] = r.positive_supports[i];
    }
    return m;
  };
  EXPECT_EQ(support_map(par), support_map(seq));
  ExpectSameLatticeRun(par, seq, g);
  if (pcfg.workers > 1) {
    EXPECT_GT(cs.messages, 0u);
    EXPECT_GT(cs.bytes_shipped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParDisEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParDisNoBalance, MatchesSequentialOutputToo) {
  KbConfig kcfg{.scale = 120, .seed = 5};
  auto g = MakeYago2Like(kcfg);
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 8;
  auto seq = SeqDis(g, cfg);
  ParallelRunConfig pcfg;
  pcfg.workers = 4;
  pcfg.load_balance = false;
  ClusterStats cs;
  auto par = ParDis(g, cfg, pcfg, &cs);
  EXPECT_EQ(Render(par.positives, g), Render(seq.positives, g));
  EXPECT_EQ(Render(par.negatives, g), Render(seq.negatives, g));
}

// ParGFDn: without Lemma 4 pruning, literals are usable when witnessed
// at all and satisfied branches keep growing; the candidate budget then
// cuts the run at the same lattice step on every row source.
TEST(ParDisUnpruned, MatchesSequentialInOrderWithAndWithoutBudget) {
  auto g = MakeYago2Like({.scale = 60, .seed = 3});
  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  cfg.prune = false;
  for (uint64_t budget : {cfg.candidate_budget, uint64_t{20000}}) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget);
    cfg.candidate_budget = budget;
    const bool capped = budget == 20000;
    auto seq = SeqDis(g, cfg);
    EXPECT_EQ(seq.stats.budget_exceeded, capped);
    if (capped) {
      EXPECT_EQ(seq.stats.candidates_generated, 20001u);
    }
    EXPECT_FALSE(seq.positives.empty());
    EXPECT_FALSE(seq.negatives.empty());
    for (size_t workers : {1u, 3u}) {
      for (bool balance : {true, false}) {
        SCOPED_TRACE(::testing::Message() << workers << " workers, balance "
                                          << balance);
        ParallelRunConfig pcfg{.workers = workers, .load_balance = balance};
        ExpectSameLatticeRun(ParDis(g, cfg, pcfg), seq, g);
      }
    }
  }
}

// max_skew weighs each profiled pattern by its rows: one worker reads
// 1.0, pivot-aligned balancing keeps it near 1, and fragment ownership
// without balancing skews more.
TEST(ParDisSkew, MeasuresProfilingWork) {
  auto g = MakeYago2Like({.scale = 150, .seed = 3});
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 8;
  ClusterStats one, balanced, unbalanced;
  ParDis(g, cfg, {.workers = 1}, &one);
  ParDis(g, cfg, {.workers = 4, .load_balance = true}, &balanced);
  ParDis(g, cfg, {.workers = 4, .load_balance = false}, &unbalanced);
  EXPECT_DOUBLE_EQ(one.max_skew, 1.0);
  EXPECT_GE(balanced.max_skew, 1.0);
  EXPECT_LT(balanced.max_skew, 1.5);
  EXPECT_GT(unbalanced.max_skew, balanced.max_skew);
}

TEST(ParDisImdb, WorksAcrossGenerators) {
  KbConfig kcfg{.scale = 120, .seed = 9};
  auto g = MakeImdbLike(kcfg);
  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  auto seq = SeqDis(g, cfg);
  ParallelRunConfig pcfg;
  pcfg.workers = 4;
  auto par = ParDis(g, cfg, pcfg);
  EXPECT_EQ(Render(par.positives, g), Render(seq.positives, g));
  EXPECT_EQ(Render(par.negatives, g), Render(seq.negatives, g));
}

// --- ParCover ---------------------------------------------------------------

TEST(ParCoverTest, EquivalentToSeqCover) {
  KbConfig kcfg{.scale = 150, .seed = 3};
  auto g = MakeYago2Like(kcfg);
  GfdGenConfig gcfg;
  gcfg.count = 400;
  auto sigma = GenerateGfdSet(g, gcfg);
  // Identical covers, not merely equivalent ones.
  CoverStats st = testing::ExpectCoversEqualReference(sigma, g);
  EXPECT_GT(st.removed, 0u);
}

TEST(ParCoverTest, CoverIsMinimal) {
  KbConfig kcfg{.scale = 120, .seed = 7};
  auto g = MakeYago2Like(kcfg);
  GfdGenConfig gcfg;
  gcfg.count = 200;
  auto sigma = GenerateGfdSet(g, gcfg);
  ParallelRunConfig pcfg;
  pcfg.workers = 4;
  auto cover = ParCover(sigma, pcfg);
  for (size_t i = 0; i < cover.size(); ++i) {
    std::vector<Gfd> others;
    for (size_t j = 0; j < cover.size(); ++j) {
      if (j != i) others.push_back(cover[j]);
    }
    EXPECT_FALSE(Implies(others, cover[i])) << cover[i].ToString(g);
  }
}

TEST(ParCoverTest, NoGroupingSameResultMoreTests) {
  KbConfig kcfg{.scale = 120, .seed = 7};
  auto g = MakeYago2Like(kcfg);
  GfdGenConfig gcfg;
  gcfg.count = 200;
  auto sigma = GenerateGfdSet(g, gcfg);
  ParallelRunConfig pcfg;
  pcfg.workers = 4;
  CoverStats grouped, ungrouped;
  auto c1 = ParCover(sigma, pcfg, &grouped);
  auto c2 = ParCoverNoGrouping(sigma, pcfg, &ungrouped);
  EXPECT_EQ(testing::CoverText(c1, g), testing::CoverText(c2, g));
  EXPECT_EQ(grouped.removed, ungrouped.removed);
  EXPECT_LT(grouped.implication_tests, ungrouped.implication_tests);
  testing::ExpectCoversEqualReference(sigma, g);
}

TEST(ParCoverTest, WorkerCountInvariant) {
  KbConfig kcfg{.scale = 100, .seed = 11};
  auto g = MakeYago2Like(kcfg);
  GfdGenConfig gcfg;
  gcfg.count = 150;
  testing::ExpectCoversEqualReference(GenerateGfdSet(g, gcfg), g);
}

TEST(ParCoverTest, EmptyAndSingleton) {
  ParallelRunConfig pcfg;
  pcfg.workers = 4;
  EXPECT_TRUE(ParCover({}, pcfg).empty());

  PropertyGraph::Builder b;
  NodeId v = b.AddNode("n");
  b.SetAttr(v, "a", "1");
  auto g = std::move(b).Build();
  Gfd phi(SingleNodePattern(*g.FindLabel("n")), {},
          Literal::Const(0, *g.FindAttr("a"), *g.FindValue("1")));
  auto cover = ParCover({phi}, pcfg);
  ASSERT_EQ(cover.size(), 1u);
}

}  // namespace
}  // namespace gfd
