// Property-based suites over randomized inputs: invariants the paper
// proves (anti-monotonicity, Theorem 3; radius locality, Section 4.1;
// implication soundness) checked against many generated instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "baselines/arab.h"
#include "core/cover.h"
#include "core/profile.h"
#include "core/seqdis.h"
#include "core/literal_pool.h"
#include "cover_checks.h"
#include "datagen/gfd_gen.h"
#include "detect/engine.h"
#include "datagen/kb.h"
#include "datagen/synthetic.h"
#include "detect_checks.h"
#include "gfd/problems.h"
#include "graph/stats.h"
#include "gfd/validation.h"
#include "parallel/parcover.h"
#include "parallel/pardis.h"
#include "util/rng.h"

namespace gfd {
namespace {

// Random connected pattern over a graph's vocabulary (via its frequent
// triples), with a random pivot and up to `max_nodes` variables.
Pattern RandomPattern(const GraphStats& stats, Rng& rng, size_t max_nodes) {
  const auto& triples = stats.edge_triples();
  const auto& t0 = triples[rng.Below(std::min<size_t>(triples.size(), 12))];
  Pattern p;
  VarId a = p.AddNode(rng.Chance(0.3) ? kWildcardLabel : t0.src_label);
  VarId b = p.AddNode(rng.Chance(0.3) ? kWildcardLabel : t0.dst_label);
  p.AddEdge(a, b, t0.edge_label);
  while (p.NumNodes() < max_nodes && rng.Chance(0.5)) {
    // Attach one more triple at a random existing node.
    const auto& t = triples[rng.Below(std::min<size_t>(triples.size(), 24))];
    bool attached = false;
    for (VarId v = 0; v < p.NumNodes() && !attached; ++v) {
      if (p.NodeLabel(v) == t.src_label ||
          p.NodeLabel(v) == kWildcardLabel) {
        VarId nv = p.AddNode(rng.Chance(0.3) ? kWildcardLabel : t.dst_label);
        p.AddEdge(v, nv, t.edge_label);
        attached = true;
      }
    }
    if (!attached) break;
  }
  p.set_pivot(static_cast<VarId>(rng.Below(p.NumNodes())));
  return p;
}

// --- Radius locality (Section 4.1): every matched node lies within the
// --- pattern radius d_Q of the pivot's image.
class RadiusLocality : public ::testing::TestWithParam<int> {};

TEST_P(RadiusLocality, MatchesStayWithinPivotRadius) {
  auto g = MakeYago2Like({.scale = 120, .seed = 5});
  GraphStats stats(g);
  Rng rng(GetParam() * 31 + 7);
  Pattern q = RandomPattern(stats, rng, 3);
  size_t radius = q.RadiusAtPivot();
  CompiledPattern cq(q);

  // Undirected BFS distances from a node, cut off at `radius`.
  auto within = [&](NodeId from, NodeId to) {
    if (from == to) return true;
    std::deque<std::pair<NodeId, size_t>> queue{{from, 0}};
    std::vector<bool> seen(g.NumNodes(), false);
    seen[from] = true;
    while (!queue.empty()) {
      auto [v, d] = queue.front();
      queue.pop_front();
      if (d == radius) continue;
      auto push = [&](NodeId n) {
        if (!seen[n]) {
          if (n == to) return true;
          seen[n] = true;
          queue.push_back({n, d + 1});
        }
        return false;
      };
      for (EdgeId e : g.OutEdges(v)) {
        if (push(g.EdgeDst(e))) return true;
      }
      for (EdgeId e : g.InEdges(v)) {
        if (push(g.EdgeSrc(e))) return true;
      }
    }
    return false;
  };

  size_t checked = 0;
  cq.ForEachMatch(g, [&](const Match& m) {
    NodeId pv = m[q.pivot()];
    for (NodeId n : m) {
      EXPECT_TRUE(within(pv, n))
          << "node " << n << " outside radius " << radius << " of pivot";
    }
    return ++checked < 25;  // bound the verification work
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadiusLocality, ::testing::Range(0, 10));

// --- Profile queries agree with direct evaluation on random GFDs.
class ProfileOracle : public ::testing::TestWithParam<int> {};

TEST_P(ProfileOracle, ProfileAgreesWithEvaluateGfd) {
  auto g = MakeYago2Like({.scale = 100, .seed = 9});
  GraphStats stats(g);
  Rng rng(GetParam() * 97 + 13);
  Pattern q = RandomPattern(stats, rng, 3);
  CompiledPattern cq(q);

  // Pool: a few random literals over the pattern.
  DiscoveryConfig cfg;
  auto gamma = ResolveActiveAttrs(stats, cfg);
  auto store = EnumerateMatches(g, cq, 1 << 20);
  auto consts = CollectMatchConstants(g, store.matches, gamma);
  auto pool = BuildLiteralPoolFromMatches(q, gamma, consts, cfg);
  if (pool.empty()) return;
  PatternProfile profile(g, store, q.pivot(), pool);

  for (int trial = 0; trial < 6; ++trial) {
    size_t r = rng.Below(pool.size());
    std::vector<Literal> lhs;
    if (rng.Chance(0.6) && pool.size() > 1) {
      size_t b = rng.Below(pool.size());
      if (b != r) lhs.push_back(pool[b]);
    }
    Gfd phi(q, lhs, pool[r]);
    auto direct = EvaluateGfd(g, cq, phi);
    LitMask lhs_mask = MaskOf(phi.lhs, pool);
    LitMask xl = lhs_mask;
    xl.set(r);
    EXPECT_EQ(profile.Satisfied(lhs_mask, r), direct.satisfied)
        << phi.ToString(g);
    EXPECT_EQ(profile.SupportOf(xl), direct.gfd_support) << phi.ToString(g);
    EXPECT_EQ(profile.PatternSupport(), direct.pattern_support);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileOracle, ::testing::Range(0, 12));

// --- Anti-monotonicity (Theorem 3) on random specializations.
class AntiMonotone : public ::testing::TestWithParam<int> {};

TEST_P(AntiMonotone, SpecializationNeverGainsSupport) {
  auto g = MakeYago2Like({.scale = 100, .seed = 11});
  GraphStats stats(g);
  Rng rng(GetParam() * 53 + 29);
  Pattern q = RandomPattern(stats, rng, 2);
  CompiledPattern cq(q);

  DiscoveryConfig cfg;
  auto gamma = ResolveActiveAttrs(stats, cfg);
  auto store = EnumerateMatches(g, cq, 1 << 20);
  auto consts = CollectMatchConstants(g, store.matches, gamma);
  auto pool = BuildLiteralPoolFromMatches(q, gamma, consts, cfg);
  if (pool.size() < 3) return;

  size_t r = rng.Below(pool.size());
  size_t b1 = rng.Below(pool.size());
  size_t b2 = rng.Below(pool.size());
  if (b1 == r || b2 == r || b1 == b2) return;

  Gfd base(q, {pool[b1]}, pool[r]);
  Gfd special(q, {pool[b1], pool[b2]}, pool[r]);
  if (!GfdReduces(base, special)) return;  // literals may alias after
                                           // normalization
  auto rb = EvaluateGfd(g, cq, base);
  auto rs = EvaluateGfd(g, cq, special);
  EXPECT_GE(rb.gfd_support, rs.gfd_support);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AntiMonotone, ::testing::Range(0, 15));

// --- Implication soundness: discovered sets are satisfied by the graph;
// --- anything a subset implies must then also hold on the graph.
class ImplicationSound : public ::testing::TestWithParam<int> {};

TEST_P(ImplicationSound, ImpliedGfdsHoldOnTheGraph) {
  auto g = MakeYago2Like({.scale = 100, .seed = 3});
  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  auto mined = SeqDis(g, cfg);
  auto sigma = mined.AllGfds();
  if (sigma.size() < 4) return;

  Rng rng(GetParam() * 71 + 5);
  // Random sub-Sigma and random candidate phi from the mined pool.
  std::vector<Gfd> sub;
  for (const auto& phi : sigma) {
    if (rng.Chance(0.5)) sub.push_back(phi);
  }
  const Gfd& phi = sigma[rng.Below(sigma.size())];
  if (Implies(sub, phi)) {
    // Soundness: G |= sub (all mined GFDs hold), so G |= phi must hold.
    EXPECT_TRUE(SatisfiesGfd(g, phi)) << phi.ToString(g);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationSound, ::testing::Range(0, 10));

// --- Cover identity: SeqCover and ParCover at every worker count return
// --- the ungrouped reference's cover, in order, across generated rule sets.
class CoverEquiv : public ::testing::TestWithParam<int> {};

TEST_P(CoverEquiv, SeqAndParCoversMutuallyImply) {
  auto g = MakeSynthetic({.nodes = 400,
                          .edges = 900,
                          .node_labels = 8,
                          .edge_labels = 6,
                          .attrs = 3,
                          .values = 30,
                          .seed = static_cast<uint64_t>(GetParam() + 1)});
  GfdGenConfig gcfg;
  gcfg.count = 120;
  gcfg.seed = GetParam() * 13 + 1;
  testing::ExpectCoversEqualReference(GenerateGfdSet(g, gcfg), g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverEquiv, ::testing::Range(0, 8));

// --- Detection oracle: the batched multi-GFD engine returns exactly the
// --- violation multiset of the naive per-GFD loop, across random graphs,
// --- random rule sets, and worker counts.
class DetectOracle : public ::testing::TestWithParam<int> {};

TEST_P(DetectOracle, BatchedEngineAgreesWithNaivePerGfdValidation) {
  int seed = GetParam();
  auto g = MakeSynthetic({.nodes = 150,
                          .edges = 320,
                          .node_labels = 6,
                          .edge_labels = 5,
                          .attrs = 3,
                          .values = 15,
                          .value_correlation = 0.6,
                          .seed = static_cast<uint64_t>(seed * 17 + 1)});
  GfdGenConfig gcfg;
  gcfg.count = 18;
  gcfg.k = 3;
  gcfg.redundancy = 0.4;
  gcfg.seed = static_cast<uint64_t>(seed * 101 + 7);
  auto rules = GenerateGfdSet(g, gcfg);
  ASSERT_FALSE(rules.empty());

  auto naive = DetectNaive(g, rules);
  ViolationEngine engine(rules);
  auto batched = testing::ExpectSameAtEveryWorkerCount(engine, g);
  EXPECT_EQ(batched.violations, naive.violations) << "seed " << seed;
  testing::ExpectCapsHoldAtFourWorkers(engine, g, batched, /*cap=*/2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectOracle, ::testing::Range(0, 50));

// --- Discovery output is reduction-free: no discovered GFD reduces (<<)
// --- another, for every miner. The lattice's online filters guarantee
// --- this only because patterns arrive in GeneralFirstOrder
// --- (core/discovery.h); there is no final sweep.
void ExpectNoGfdReducesAnother(const std::vector<Gfd>& gfds,
                               const PropertyGraph& g) {
  for (size_t i = 0; i < gfds.size(); ++i) {
    for (size_t j = 0; j < gfds.size(); ++j) {
      if (i != j && GfdReduces(gfds[j], gfds[i])) {
        ADD_FAILURE() << gfds[j].ToString(g) << "  <<  " << gfds[i].ToString(g);
      }
    }
  }
}

// Runs every miner on Yago2Like(150) and checks each distinct output.
void ExpectReductionFreeOutputs(const DiscoveryConfig& cfg) {
  auto g = MakeYago2Like({.scale = 150, .seed = 3});
  std::vector<std::pair<std::string, DiscoveryResult>> runs;
  runs.emplace_back("SeqDis", SeqDis(g, cfg));
  for (size_t workers : {1u, 4u}) {
    for (bool balance : {true, false}) {
      std::string name = "ParDis w" + std::to_string(workers);
      name += balance ? " balanced" : " unbalanced";
      ParallelRunConfig pcfg{.workers = workers, .load_balance = balance};
      runs.emplace_back(name, ParDis(g, cfg, pcfg));
    }
  }
  runs.emplace_back("ParArab", ParArab(g, cfg).discovery);
  // An output equal to one already checked is reduction-free too.
  std::vector<const DiscoveryResult*> checked;
  for (const auto& [miner, r] : runs) {
    SCOPED_TRACE(miner);
    EXPECT_FALSE(r.positives.empty());
    EXPECT_FALSE(r.negatives.empty());
    bool seen = false;
    for (const DiscoveryResult* c : checked) {
      if (c->positives == r.positives && c->negatives == r.negatives) {
        seen = true;
      }
    }
    if (seen) continue;
    ExpectNoGfdReducesAnother(r.positives, g);
    ExpectNoGfdReducesAnother(r.negatives, g);
    checked.push_back(&r);
  }
}

DiscoveryConfig ReducedOutputConfig() {
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 8;
  return cfg;
}

TEST(ReducedOutputTest, NoDiscoveredGfdReducesAnother) {
  ExpectReductionFreeOutputs(ReducedOutputConfig());
}

TEST(ReducedOutputTest, NoDiscoveredGfdReducesAnotherUnpruned) {
  DiscoveryConfig cfg = ReducedOutputConfig();
  cfg.k = 2;
  cfg.prune = false;
  ExpectReductionFreeOutputs(cfg);
}

TEST(ReducedOutputTest, NoDiscoveredGfdReducesAnotherMoreWildcards) {
  DiscoveryConfig cfg = ReducedOutputConfig();
  cfg.wildcard_min_pairs = 1;
  ExpectReductionFreeOutputs(cfg);
}

}  // namespace
}  // namespace gfd
