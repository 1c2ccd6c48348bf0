#include "core/seqdis.h"

#include <algorithm>

#include "core/generation_tree.h"
#include "core/lattice.h"
#include "core/lattice_util.h"
#include "core/literal_pool.h"
#include "core/profile.h"
#include "gfd/problems.h"
#include "graph/stats.h"
#include "match/matcher.h"

namespace gfd {

namespace {

// The sequential discovery engine: VSpawn/NVSpawn and one local profile
// per pattern, which answers the queries of the literal lattice
// (LiteralLatticeMiner) that ParDis runs too.
class Miner {
 public:
  Miner(const PropertyGraph& g, const DiscoveryConfig& cfg)
      : g_(g), cfg_(cfg), gstats_(g), lattice_(cfg_, result_) {}

  DiscoveryResult Run() {
    gamma_ = ResolveActiveAttrs(gstats_, cfg_);
    auto triples = gstats_.FrequentTriples(cfg_.support_threshold);
    auto wildcard_labels =
        cfg_.wildcard_upgrades ? WildcardEdgeLabels(gstats_, cfg_)
                               : std::vector<LabelId>{};

    // Level 0: single-node patterns; verify + mine their literal trees.
    auto l0 = InitTree(tree_, gstats_, cfg_, result_.stats);
    SortGeneralFirst(l0);
    for (int id : l0) ProcessPattern(id);

    // Levels 1..k^2: VSpawn then verify/mine each new pattern.
    const size_t max_level = cfg_.k * cfg_.k;
    for (size_t level = 1; level <= max_level && !Exhausted(); ++level) {
      auto spawned = VSpawn(tree_, static_cast<int>(level), triples,
                            wildcard_labels, cfg_, result_.stats);
      if (spawned.empty()) break;
      SortGeneralFirst(spawned);
      for (int id : spawned) {
        if (Exhausted()) break;
        ProcessPattern(id);
      }
    }
    return std::move(result_);
  }

 private:
  bool Exhausted() const { return result_.stats.budget_exceeded; }

  // Process more-general (more wildcards) patterns first so that
  // reduced-GFD filtering catches concrete duplicates.
  void SortGeneralFirst(std::vector<int>& ids) {
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
      size_t wa = WildcardCount(tree_.node(a).pattern);
      size_t wb = WildcardCount(tree_.node(b).pattern);
      if (wa != wb) return wa > wb;
      return a < b;
    });
  }

  // Verifies a pattern (support via its profile) and mines its literal
  // trees; triggers NVSpawn on zero support.
  void ProcessPattern(int node_id) {
    TreeNode& node = tree_.node(node_id);
    CompiledPattern cq(node.pattern);
    // Two-phase profiling: materialize matches, collect per-variable
    // constants from them (the paper's VSpawn constant collection), build
    // the literal pool, then mask the matches against the pool.
    MatchStore store = EnumerateMatches(g_, cq, cfg_.max_profile_matches);
    auto constants = CollectMatchConstants(g_, store.matches, gamma_);
    auto pool = BuildLiteralPoolFromMatches(node.pattern, gamma_, constants,
                                            cfg_);
    PatternProfile profile(g_, store, node.pattern.pivot(), pool);
    result_.stats.profile_matches += profile.num_matches();
    result_.stats.max_pattern_matches =
        std::max(result_.stats.max_pattern_matches, profile.num_matches());

    node.support = profile.PatternSupport();
    node.verified = true;
    node.frequent = cfg_.prune ? node.support >= cfg_.support_threshold
                               : node.support > 0;
    if (node.frequent) ++result_.stats.patterns_frequent;

    if (node.support == 0) {
      ++result_.stats.patterns_zero_support;
      if (cfg_.discover_negative) NVSpawn(node_id);
      return;
    }
    // Lemma 4: GFDs on an infrequent pattern cannot reach sigma.
    if (cfg_.prune && node.support < cfg_.support_threshold) return;

    lattice_.MinePattern(node_id, node.pattern, pool, profile);
  }

  // NVSpawn (case (a) negatives): Q' has no match; its base is the most
  // supported frequent parent. supp(phi) = max over bases (Section 4.2).
  void NVSpawn(int node_id) {
    const TreeNode& node = tree_.node(node_id);
    uint64_t base_support = 0;
    for (int pid : node.parents) {
      const TreeNode& parent = tree_.node(pid);
      if (parent.verified && parent.frequent) {
        base_support = std::max(base_support, parent.support);
      }
    }
    if (base_support < cfg_.support_threshold) return;
    lattice_.AddNegative(node_id, Gfd(node.pattern, {}, Literal::False()),
                         base_support);
  }

  const PropertyGraph& g_;
  const DiscoveryConfig cfg_;
  GraphStats gstats_;
  std::vector<AttrId> gamma_;
  GenerationTree tree_;
  DiscoveryResult result_;
  LiteralLatticeMiner lattice_;
};

}  // namespace

DiscoveryResult SeqDis(const PropertyGraph& g, const DiscoveryConfig& cfg) {
  DiscoveryResult result = Miner(g, cfg).Run();
  FinalizeReduced(result);
  return result;
}

void FinalizeReduced(DiscoveryResult& result) {
  auto sweep = [](std::vector<Gfd>& gfds, std::vector<uint64_t>& supports) {
    std::vector<bool> keep(gfds.size(), true);
    for (size_t i = 0; i < gfds.size(); ++i) {
      for (size_t j = 0; j < gfds.size() && keep[i]; ++j) {
        if (i == j) continue;
        // << is a strict, transitive order, so keeping exactly the
        // <<-minimal elements (drop i when *any* j reduces it, kept or
        // not) is sound and independent of iteration order.
        if (GfdReduces(gfds[j], gfds[i])) keep[i] = false;
      }
    }
    size_t w = 0;
    for (size_t i = 0; i < gfds.size(); ++i) {
      if (keep[i]) {
        if (w != i) {  // guard against self-move
          gfds[w] = std::move(gfds[i]);
          supports[w] = supports[i];
        }
        ++w;
      }
    }
    gfds.resize(w);
    supports.resize(w);
  };
  sweep(result.positives, result.positive_supports);
  sweep(result.negatives, result.negative_supports);
  result.stats.positives_found = result.positives.size();
  result.stats.negatives_found = result.negatives.size();
}

}  // namespace gfd
