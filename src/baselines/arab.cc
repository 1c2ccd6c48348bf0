#include "baselines/arab.h"

#include <algorithm>

#include "core/discovery.h"
#include "core/literal_pool.h"
#include "core/profile.h"
#include "graph/stats.h"
#include "match/matcher.h"

namespace gfd {

ArabResult ParArab(const PropertyGraph& g, const DiscoveryConfig& cfg,
                   const ArabConfig& acfg) {
  ArabResult result;
  GraphStats gstats(g);
  auto gamma = ResolveActiveAttrs(gstats, cfg);
  auto triples = gstats.FrequentTriples(cfg.support_threshold);
  auto wildcard_labels = cfg.wildcard_upgrades
                             ? WildcardEdgeLabels(gstats, cfg)
                             : std::vector<LabelId>{};

  // ---- Phase 1: frequent pattern mining with full embedding stores ----
  GenerationTree tree;
  DiscoveryStats& stats = result.discovery.stats;
  std::vector<std::pair<int, MatchStore>> stores;  // all frequent patterns

  auto l0 = InitTree(tree, gstats, cfg, stats);
  std::vector<int> pending = l0;
  const size_t max_level = cfg.k * cfg.k;
  for (size_t level = 0; level <= max_level; ++level) {
    if (level > 0) {
      pending = VSpawn(tree, static_cast<int>(level), triples,
                       wildcard_labels, cfg, stats);
      if (pending.empty()) break;
    }
    for (int id : pending) {
      TreeNode& node = tree.node(id);
      CompiledPattern cq(node.pattern);
      MatchStore store = EnumerateMatches(g, cq, cfg.max_profile_matches);
      result.matches_materialized += store.matches.size();
      stats.profile_matches += store.matches.size();
      // Pattern support still has to be computed pivot-grouped.
      node.support = CountPivots(store.matches, node.pattern.pivot());
      node.verified = true;
      node.frequent = node.support >= cfg.support_threshold;
      if (node.frequent) {
        ++stats.patterns_frequent;
        ++result.patterns_mined;
        stores.emplace_back(id, std::move(store));  // Arabesque keeps all
      } else if (node.support == 0) {
        ++stats.patterns_zero_support;
      }
      if (result.matches_materialized > acfg.max_total_matches) {
        result.failed = true;
        return result;
      }
    }
  }

  // ---- Phase 2: literal attachment + validation per pattern ----
  const GeneralFirstOrder order{tree};
  std::sort(stores.begin(), stores.end(), [&](const auto& a, const auto& b) {
    return order(a.first, b.first);
  });
  LiteralLatticeMiner lattice(cfg, result.discovery);
  for (auto& [id, store] : stores) {
    const TreeNode& node = tree.node(id);
    auto constants = CollectMatchConstants(g, store.matches, gamma);
    auto pool =
        BuildLiteralPoolFromMatches(node.pattern, gamma, constants, cfg);
    PatternProfile profile(g, store, node.pattern.pivot(), pool);
    if (!lattice.MinePattern(id, node.pattern, pool, profile)) break;
  }
  return result;
}

}  // namespace gfd
