#include "core/discovery.h"

#include <algorithm>

#include "core/literal_pool.h"
#include "graph/stats.h"

namespace gfd {

namespace {

size_t WildcardCount(const Pattern& p) {
  size_t c = 0;
  for (VarId v = 0; v < p.NumNodes(); ++v) {
    if (p.NodeLabel(v) == kWildcardLabel) ++c;
  }
  for (const auto& e : p.edges()) {
    if (e.label == kWildcardLabel) ++c;
  }
  return c;
}

class DiscoveryRun {
 public:
  DiscoveryRun(const PropertyGraph& g, const DiscoveryConfig& cfg,
               PatternSource& source)
      : cfg_(cfg), gstats_(g), source_(source), lattice_(cfg_, result_) {}

  DiscoveryResult Run() {
    gamma_ = ResolveActiveAttrs(gstats_, cfg_);
    const auto triples = gstats_.FrequentTriples(cfg_.support_threshold);
    const auto wildcard_labels =
        cfg_.wildcard_upgrades ? WildcardEdgeLabels(gstats_, cfg_)
                               : std::vector<LabelId>{};
    // Level 0 holds single-node patterns; level i (<= k^2) the patterns
    // VSpawn grows by one edge from level i-1's frequent ones.
    std::vector<int> ids = InitTree(tree_, gstats_, cfg_, result_.stats);
    for (size_t level = 0; !ids.empty();) {
      source_.BeginLevel(tree_, level, ids);
      std::sort(ids.begin(), ids.end(), GeneralFirstOrder{tree_});
      for (int id : ids) {
        if (Exhausted()) break;
        ProcessPattern(id);
      }
      if (++level > cfg_.k * cfg_.k || Exhausted()) break;
      ids = VSpawn(tree_, static_cast<int>(level), triples, wildcard_labels,
                   cfg_, result_.stats);
    }
    return std::move(result_);
  }

 private:
  bool Exhausted() const { return result_.stats.budget_exceeded; }

  // Verifies a pattern and mines its literal trees; NVSpawn on zero
  // support.
  void ProcessPattern(int id) {
    const PatternCount count = source_.Count(tree_, id);
    DiscoveryStats& stats = result_.stats;
    stats.profile_matches += count.matches;
    stats.max_pattern_matches =
        std::max(stats.max_pattern_matches, count.matches);
    TreeNode& node = tree_.node(id);
    node.support = count.support;
    node.verified = true;
    node.frequent = cfg_.prune ? node.support >= cfg_.support_threshold
                               : node.support > 0;
    if (node.frequent) ++stats.patterns_frequent;
    if (node.support == 0) {
      ++stats.patterns_zero_support;
      if (cfg_.discover_negative) NVSpawn(id);
      return;
    }
    // Lemma 4: GFDs on an infrequent pattern cannot reach sigma.
    if (cfg_.prune && node.support < cfg_.support_threshold) return;
    auto constants = source_.Constants(id, gamma_);
    auto pool = BuildLiteralPoolFromMatches(node.pattern, gamma_, constants,
                                            cfg_);
    source_.Mine(id, node.pattern, pool, lattice_);
  }

  // NVSpawn (case (a) negatives): Q' has no match; its base is the most
  // supported frequent parent. supp(phi) = max over bases (Section 4.2).
  void NVSpawn(int id) {
    const TreeNode& node = tree_.node(id);
    uint64_t base_support = 0;
    for (int pid : node.parents) {
      const TreeNode& parent = tree_.node(pid);
      if (parent.verified && parent.frequent) {
        base_support = std::max(base_support, parent.support);
      }
    }
    if (base_support < cfg_.support_threshold) return;
    lattice_.AddNegative(id, Gfd(node.pattern, {}, Literal::False()),
                         base_support);
  }

  const DiscoveryConfig cfg_;
  GraphStats gstats_;
  PatternSource& source_;
  std::vector<AttrId> gamma_;
  GenerationTree tree_;
  DiscoveryResult result_;
  LiteralLatticeMiner lattice_;
};

}  // namespace

bool GeneralFirstOrder::operator()(int a, int b) const {
  const Pattern& pa = tree.node(a).pattern;
  const Pattern& pb = tree.node(b).pattern;
  if (pa.NumEdges() != pb.NumEdges()) return pa.NumEdges() < pb.NumEdges();
  const size_t wa = WildcardCount(pa), wb = WildcardCount(pb);
  if (wa != wb) return wa > wb;
  return a < b;
}

DiscoveryResult Discover(const PropertyGraph& g, const DiscoveryConfig& cfg,
                         PatternSource& source) {
  return DiscoveryRun(g, cfg, source).Run();
}

}  // namespace gfd
