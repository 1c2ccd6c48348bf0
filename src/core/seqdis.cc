#include "core/seqdis.h"

#include "core/discovery.h"
#include "core/profile.h"
#include "match/matcher.h"

namespace gfd {

namespace {

// SeqDis's pattern source: enumerates each pattern's matches once and
// answers the lattice from one local profile over them.
class LocalSource : public PatternSource {
 public:
  LocalSource(const PropertyGraph& g, size_t max_matches)
      : g_(g), max_matches_(max_matches) {}

  PatternCount Count(const GenerationTree& tree, int id) override {
    const Pattern& q = tree.node(id).pattern;
    store_ = EnumerateMatches(g_, CompiledPattern(q), max_matches_);
    return {store_.matches.size(), CountPivots(store_.matches, q.pivot())};
  }

  std::vector<VarConstFreq> Constants(
      int, const std::vector<AttrId>& gamma) override {
    return CollectMatchConstants(g_, store_.matches, gamma);
  }

  void Mine(int id, const Pattern& pattern, const std::vector<Literal>& pool,
            LiteralLatticeMiner& lattice) override {
    lattice.MinePattern(id, pattern, pool,
                        PatternProfile(g_, store_, pattern.pivot(), pool));
  }

 private:
  const PropertyGraph& g_;
  const size_t max_matches_;
  MatchStore store_;  // the current pattern's matches
};

}  // namespace

DiscoveryResult SeqDis(const PropertyGraph& g, const DiscoveryConfig& cfg) {
  LocalSource source(g, cfg.max_profile_matches);
  return Discover(g, cfg, source);
}

}  // namespace gfd
