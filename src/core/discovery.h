// The discovery loop SeqDis and ParDis share (Sections 5.1, 6.2): the
// generation tree's levels, support and Lemma 4's prune, NVSpawn, literal
// pools and the literal lattice. A miner supplies a PatternSource, which
// finds each pattern's matches and answers the lattice over them: locally
// for SeqDis, across a simulated cluster for ParDis (parallel/pardis.cc).
#ifndef GFD_CORE_DISCOVERY_H_
#define GFD_CORE_DISCOVERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/generation_tree.h"
#include "core/lattice.h"

namespace gfd {

/// The order in which Discover feeds patterns to the lattice: edge count
/// ascending, then wildcard count descending, then tree id.
///
/// Invariant: this order, with the lattice growing each LHS depth by
/// depth, is a linear extension of the reduction order << on the GFDs
/// discovery can emit. Let phi1 << phi2 via a pivot-preserving embedding f
/// of Q1 into Q2. VSpawn's edge labels are concrete, so f maps Q1's edges
/// one to one into Q2's: Q1 has at most Q2's edges. With as many, f is
/// onto Q2's edges and (the patterns being connected) nodes, so phi1 <<
/// phi2 is strict only because Q1 has a wildcard where Q2 has a label (Q1
/// has more wildcards), or because Q1 and Q2 are isomorphic -- one tree
/// node -- and f(X1) ⊊ X2 (X1 is mined at a smaller depth). Every reducer
/// of a GFD is thus decided before it, and since << is transitive, the
/// lattice's online filters, which test each new GFD against the ones
/// kept so far, keep exactly the <<-minimal ones: no final sweep is
/// needed. tests/discovery_oracle_test.cc checks the output against a
/// brute-force reference, and property_test's ReducedOutputTest checks
/// every pair of it.
struct GeneralFirstOrder {
  const GenerationTree& tree;
  bool operator()(int a, int b) const;
};

struct PatternCount {
  uint64_t matches = 0;  ///< matches held (DiscoveryStats::profile_matches)
  uint64_t support = 0;  ///< |Q(G, z)|: distinct pivots with a match
};

/// Per level, Discover calls BeginLevel, then for each pattern in
/// GeneralFirstOrder Count and, if it mines the pattern, Constants and Mine.
class PatternSource {
 public:
  virtual ~PatternSource() = default;
  /// A level's new patterns, in creation order, before any is counted.
  virtual void BeginLevel(const GenerationTree& /*tree*/, size_t /*level*/,
                          std::span<const int> /*ids*/) {}
  /// Finds pattern `id`'s matches (kept until its Mine, if any).
  virtual PatternCount Count(const GenerationTree& tree, int id) = 0;
  /// Constant frequencies among the matches, as CollectMatchConstants.
  virtual std::vector<VarConstFreq> Constants(
      int id, const std::vector<AttrId>& gamma) = 0;
  /// Runs lattice.MinePattern over the matches, profiled against `pool`.
  virtual void Mine(int id, const Pattern& pattern,
                    const std::vector<Literal>& pool,
                    LiteralLatticeMiner& lattice) = 0;
};

/// Runs discovery on `g`, asking `source` about every spawned pattern.
DiscoveryResult Discover(const PropertyGraph& g, const DiscoveryConfig& cfg,
                         PatternSource& source);

}  // namespace gfd

#endif  // GFD_CORE_DISCOVERY_H_
