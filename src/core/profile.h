// Match profiles: the data structure that lets this miner "combine graph
// pattern mining and FD discovery in a single process" (the paper's
// Contribution 3). For each verified pattern Q we enumerate its matches
// ONCE and record, per match, the bitset of pool literals it satisfies
// (and the bitset of literals whose attributes are *present* at the
// matched nodes), grouped by pivot node. Every discovery-side question
// about Q then becomes a bitset scan:
//
//   supp(Q, G)          = number of pivot groups
//   supp(Q, X ∪ {l}, z) = #groups with some sat-mask ⊇ bits(X ∪ {l})
//   G |= Q(X -> l)       = no sat-mask with bits(X) ⊆ mask and l ∉ mask
//   Q(G, X', z) = 0      = no sat-mask ⊇ bits(X')  (NHSpawn's emptiness)
//
// so the entire literal tree of a pattern (all HSpawn levels) is mined
// from one isomorphism enumeration. The presence masks implement the
// paper's Open World Assumption discussion (Section 4.2): a literal
// combination only counts as a *negative* observation when the attributes
// involved actually exist on some match -- attribute absence is unknown
// data, not a counterexample.
#ifndef GFD_CORE_PROFILE_H_
#define GFD_CORE_PROFILE_H_

#include <bitset>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "gfd/literal.h"
#include "graph/property_graph.h"
#include "match/matcher.h"

namespace gfd {

/// Bitset over a pattern's literal pool.
using LitMask = std::bitset<DiscoveryConfig::kMaxPool>;

/// One profiled match: its pivot node, the literals it satisfies, and the
/// literals whose attributes are all present at its nodes.
struct ProfileRow {
  NodeId pivot;
  LitMask sat;
  LitMask present;
};

/// Materialized matches of one pattern (first phase of profiling).
struct MatchStore {
  std::vector<Match> matches;
  bool truncated = false;
};

/// Enumerates and stores up to `max_matches` matches of `cq` in `g`.
MatchStore EnumerateMatches(const PropertyGraph& g, const CompiledPattern& cq,
                            size_t max_matches);

/// Distinct images of `pivot` among `matches`: their support |Q(G, z)|.
uint64_t CountPivots(std::span<const Match> matches, VarId pivot);

/// Per (variable, attribute) constant frequencies observed *among the
/// stored matches* -- the paper's VSpawn collects literal constants from
/// the matches h(x-bar), not from global value statistics, which is what
/// makes locally frequent constants (e.g. an award name) available as
/// literals.
struct VarConstFreq {
  VarId var;
  AttrId attr;
  ValueId value;
  uint64_t count;
};
/// Ordered as BuildLiteralPoolFromMatches expects: count descending, then
/// (var, attr, value).
std::vector<VarConstFreq> CollectMatchConstants(
    const PropertyGraph& g, std::span<const Match> matches,
    const std::vector<AttrId>& gamma);

/// Adds up constant frequencies collected over disjoint match sets (one
/// CollectMatchConstants per fragment) into CollectMatchConstants's answer
/// over their union, in its order.
std::vector<VarConstFreq> MergeMatchConstants(
    std::span<const std::vector<VarConstFreq>> parts);

/// One question the literal lattice (core/lattice.h) asks about a
/// pattern's matches. Every row source answers it through
/// PatternProfile::Answer, so each kind means the same thing locally and
/// in ParDis.
struct LatticeQuery {
  enum Kind : uint8_t {
    kSupport,    ///< how many pivots witness X (a singleton: usable bits)
    kCandidate,  ///< does G |= Q(X -> l) hold, and with what support?
    kEmptiness,  ///< NHSpawn: is Q(G, X', z) empty, and is X' observable?
  };
  Kind kind = kSupport;
  LitMask mask;          ///< X, or X' for kEmptiness
  uint32_t rhs_bit = 0;  ///< l; read by kCandidate only

  /// The literal set whose support the answer may carry: X ∪ {l} for a
  /// candidate, X otherwise.
  LitMask SupportMask() const {
    LitMask m = mask;
    if (kind == kCandidate) m.set(rhs_bit);
    return m;
  }
};

/// Answer to one LatticeQuery. Which fields a kind defines:
///   kSupport:   supp = |Q(G, X, z)|, and any_sat = supp > 0.
///   kCandidate: violated = not G |= Q(X -> l). supp of X ∪ {l} is
///               defined only when not violated.
///   kEmptiness: any_sat = Q(G, X', z) != ∅. any_present (the OWA gate)
///               is defined only when not any_sat.
/// Fields a kind leaves undefined stay zero.
struct LatticeAnswer {
  uint64_t supp = 0;
  bool violated = false;
  bool any_sat = false;
  bool any_present = false;
};

/// Computes the profile row of one match against a literal pool.
ProfileRow ProfileMatch(const PropertyGraph& g, const Match& m, NodeId pivot,
                        const std::vector<Literal>& pool);

/// Per-pattern match profile (see file comment).
class PatternProfile {
 public:
  PatternProfile() = default;

  /// Profiles pre-enumerated matches (EnumerateMatches ->
  /// CollectMatchConstants -> literal pool -> profile).
  PatternProfile(const PropertyGraph& g, const MatchStore& store,
                 VarId pivot, const std::vector<Literal>& pool);

  /// Builds a profile from rows, e.g. merged from distributed fragments.
  /// Rows need not be grouped.
  static PatternProfile FromRows(std::vector<ProfileRow> rows,
                                 size_t pool_size, bool truncated = false);

  /// |Q(G,z)|: distinct pivots with at least one match.
  uint64_t PatternSupport() const { return pivots_.size(); }

  /// |Q(G, set, z)|: pivots with some match satisfying every literal in
  /// `required`.
  uint64_t SupportOf(const LitMask& required) const;

  /// True iff some match satisfies all of `required` (early-exit variant
  /// of SupportOf() > 0).
  bool AnyMatchSatisfies(const LitMask& required) const;

  /// True iff some match has all attributes of `required` present (the
  /// OWA gate for negative discovery).
  bool AnyMatchPresents(const LitMask& required) const;

  /// G |= Q(X -> l): no match with X ⊆ sat-mask and l ∉ sat-mask.
  bool Satisfied(const LitMask& lhs, size_t rhs_bit) const;

  /// Answers one lattice query from the queries above, computing only the
  /// fields its kind defines (see LatticeAnswer).
  LatticeAnswer Answer(const LatticeQuery& q) const;

  /// Distinct pivots, ascending.
  const std::vector<NodeId>& pivots() const { return pivots_; }

  /// Grouped rows: group i spans [offsets()[i], offsets()[i+1]).
  const std::vector<LitMask>& masks() const { return masks_; }
  const std::vector<LitMask>& presence() const { return presence_; }
  const std::vector<uint32_t>& offsets() const { return offsets_; }

  uint64_t num_matches() const { return masks_.size(); }
  bool truncated() const { return truncated_; }
  size_t pool_size() const { return pool_size_; }

 private:
  void GroupRows(std::vector<ProfileRow>& rows);

  std::vector<NodeId> pivots_;     // distinct pivots, ascending
  std::vector<uint32_t> offsets_;  // pivots_.size() + 1 entries
  std::vector<LitMask> masks_;     // sat-masks, grouped by pivot
  std::vector<LitMask> presence_;  // presence-masks, same order
  size_t pool_size_ = 0;
  bool truncated_ = false;
};

/// Bit positions of `lits` within `pool`; a literal absent from the pool
/// is an error (callers only combine pool literals).
LitMask MaskOf(const std::vector<Literal>& lits,
               const std::vector<Literal>& pool);

}  // namespace gfd

#endif  // GFD_CORE_PROFILE_H_
