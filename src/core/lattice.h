// The literal-tree lattice miner (HSpawn + NHSpawn over one pattern's
// matches), the one lattice of SeqDis, ParDis and the split-pipeline
// baseline (ParArab, Section 7 "baselines"). It asks its questions of a
// row source in batches, one per lattice step; a local PatternProfile
// answers them for SeqDis and ParArab, and one Cluster superstep over the
// workers' profiles for ParDis (parallel/pardis.cc).
#ifndef GFD_CORE_LATTICE_H_
#define GFD_CORE_LATTICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/profile.h"
#include "core/seqdis.h"
#include "gfd/gfd.h"

namespace gfd {

/// Invariant key of an RHS literal under variable renaming: embeddings
/// preserve kinds, attributes and constants, so only GFDs with equal
/// signatures can stand in the << relation. Indexes the found positives.
using RhsSig = std::tuple<int, AttrId, AttrId, ValueId>;

/// Mines literal trees pattern by pattern, accumulating minimum frequent
/// GFDs (positive and negative) into a DiscoveryResult. Stateful across
/// patterns: the reduced-GFD filters test each new GFD against the GFDs
/// kept so far, so they keep exactly the <<-minimal ones only when
/// patterns arrive in GeneralFirstOrder (core/discovery.h).
class LiteralLatticeMiner {
 public:
  /// Answers a batch of lattice queries, in order, as one PatternProfile
  /// holding all of the pattern's matches would (see LatticeAnswer).
  using RowSource = std::function<std::vector<LatticeAnswer>(
      std::span<const LatticeQuery>)>;

  LiteralLatticeMiner(const DiscoveryConfig& cfg, DiscoveryResult& result)
      : cfg_(cfg), result_(result) {}

  /// Mines one pattern. `pattern_key` is any id unique per pattern (used
  /// to deduplicate negatives); `rows` answers queries over `pool`. All
  /// RHS trees advance together, so each lattice depth asks `rows` one
  /// candidate batch and at most one NHSpawn batch (the paper's HSpawn(i,
  /// j) batches). Returns false when the candidate budget tripped.
  bool MinePattern(int pattern_key, const Pattern& pattern,
                   const std::vector<Literal>& pool, const RowSource& rows);

  /// Mines one pattern from a local profile built against `pool`.
  bool MinePattern(int pattern_key, const Pattern& pattern,
                   const std::vector<Literal>& pool,
                   const PatternProfile& profile);

  /// Registers a negative GFD (used by NVSpawn, which lives outside the
  /// literal lattice). Applies the same dedup/reduction filters; a
  /// negative registered again keeps the larger base support.
  void AddNegative(int pattern_key, Gfd phi, uint64_t base_supp);

 private:
  bool ChargeCandidate();
  bool IsReducedAway(const Gfd& phi) const;
  void AddPositive(Gfd phi, uint64_t supp);

  const DiscoveryConfig& cfg_;
  DiscoveryResult& result_;
  std::map<RhsSig, std::vector<size_t>> by_rhs_;
  // Every (pattern_key, X') AddNegative saw: the index of the negative
  // it kept in result_.negatives, or kDropped when it was reduced away.
  static constexpr size_t kDropped = SIZE_MAX;
  std::map<std::pair<int, std::vector<Literal>>, size_t> seen_negatives_;
};

}  // namespace gfd

#endif  // GFD_CORE_LATTICE_H_
