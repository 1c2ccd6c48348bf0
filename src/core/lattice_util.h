// Small helpers of the literal lattice (core/lattice.h) and of the
// miners that feed it patterns (SeqDis, ParDis, ParArab).
#ifndef GFD_CORE_LATTICE_UTIL_H_
#define GFD_CORE_LATTICE_UTIL_H_

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/profile.h"
#include "gfd/literal.h"
#include "pattern/pattern.h"

namespace gfd {

/// Invariant key of an RHS literal under variable renaming: embeddings
/// preserve kinds, attributes and constants, so only GFDs with equal
/// signatures can stand in the << relation. Used to index found positives.
using RhsSig = std::tuple<int, AttrId, AttrId, ValueId>;

inline RhsSig SignatureOf(const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kFalse:
      return {0, 0, 0, 0};
    case LiteralKind::kVarConst:
      return {1, l.a, 0, l.c};
    case LiteralKind::kVarVar:
      return {2, std::min(l.a, l.b), std::max(l.a, l.b), 0};
  }
  return {0, 0, 0, 0};
}

/// Expands a bitset over `pool` into the corresponding literal vector.
inline std::vector<Literal> LitsOfMask(const LitMask& mask,
                                       const std::vector<Literal>& pool) {
  std::vector<Literal> lits;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (mask.test(i)) lits.push_back(pool[i]);
  }
  return lits;
}

/// Number of wildcard labels in a pattern (used to order processing:
/// general patterns first, so reduced-GFD filtering catches concrete
/// duplicates).
inline size_t WildcardCount(const Pattern& p) {
  size_t c = 0;
  for (VarId v = 0; v < p.NumNodes(); ++v) {
    if (p.NodeLabel(v) == kWildcardLabel) ++c;
  }
  for (const auto& e : p.edges()) {
    if (e.label == kWildcardLabel) ++c;
  }
  return c;
}

}  // namespace gfd

#endif  // GFD_CORE_LATTICE_UTIL_H_
