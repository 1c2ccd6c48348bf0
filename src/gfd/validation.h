// Validation of GFDs against a data graph (Section 3, Proposition 2):
// G |= Q[x-bar](X -> l) iff no match of Q violates X -> l. The same match
// enumeration also yields the two support quantities of Section 4.2:
//   pattern_support = |Q(G,z)|   (distinct pivots with a match)
//   gfd_support     = |Q(G,Xl,z)| (distinct pivots with a match where both
//                                  X and l hold)
// so discovery pays for one enumeration per candidate, with per-pivot
// short-circuiting once nothing new can be learned at that pivot.
#ifndef GFD_GFD_VALIDATION_H_
#define GFD_GFD_VALIDATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gfd/gfd.h"
#include "graph/property_graph.h"
#include "match/matcher.h"

namespace gfd {

/// Joint result of one validation / support pass.
struct GfdCheckResult {
  bool satisfied = true;         ///< G |= phi
  uint64_t pattern_support = 0;  ///< |Q(G,z)|
  uint64_t gfd_support = 0;      ///< |Q(G,Xl,z)|
  uint64_t violating_pivots = 0; ///< pivots witnessing a violation
};

/// Evaluates phi over all pivots of G. When `abort_on_violation` is set the
/// scan stops at the first violating pivot (supports are then lower
/// bounds) -- used by the plain validation problem; discovery needs the
/// full counts.
GfdCheckResult EvaluateGfd(const PropertyGraph& g, const CompiledPattern& cq,
                           const Gfd& phi, const MatchOptions& opts = {},
                           bool abort_on_violation = false);

/// G |= phi (compiles the pattern internally; for repeated checks use
/// EvaluateGfd with a shared CompiledPattern).
bool SatisfiesGfd(const PropertyGraph& g, const Gfd& phi,
                  const MatchOptions& opts = {});

/// G |= Sigma.
bool SatisfiesAll(const PropertyGraph& g, std::span<const Gfd> sigma,
                  const MatchOptions& opts = {});

/// Number of distinct pivots admitting a match that satisfies all of
/// `lits` (i.e. |Q(G,X,z)|). With `any_only`, stops at the first such
/// pivot and returns 1 -- the emptiness test NHSpawn needs (Section 5.1).
uint64_t CountSupportingPivots(const PropertyGraph& g,
                               const CompiledPattern& cq,
                               const std::vector<Literal>& lits,
                               bool any_only = false,
                               const MatchOptions& opts = {});

/// Up to `limit` violating matches of phi (X holds, l fails).
std::vector<Match> FindViolations(const PropertyGraph& g, const Gfd& phi,
                                  size_t limit,
                                  const MatchOptions& opts = {});

/// Union of graph nodes implicated by violations of any GFD in sigma:
/// for a violated consequence x.A = c / x.A = y.B the nodes bound to x
/// (and y); for a violated `false` the whole match. Sorted, deduplicated.
/// Drives the error-detection-accuracy experiment (Exp-5 / Fig. 7).
std::vector<NodeId> ViolationNodes(const PropertyGraph& g,
                                   std::span<const Gfd> sigma,
                                   const MatchOptions& opts = {});

}  // namespace gfd

#endif  // GFD_GFD_VALIDATION_H_
