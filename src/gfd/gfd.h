// Graph functional dependencies Q[x-bar](X -> l) in normal form
// (Section 2.2): the consequence is a single literal, possibly `false`.
#ifndef GFD_GFD_GFD_H_
#define GFD_GFD_GFD_H_

#include <string>
#include <vector>

#include "gfd/literal.h"
#include "match/matcher.h"
#include "pattern/pattern.h"

namespace gfd {

/// A GFD in normal form. `lhs` (the paper's X) is kept sorted and
/// duplicate-free so GFD equality is syntactic.
struct Gfd {
  Pattern pattern;
  std::vector<Literal> lhs;
  Literal rhs = Literal::False();

  Gfd() = default;
  Gfd(Pattern q, std::vector<Literal> x, Literal l);

  /// True when the consequence is `false` (the syntactic shape of negative
  /// GFDs; whether X is satisfiable is a separate, semantic question --
  /// see IsTrivialGfd in problems.h).
  bool HasFalseRhs() const { return rhs.IsFalse(); }

  size_t NumVars() const { return pattern.NumNodes(); }

  std::string ToString(const PropertyGraph& g) const;
  /// View overload: rule text names overlay-only vocabulary too.
  std::string ToString(const GraphView& g) const;

  friend bool operator==(const Gfd&, const Gfd&) = default;
};

/// Applies variable mapping f (indexed by old VarId) to a literal.
Literal MapLiteral(const Literal& l, const std::vector<VarId>& f);

/// Canonicalizes an LHS: sort + unique.
void NormalizeLhs(std::vector<Literal>& lhs);

// --- Satisfaction of literals by matches (Section 2.2) ----------------------

/// Does match h satisfy literal l? Missing attributes make the literal
/// unsatisfied (for both LHS and RHS; the asymmetric treatment of missing
/// attributes in the paper is exactly this plus the implication direction).
/// kFalse is never satisfied. This is the reference semantics: the
/// detection engine compiles the same test into slot compares
/// (detect/engine.h), and its oracles compare against this one.
bool MatchSatisfies(const PropertyGraph& g, const Match& h, const Literal& l);

/// h |= X: all literals satisfied.
bool MatchSatisfiesAll(const PropertyGraph& g, const Match& h,
                       const std::vector<Literal>& lits);

/// The GFD reduction order phi1 << phi2 (Section 4.1): a pivot-preserving
/// embedding f of phi1's pattern into phi2's with f(X1) ⊆ X2, f(l1) = l2,
/// and strictness (Q1 << Q2 via f, or f(X1) ⊊ X2).
bool GfdReduces(const Gfd& phi1, const Gfd& phi2);

}  // namespace gfd

#endif  // GFD_GFD_GFD_H_
