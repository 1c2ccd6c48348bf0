#include "gfd/validation.h"

#include <algorithm>

namespace gfd {

GfdCheckResult EvaluateGfd(const PropertyGraph& g, const CompiledPattern& cq,
                           const Gfd& phi, const MatchOptions& opts,
                           bool abort_on_violation) {
  GfdCheckResult result;
  for (NodeId v : cq.PivotCandidates(g)) {
    bool any = false, supports = false, violates = false;
    cq.ForEachMatchAtPivot(
        g, v,
        [&](const Match& m) {
          any = true;
          if (MatchSatisfiesAll(g, m, phi.lhs)) {
            if (MatchSatisfies(g, m, phi.rhs)) {
              supports = true;
            } else {
              violates = true;
            }
          }
          // Stop once this pivot can teach us nothing more.
          return !(supports && violates);
        },
        opts);
    if (any) ++result.pattern_support;
    if (supports) ++result.gfd_support;
    if (violates) {
      ++result.violating_pivots;
      result.satisfied = false;
      if (abort_on_violation) return result;
    }
  }
  return result;
}

bool SatisfiesGfd(const PropertyGraph& g, const Gfd& phi,
                  const MatchOptions& opts) {
  CompiledPattern cq(phi.pattern);
  return EvaluateGfd(g, cq, phi, opts, /*abort_on_violation=*/true).satisfied;
}

bool SatisfiesAll(const PropertyGraph& g, std::span<const Gfd> sigma,
                  const MatchOptions& opts) {
  for (const auto& phi : sigma) {
    if (!SatisfiesGfd(g, phi, opts)) return false;
  }
  return true;
}

uint64_t CountSupportingPivots(const PropertyGraph& g,
                               const CompiledPattern& cq,
                               const std::vector<Literal>& lits,
                               bool any_only, const MatchOptions& opts) {
  uint64_t count = 0;
  for (NodeId v : cq.PivotCandidates(g)) {
    bool found = false;
    cq.ForEachMatchAtPivot(
        g, v,
        [&](const Match& m) {
          if (MatchSatisfiesAll(g, m, lits)) {
            found = true;
            return false;
          }
          return true;
        },
        opts);
    if (found) {
      ++count;
      if (any_only) return count;
    }
  }
  return count;
}

std::vector<Match> FindViolations(const PropertyGraph& g, const Gfd& phi,
                                  size_t limit, const MatchOptions& opts) {
  std::vector<Match> out;
  if (limit == 0) return out;
  CompiledPattern cq(phi.pattern);
  cq.ForEachMatch(
      g,
      [&](const Match& m) {
        if (MatchSatisfiesAll(g, m, phi.lhs) &&
            !MatchSatisfies(g, m, phi.rhs)) {
          out.push_back(m);
          if (out.size() >= limit) return false;
        }
        return true;
      },
      opts);
  return out;
}

std::vector<NodeId> ViolationNodes(const PropertyGraph& g,
                                   std::span<const Gfd> sigma,
                                   const MatchOptions& opts) {
  std::vector<NodeId> nodes;
  for (const auto& phi : sigma) {
    CompiledPattern cq(phi.pattern);
    cq.ForEachMatch(
        g,
        [&](const Match& m) {
          if (!MatchSatisfiesAll(g, m, phi.lhs) ||
              MatchSatisfies(g, m, phi.rhs)) {
            return true;
          }
          if (phi.rhs.IsFalse()) {
            nodes.insert(nodes.end(), m.begin(), m.end());
          } else {
            nodes.push_back(m[phi.rhs.x]);
            if (phi.rhs.kind == LiteralKind::kVarVar) {
              nodes.push_back(m[phi.rhs.y]);
            }
          }
          return true;
        },
        opts);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace gfd
