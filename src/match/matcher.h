// Subgraph-isomorphism matching of patterns against data graphs.
//
// Semantics (Section 2.1): a match of Q[x-bar] in G is an injective mapping
// h from pattern variables to graph nodes such that
//   (1) L(h(u)) matches Q's (possibly wildcard) node label, and
//   (2) for every pattern edge (u,u',l) there is a graph edge
//       h(u) -> h(u') whose label matches l.
// This is non-induced subgraph isomorphism on a directed multigraph; the
// paper's G' is the image subgraph, so extra edges among matched nodes are
// irrelevant.
//
// The matcher compiles a pattern once into a variable ordering rooted at
// the pivot (exploiting the data locality of Section 4.1: all matched nodes
// lie within the pattern radius of the pivot), then backtracks per pivot
// candidate -- or, for a pair-rooted plan, per (pivot, second variable)
// node pair. All discovery-side queries -- supp(Q,G), Q(G,Xl,z),
// validation -- are phrased as per-pivot callbacks with early exit.
//
// Enumeration is generic over the graph type: any type exposing the
// PropertyGraph read interface (NodeLabel, Out/InEdges, EdgeSrc/Dst/Label,
// Out/InDegree, HasEdge, NodesWithLabel, NumNodes) works. The library
// instantiates the plans for PropertyGraph and for the delta-overlay
// GraphView (graph/graph_view.h) in matcher.cc, which is what lets the
// incremental detection path run one compiled plan against the pre- and
// post-update graphs.
#ifndef GFD_MATCH_MATCHER_H_
#define GFD_MATCH_MATCHER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "pattern/pattern.h"
#include "util/ids.h"

namespace gfd {

/// A complete match: graph node per pattern variable (indexed by VarId).
using Match = std::vector<NodeId>;

/// Budgets and counters for a matching run.
struct MatchOptions {
  /// Upper bound on backtracking steps (candidate attempts) before the
  /// matcher gives up; protects un-pruned baselines from runaway patterns.
  uint64_t max_steps = std::numeric_limits<uint64_t>::max();
};

struct MatchCounters {
  uint64_t steps = 0;           ///< candidate attempts
  uint64_t matches_found = 0;   ///< callbacks fired
  bool budget_exhausted = false;
};

/// A pattern compiled into a pivot-rooted search plan. Reusable across any
/// number of graphs/pivots; immutable after construction.
///
/// A plan binds the pivot first and then one variable per step, each
/// adjacent to one already bound. A pair-rooted plan fixes the second
/// step too: compiled with `second`, a neighbour of the pivot, it binds
/// that variable right after the pivot, so ForEachMatchAtPair can pin
/// both ends of one pattern edge -- the incremental step diff's work
/// unit for a changed edge (detect/engine.h).
class CompiledPattern {
 public:
  /// Precondition: q.IsConnected() (discovery only spawns connected
  /// patterns). Disconnected patterns are rejected with an assert. When
  /// `second` is not kNoVar it must be adjacent to, and differ from,
  /// q.pivot(); it is then bound second, and the rest keep the greedy
  /// order.
  explicit CompiledPattern(const Pattern& q, VarId second = kNoVar);

  const Pattern& pattern() const { return pattern_; }

  /// The variable the plan binds right after the pivot (kNoVar for a
  /// one-variable pattern).
  VarId SecondVar() const { return steps_.size() > 1 ? steps_[1].var : kNoVar; }

  /// Enumerates matches with h(pivot) = v. The callback returns false to
  /// stop early (within this pivot). Returns false iff the step budget was
  /// exhausted mid-enumeration (results may be incomplete). GraphT is
  /// PropertyGraph or GraphView (instantiated in matcher.cc).
  template <typename GraphT>
  bool ForEachMatchAtPivot(
      const GraphT& g, NodeId v,
      const std::function<bool(const Match&)>& on_match,
      const MatchOptions& opts = {}, MatchCounters* counters = nullptr) const;

  /// Enumerates the matches with h(pivot) = a and h(SecondVar()) = b.
  /// Since b is not reached through an adjacency walk, every pattern edge
  /// between the two variables is probed on `g`, the one the plan would
  /// have walked included, so an edge absent from this graph admits no
  /// match. Precondition: the pattern has at least two variables.
  /// Callback semantics and return value as ForEachMatchAtPivot.
  template <typename GraphT>
  bool ForEachMatchAtPair(
      const GraphT& g, NodeId a, NodeId b,
      const std::function<bool(const Match&)>& on_match,
      const MatchOptions& opts = {}, MatchCounters* counters = nullptr) const;

  /// Enumerates all matches in G (all pivots). Callback semantics as above,
  /// except returning false aborts the entire enumeration.
  template <typename GraphT>
  bool ForEachMatch(const GraphT& g,
                    const std::function<bool(const Match&)>& on_match,
                    const MatchOptions& opts = {},
                    MatchCounters* counters = nullptr) const;

  /// Whether v passes the pivot step's label and degree lower bounds,
  /// the checks ForEachMatchAtPivot rejects a node on before enumerating
  /// anything -- an admitted node still needs the full match test.
  template <typename GraphT>
  bool AdmitsPivot(const GraphT& g, NodeId v) const {
    const Step& s0 = steps_[0];
    return LabelMatches(g.NodeLabel(v), s0.label) &&
           g.OutDegree(v) >= s0.min_out_deg && g.InDegree(v) >= s0.min_in_deg;
  }

  /// The label of the pivot step: candidate pivots are
  /// g.NodesWithLabel(PivotLabel()), or every node for a wildcard.
  LabelId PivotLabel() const { return steps_[0].label; }

  /// Candidate pivot nodes of G: the nodes AdmitsPivot accepts, read off
  /// the label index.
  template <typename GraphT>
  std::vector<NodeId> PivotCandidates(const GraphT& g) const;

 private:
  struct EdgeCheck {
    VarId other;        // already-bound variable on the far end
    bool out;           // true: current -> other, false: other -> current
    LabelId label;      // pattern edge label
  };
  struct Step {
    VarId var;              // variable bound at this step
    LabelId label;          // its node label
    VarId anchor;           // bound variable adjacent to var (kNoVar: none)
    bool anchor_out;        // true: anchor -> var
    LabelId anchor_label;   // label of the anchor edge
    std::vector<EdgeCheck> checks;  // remaining incident edges to verify
    uint32_t min_out_deg;   // degree lower bounds from the pattern
    uint32_t min_in_deg;
  };

  // Whether `cand` may be bound at step `s` given the partial match h:
  // its label and degree bounds, injectivity, and the step's checks.
  // The step's anchor edge is not probed: the adjacency walk that
  // produced `cand` already holds it. The matcher's hottest code, run
  // per candidate, so it is inlined into both of its callers.
  template <typename GraphT>
  [[gnu::always_inline]] bool Extends(const GraphT& g, const Step& s,
                                      NodeId cand, const Match& h) const;

  template <typename GraphT>
  bool Backtrack(const GraphT& g, size_t depth, Match& h,
                 const std::function<bool(const Match&)>& on_match,
                 const MatchOptions& opts, MatchCounters& counters,
                 bool& stop) const;

  Pattern pattern_;
  std::vector<Step> steps_;  // steps_[0].var == pivot
};

// The enumeration templates are defined in matcher.cc and explicitly
// instantiated there for the two graph types of the library.
extern template bool CompiledPattern::ForEachMatchAtPivot<PropertyGraph>(
    const PropertyGraph&, NodeId, const std::function<bool(const Match&)>&,
    const MatchOptions&, MatchCounters*) const;
extern template bool CompiledPattern::ForEachMatchAtPivot<GraphView>(
    const GraphView&, NodeId, const std::function<bool(const Match&)>&,
    const MatchOptions&, MatchCounters*) const;
extern template bool CompiledPattern::ForEachMatchAtPair<PropertyGraph>(
    const PropertyGraph&, NodeId, NodeId,
    const std::function<bool(const Match&)>&, const MatchOptions&,
    MatchCounters*) const;
extern template bool CompiledPattern::ForEachMatchAtPair<GraphView>(
    const GraphView&, NodeId, NodeId, const std::function<bool(const Match&)>&,
    const MatchOptions&, MatchCounters*) const;
extern template bool CompiledPattern::ForEachMatch<PropertyGraph>(
    const PropertyGraph&, const std::function<bool(const Match&)>&,
    const MatchOptions&, MatchCounters*) const;
extern template bool CompiledPattern::ForEachMatch<GraphView>(
    const GraphView&, const std::function<bool(const Match&)>&,
    const MatchOptions&, MatchCounters*) const;
extern template std::vector<NodeId>
CompiledPattern::PivotCandidates<PropertyGraph>(const PropertyGraph&) const;
extern template std::vector<NodeId> CompiledPattern::PivotCandidates<GraphView>(
    const GraphView&) const;

/// Q(G,z): distinct pivot nodes that admit at least one match (pattern
/// support, Section 4.2). Sorted ascending.
std::vector<NodeId> PivotSupportSet(const PropertyGraph& g,
                                    const CompiledPattern& q,
                                    const MatchOptions& opts = {});

/// |Q(G,z)| convenience wrapper.
uint64_t PatternSupport(const PropertyGraph& g, const CompiledPattern& q,
                        const MatchOptions& opts = {});

/// True iff Q has at least one match in G.
bool HasAnyMatch(const PropertyGraph& g, const CompiledPattern& q,
                 const MatchOptions& opts = {});

/// Total number of matches (isomorphic images counted per variable
/// assignment). Used by tests and the AMIE baseline.
uint64_t CountMatches(const PropertyGraph& g, const CompiledPattern& q,
                      const MatchOptions& opts = {});

}  // namespace gfd

#endif  // GFD_MATCH_MATCHER_H_
