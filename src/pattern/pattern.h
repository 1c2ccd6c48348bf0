// Graph patterns Q[x-bar] (Section 2.1 of the paper).
//
// A pattern is a small directed graph whose nodes are the variables x-bar
// (the bijection mu is the identity on indices: variable i <=> node i).
// Node and edge labels may be the wildcard '_' (kWildcardLabel). One
// variable is designated the *pivot* z; pattern support is counted as the
// number of distinct graph nodes the pivot can match (Section 4.2).
#ifndef GFD_PATTERN_PATTERN_H_
#define GFD_PATTERN_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "util/ids.h"

namespace gfd {

/// One directed pattern edge between variables.
struct PatternEdge {
  VarId src;
  VarId dst;
  LabelId label;

  friend bool operator==(const PatternEdge&, const PatternEdge&) = default;
};

/// A graph pattern Q[x-bar] with a designated pivot variable.
///
/// Patterns are tiny (|x-bar| <= k, typically k <= 6) and mutable: the
/// discovery lattice grows them edge by edge (VSpawn). They are cheap to
/// copy.
class Pattern {
 public:
  Pattern() = default;

  /// Adds a variable/node with the given (possibly wildcard) label;
  /// returns its VarId.
  VarId AddNode(LabelId label) {
    node_labels_.push_back(label);
    return static_cast<VarId>(node_labels_.size() - 1);
  }

  /// Adds a directed edge src -> dst with the given label.
  void AddEdge(VarId src, VarId dst, LabelId label) {
    edges_.push_back({src, dst, label});
  }

  size_t NumNodes() const { return node_labels_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  LabelId NodeLabel(VarId v) const { return node_labels_[v]; }
  void SetNodeLabel(VarId v, LabelId l) { node_labels_[v] = l; }

  const std::vector<PatternEdge>& edges() const { return edges_; }
  PatternEdge& mutable_edge(size_t i) { return edges_[i]; }

  VarId pivot() const { return pivot_; }
  void set_pivot(VarId z) { pivot_ = z; }

  /// True iff every pair of nodes is connected by an undirected path
  /// (the paper restricts discovery to connected patterns, Section 4).
  bool IsConnected() const;

  /// Radius d_Q at the pivot: the longest undirected shortest-path
  /// distance from the pivot to any node. Returns 0 for single nodes.
  /// Precondition: IsConnected().
  size_t RadiusAtPivot() const;

  /// Variables adjacent (in either direction) to `v`.
  std::vector<VarId> Neighbors(VarId v) const;

  /// Human-readable rendering, resolving label names via `g`'s interner.
  /// Example: "Q[x0:person, x1:product | x0 -create-> x1 | pivot=x0]".
  std::string ToString(const PropertyGraph& g) const;
  /// View overload: labels past the base interner resolve through the
  /// view's extension vocabulary.
  std::string ToString(const GraphView& g) const;

  friend bool operator==(const Pattern&, const Pattern&) = default;

 private:
  std::vector<LabelId> node_labels_;
  std::vector<PatternEdge> edges_;
  VarId pivot_ = 0;
};

/// Builds the single-node pattern with the given label and pivot on it.
Pattern SingleNodePattern(LabelId label);

/// Builds the single-edge pattern src_label -elabel-> dst_label with the
/// pivot on the source variable.
Pattern SingleEdgePattern(LabelId src_label, LabelId edge_label,
                          LabelId dst_label);

}  // namespace gfd

#endif  // GFD_PATTERN_PATTERN_H_
