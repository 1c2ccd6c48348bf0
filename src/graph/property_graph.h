// The property-graph data model of the paper (Section 2.1):
// directed graphs G = (V, E, L, F_A) where nodes and edges carry labels
// from an alphabet Theta and every node carries a tuple of attributes
// F_A(v) = (A1 = a1, ..., An = an).
//
// The graph is built once through PropertyGraph::Builder and is immutable
// (and therefore freely shared across threads) afterwards. Adjacency is
// stored in CSR form, out- and in-directed, with per-node edge lists sorted
// by (neighbor, label) so that edge-existence probes are O(log deg).
#ifndef GFD_GRAPH_PROPERTY_GRAPH_H_
#define GFD_GRAPH_PROPERTY_GRAPH_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/interner.h"

namespace gfd {

/// One attribute of a node: key id + value id (both interned).
struct Attribute {
  AttrId key;
  ValueId value;

  friend bool operator==(const Attribute&, const Attribute&) = default;
};

/// Immutable directed labeled multigraph with node attributes.
class PropertyGraph {
 public:
  /// Incrementally assembles a PropertyGraph. String-based helpers intern
  /// labels/attributes on the fly; id-based helpers exist for generators
  /// that pre-intern their vocabulary.
  class Builder {
   public:
    Builder();

    /// Adds a node with label `label` and returns its id.
    NodeId AddNode(std::string_view label);
    /// Adds a node with a pre-interned label id.
    NodeId AddNodeById(LabelId label);

    /// Attaches attribute key=value to node v (last write wins per key).
    void SetAttr(NodeId v, std::string_view key, std::string_view value);
    void SetAttrById(NodeId v, AttrId key, ValueId value);

    /// Adds a directed edge src -> dst with label `label`.
    void AddEdge(NodeId src, NodeId dst, std::string_view label);
    void AddEdgeById(NodeId src, NodeId dst, LabelId label);

    /// Optional human-readable name for node v (used by loaders/examples).
    void SetName(NodeId v, std::string_view name);

    /// Interns a label (shared node/edge alphabet Theta).
    LabelId InternLabel(std::string_view s) { return labels_.Intern(s); }
    AttrId InternAttr(std::string_view s) { return attrs_.Intern(s); }
    ValueId InternValue(std::string_view s) { return values_.Intern(s); }

    size_t num_nodes() const { return node_labels_.size(); }
    size_t num_edges() const { return edge_src_.size(); }

    /// Finalizes into an immutable graph. The builder is consumed.
    PropertyGraph Build() &&;

   private:
    friend class PropertyGraph;
    StringInterner labels_;
    StringInterner attrs_;
    StringInterner values_;
    std::vector<LabelId> node_labels_;
    std::vector<std::vector<Attribute>> node_attrs_;
    std::vector<NodeId> edge_src_;
    std::vector<NodeId> edge_dst_;
    std::vector<LabelId> edge_label_;
    std::vector<std::string> node_names_;
  };

  PropertyGraph() = default;

  // --- Size ---------------------------------------------------------------
  size_t NumNodes() const { return node_labels_.size(); }
  size_t NumEdges() const { return edge_src_.size(); }

  // --- Nodes ---------------------------------------------------------------
  LabelId NodeLabel(NodeId v) const { return node_labels_[v]; }

  /// Attributes of v, sorted by key id.
  std::span<const Attribute> NodeAttrs(NodeId v) const {
    return {attr_data_.data() + attr_offsets_[v],
            attr_offsets_[v + 1] - attr_offsets_[v]};
  }

  /// Value of attribute `key` at node v, if present. Inline: the
  /// detection kernel reads one per slot per match.
  std::optional<ValueId> GetAttr(NodeId v, AttrId key) const {
    // Attribute lists are short (paper: <= 7 per node); a linear scan
    // is fastest.
    for (const Attribute& a : NodeAttrs(v)) {
      if (a.key == key) return a.value;
      if (a.key > key) break;  // sorted by key
    }
    return std::nullopt;
  }

  /// All nodes carrying label `label` (empty span for unknown labels).
  std::span<const NodeId> NodesWithLabel(LabelId label) const;

  /// Human-readable node name if the source data provided one, else "".
  const std::string& NodeName(NodeId v) const;

  /// The name v answers to in TSV files (graph/loader.h): its own name,
  /// or "n<id>" when it has none. The one home of that alias rule; the
  /// TSV savers write it and FindNode resolves it.
  std::string NodeAlias(NodeId v) const;

  /// The node whose NodeAlias is `name`, or nullopt. When several nodes
  /// answer to one name (a node named "n5" beside unnamed node 5), the
  /// lowest id wins. O(1) expected, through a hash table Build() lays
  /// down once, with no allocation.
  std::optional<NodeId> FindNode(std::string_view name) const;

  /// The 32-bit hash FindNode's table keys aliases by.
  static uint32_t NodeNameHash(std::string_view name);

  // --- Edges ---------------------------------------------------------------
  NodeId EdgeSrc(EdgeId e) const { return edge_src_[e]; }
  NodeId EdgeDst(EdgeId e) const { return edge_dst_[e]; }
  LabelId EdgeLabel(EdgeId e) const { return edge_label_[e]; }

  /// Out-edges of v as edge ids, sorted by (dst, label).
  std::span<const EdgeId> OutEdges(NodeId v) const {
    return {out_edges_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// In-edges of v as edge ids, sorted by (src, label).
  std::span<const EdgeId> InEdges(NodeId v) const {
    return {in_edges_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t OutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  size_t Degree(NodeId v) const { return OutDegree(v) + InDegree(v); }

  /// True iff an edge src -> dst with label matching `label` exists
  /// (`label` may be the wildcard, which matches any edge label).
  bool HasEdge(NodeId src, NodeId dst, LabelId label) const;

  // --- Vocabulary ----------------------------------------------------------
  const StringInterner& labels() const { return labels_; }
  const StringInterner& attrs() const { return attrs_; }
  const StringInterner& values() const { return values_; }

  /// Lookup helpers; return kWildcardLabel/kNoValue-style sentinels only via
  /// std::optional to keep misuse visible.
  std::optional<LabelId> FindLabel(std::string_view s) const {
    return labels_.Find(s);
  }
  std::optional<AttrId> FindAttr(std::string_view s) const {
    return attrs_.Find(s);
  }
  std::optional<ValueId> FindValue(std::string_view s) const {
    return values_.Find(s);
  }

  const std::string& LabelName(LabelId l) const { return labels_.Get(l); }
  const std::string& AttrName(AttrId a) const { return attrs_.Get(a); }
  const std::string& ValueName(ValueId v) const { return values_.Get(v); }

  /// Maximum node degree (paper's parameter d in Theorem 1(b)).
  size_t MaxDegree() const;

 private:
  friend class Builder;

  StringInterner labels_;
  StringInterner attrs_;
  StringInterner values_;

  std::vector<LabelId> node_labels_;
  std::vector<uint32_t> attr_offsets_;  // NumNodes()+1 entries
  std::vector<Attribute> attr_data_;

  std::vector<NodeId> edge_src_;
  std::vector<NodeId> edge_dst_;
  std::vector<LabelId> edge_label_;

  std::vector<uint32_t> out_offsets_;
  std::vector<EdgeId> out_edges_;
  std::vector<uint32_t> in_offsets_;
  std::vector<EdgeId> in_edges_;

  // Nodes grouped by label: label_index_offsets_[l]..[l+1] into label_nodes_.
  std::vector<uint32_t> label_index_offsets_;
  std::vector<NodeId> label_nodes_;

  std::vector<std::string> node_names_;

  // An open-addressing table over NodeNameHash(NodeAlias(v)): a power of
  // two of at least 2 |V| slots, each a node id or kNoNode, filled by
  // linear probing in id order, so along one name's probe the lowest id
  // answering to it comes first. No copied strings: a slot is confirmed
  // against its node's alias.
  std::vector<NodeId> name_slots_;
};

}  // namespace gfd

#endif  // GFD_GRAPH_PROPERTY_GRAPH_H_
