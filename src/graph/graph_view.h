// Update streams over immutable graphs: GraphDelta + GraphView.
//
// The serving workload is not a one-shot scan -- it is a stream of small
// updates against a large, mostly-stable graph. PropertyGraph is immutable
// CSR (property_graph.h), which is exactly right for the read-heavy side
// but cannot absorb updates. A GraphDelta is an ordered batch of updates
// (edge insert, edge delete, attribute set); a GraphView applies one on
// top of a base PropertyGraph *without rebuilding it*: adjacency is
// materialized only for the nodes the delta touches (every other node
// reads the base CSR spans untouched), attributes are a small overlay,
// and vocabulary the base graph never interned lives in an id-space
// extension past the base interner sizes.
//
// The view satisfies the same read interface the matcher and the
// detection kernel consume (match/matcher.h and detect/engine.h are
// templated over the graph type), so every query -- subgraph isomorphism,
// violation detection -- runs against a view exactly as it runs against a
// graph. GraphView::Materialize() compacts a view back into a standalone
// PropertyGraph (ids preserved), which is how snapshots are rolled
// forward under repeated delta application.
//
// A view changes one way: AbsorbAppended applies the ops a delta gained
// since the view last absorbed it, in place. Apply is an empty view plus
// one absorb of the whole delta, and a serving backend's live graph
// (graph/live_graph.h) absorbs each batch as it arrives.
//
// Overlay lookups are O(1): a dense per-node index (three uint32_t per
// node: out-list, in-list and attribute-list slot, or kUntouched) says
// whether and where a node's state is overlaid. That costs 12 bytes per
// node per view and an O(|V|) fill when a view is built; absorbing keeps
// the index current in O(batch), so a live graph pays the fill only when
// it builds a view (open, compaction, rollback).
#ifndef GFD_GRAPH_GRAPH_VIEW_H_
#define GFD_GRAPH_GRAPH_VIEW_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "graph/property_graph.h"
#include "util/ids.h"

namespace gfd {

/// An ordered batch of graph updates. Ops reference the base graph's node
/// ids and vocabulary ids; strings the base graph never interned are
/// appended to the extra_* tables and referenced by ids past the base
/// interner sizes (Intern* helpers do the bookkeeping).
struct GraphDelta {
  enum class OpKind : uint8_t {
    kInsertEdge,  ///< add edge src -label-> dst
    kDeleteEdge,  ///< remove one edge src -label-> dst (exact label)
    kSetAttr,     ///< set src.key = value (insert-or-overwrite)
  };

  struct Op {
    OpKind kind;
    NodeId src = kNoNode;      ///< edge source / attribute's node
    NodeId dst = kNoNode;      ///< edge destination (edge ops only)
    LabelId label = 0;         ///< edge label (edge ops only)
    AttrId key = 0;            ///< attribute key (kSetAttr only)
    ValueId value = kNoValue;  ///< attribute value (kSetAttr only)

    friend bool operator==(const Op&, const Op&) = default;
  };

  std::vector<Op> ops;
  /// Vocabulary beyond the base graph's interners; id of extra_labels[i]
  /// is base.labels().size() + i (same scheme for attrs and values).
  std::vector<std::string> extra_labels;
  std::vector<std::string> extra_attrs;
  std::vector<std::string> extra_values;

  void InsertEdge(NodeId src, NodeId dst, LabelId label) {
    ops.push_back({OpKind::kInsertEdge, src, dst, label, 0, kNoValue});
  }
  void DeleteEdge(NodeId src, NodeId dst, LabelId label) {
    ops.push_back({OpKind::kDeleteEdge, src, dst, label, 0, kNoValue});
  }
  void SetAttr(NodeId v, AttrId key, ValueId value) {
    ops.push_back({OpKind::kSetAttr, v, kNoNode, 0, key, value});
  }

  /// Resolves `s` against the base interner, then against the extras,
  /// appending a fresh extension id when unseen. Deltas are small, so the
  /// extras are scanned linearly.
  LabelId InternLabel(const PropertyGraph& base, std::string_view s);
  AttrId InternAttr(const PropertyGraph& base, std::string_view s);
  ValueId InternValue(const PropertyGraph& base, std::string_view s);

  /// Name of a (possibly extension) id under this delta's vocabulary.
  const std::string& LabelName(const PropertyGraph& base, LabelId l) const;
  const std::string& AttrName(const PropertyGraph& base, AttrId a) const;
  const std::string& ValueName(const PropertyGraph& base, ValueId v) const;

  /// Appends `other` -- a delta over the same `base` -- to this one: ops
  /// are concatenated in stream order and `other`'s extension vocabulary
  /// is re-interned *by name*, so two batches that each introduced the
  /// same new string agree on its id in the merged delta. This is how a
  /// parsed batch is re-expressed in a live overlay's id space
  /// (LiveGraph::Parse).
  void Append(const PropertyGraph& base, const GraphDelta& other);

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }
};

/// A base graph with one delta applied on top. Read-only once built;
/// cheap to build (one O(|V|) index fill, then cost proportional to the
/// delta and the degrees of the touched nodes). Keeps a pointer to the
/// base graph, which must outlive the view; the delta is copied out and
/// need not.
///
/// Edge-id space: ids < base.NumEdges() are base edges, ids >= that index
/// the view's inserted-edge table. Deleted edges simply never appear in
/// any adjacency list.
class GraphView {
 public:
  /// Applies `delta` to `base`: an empty view over `base` that absorbs
  /// the whole delta (AbsorbAppended(delta, 0)). Returns nullopt (and
  /// sets *error to a message naming the offending op, "op N: ...") when
  /// an op references an out-of-range node/vocabulary id or deletes an
  /// edge that does not exist at that point of the stream.
  static std::optional<GraphView> Apply(const PropertyGraph& base,
                                        const GraphDelta& delta,
                                        std::string* error = nullptr);

  const PropertyGraph& base() const { return *base_; }

  // --- Size ----------------------------------------------------------------
  size_t NumNodes() const { return base_->NumNodes(); }
  size_t NumEdges() const { return num_edges_; }

  // --- Nodes (labels and names are delta-invariant) ------------------------
  LabelId NodeLabel(NodeId v) const { return base_->NodeLabel(v); }
  std::span<const NodeId> NodesWithLabel(LabelId label) const {
    return base_->NodesWithLabel(label);
  }
  const std::string& NodeName(NodeId v) const { return base_->NodeName(v); }

  /// Value of attribute `key` at node v under the overlay.
  std::optional<ValueId> GetAttr(NodeId v, AttrId key) const {
    if (const std::vector<Attribute>* overlay = OverlayAttrs(v)) {
      for (const Attribute& a : *overlay) {
        if (a.key == key) return a.value;
      }
    }
    return base_->GetAttr(v, key);
  }

  /// All attributes of v under the overlay (base attrs with overlay
  /// values winning per key), sorted by key. Allocates; meant for
  /// shipping or serializing a node's state, not for hot match loops.
  std::vector<Attribute> NodeAttrs(NodeId v) const;

  // --- Edges ---------------------------------------------------------------
  NodeId EdgeSrc(EdgeId e) const {
    return e < base_edges_ ? base_->EdgeSrc(e) : added_[e - base_edges_].src;
  }
  NodeId EdgeDst(EdgeId e) const {
    return e < base_edges_ ? base_->EdgeDst(e) : added_[e - base_edges_].dst;
  }
  LabelId EdgeLabel(EdgeId e) const {
    return e < base_edges_ ? base_->EdgeLabel(e)
                           : added_[e - base_edges_].label;
  }

  /// Out-edges of v, sorted by (dst, label); the base CSR span when v's
  /// out-adjacency is untouched by the delta.
  std::span<const EdgeId> OutEdges(NodeId v) const {
    if (out_index_[v] == kUntouched) return base_->OutEdges(v);
    return out_lists_[out_index_[v]];
  }
  /// In-edges of v, sorted by (src, label).
  std::span<const EdgeId> InEdges(NodeId v) const {
    if (in_index_[v] == kUntouched) return base_->InEdges(v);
    return in_lists_[in_index_[v]];
  }

  size_t OutDegree(NodeId v) const { return OutEdges(v).size(); }
  size_t InDegree(NodeId v) const { return InEdges(v).size(); }
  size_t Degree(NodeId v) const { return OutDegree(v) + InDegree(v); }

  /// True iff an edge src -> dst with a label matching `label` exists in
  /// the view (`label` may be the wildcard).
  bool HasEdge(NodeId src, NodeId dst, LabelId label) const;

  // --- Vocabulary (base + delta extension ids) -----------------------------
  const std::string& LabelName(LabelId l) const;
  const std::string& AttrName(AttrId a) const;
  const std::string& ValueName(ValueId v) const;
  std::optional<LabelId> FindLabel(std::string_view s) const;
  std::optional<AttrId> FindAttr(std::string_view s) const;
  std::optional<ValueId> FindValue(std::string_view s) const;

  // --- Delta introspection -------------------------------------------------
  size_t NumDeltaOps() const { return num_ops_; }
  size_t NumInsertedEdges() const { return inserted_alive_; }
  size_t NumDeletedEdges() const {
    return deleted_base_.size() + deleted_inserted_;
  }
  size_t NumAttrSets() const { return attr_sets_; }

  /// Compacts the view into a standalone PropertyGraph. Node ids, label /
  /// attribute / value ids (including delta extensions), and node names
  /// are preserved, so query results over the materialized graph compare
  /// equal to results over the view; edge ids are renumbered.
  PropertyGraph Materialize() const;

  // --- Incremental (in-place) apply ----------------------------------------
  /// Dry-run of AbsorbAppended: checks that the ops `delta` gained since
  /// this view last absorbed it -- ops[first_op, delta.size()) -- can
  /// apply on top of the current view state. Cost is O(batch + touched
  /// degrees), independent of the overlay size. Error text is "op N:
  /// ...", N 1-based from ops[first_op]: the op's place in the batch
  /// being absorbed, however long the overlay before it. Delete
  /// validity is count-based per (src, dst, label): edges with an
  /// identical key are interchangeable for existence.
  bool ValidateAppended(const GraphDelta& delta, size_t first_op,
                        std::string* error = nullptr) const;

  /// In-place incremental apply: absorbs ops[first_op, delta.size()) of
  /// `delta` into this view. Precondition: the view currently reflects
  /// exactly delta.ops[0, first_op) over the same base, and `delta`'s
  /// extension vocabulary grew append-only (GraphDelta::Append
  /// guarantees both -- this is the serving overlay's shape). Validates
  /// first; returns false with the view unchanged when the tail cannot
  /// apply. A delete takes the first edge with its key in its source's
  /// out-list, and an insert lands after every edge with its key, so
  /// absorbing a delta at once or split at any op yields the same view.
  bool AbsorbAppended(const GraphDelta& delta, size_t first_op,
                      std::string* error = nullptr);

 private:
  struct AddedEdge {
    NodeId src;
    NodeId dst;
    LabelId label;
    bool alive;  ///< false when a later delete consumed this insert
  };

  /// Index entry of a node whose state the overlay does not touch.
  static constexpr uint32_t kUntouched = UINT32_MAX;

  GraphView() = default;

  // Returns the mutable materialized list for v, copying the base span on
  // first touch.
  std::vector<EdgeId>& TouchOut(NodeId v);
  std::vector<EdgeId>& TouchIn(NodeId v);
  // Returns v's attribute overlay list, created empty on first touch.
  std::vector<Attribute>& TouchAttrs(NodeId v);
  // v's attribute overlay, or nullptr when the overlay sets none.
  const std::vector<Attribute>* OverlayAttrs(NodeId v) const {
    return attr_index_[v] == kUntouched ? nullptr
                                        : &attr_lists_[attr_index_[v]];
  }

  const PropertyGraph* base_ = nullptr;
  EdgeId base_edges_ = 0;  ///< base_->NumEdges(), the added-id offset
  size_t num_edges_ = 0;
  size_t num_ops_ = 0;
  size_t inserted_alive_ = 0;
  size_t deleted_inserted_ = 0;
  size_t attr_sets_ = 0;

  std::vector<AddedEdge> added_;
  std::unordered_set<EdgeId> deleted_base_;

  // Dense per-node index, sized NumNodes() by Apply: the node's slot in
  // the materialized adjacency lists / attribute lists, or kUntouched.
  std::vector<uint32_t> out_index_;
  std::vector<uint32_t> in_index_;
  std::vector<uint32_t> attr_index_;
  std::vector<std::vector<EdgeId>> out_lists_;
  std::vector<std::vector<EdgeId>> in_lists_;
  // Attribute overlay: per touched node, the keys the delta set.
  std::vector<std::vector<Attribute>> attr_lists_;

  std::vector<std::string> extra_labels_;
  std::vector<std::string> extra_attrs_;
  std::vector<std::string> extra_values_;
};

}  // namespace gfd

#endif  // GFD_GRAPH_GRAPH_VIEW_H_
