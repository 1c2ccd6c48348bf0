#include "graph/graph_view.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace gfd {

namespace {

uint32_t InternExtra(std::vector<std::string>& extras, size_t base_size,
                     std::string_view s) {
  for (size_t i = 0; i < extras.size(); ++i) {
    if (extras[i] == s) return static_cast<uint32_t>(base_size + i);
  }
  extras.emplace_back(s);
  return static_cast<uint32_t>(base_size + extras.size() - 1);
}

const std::string& ExtName(const std::vector<std::string>& extras,
                           const StringInterner& base, uint32_t id) {
  return id < base.size() ? base.Get(id) : extras[id - base.size()];
}

}  // namespace

LabelId GraphDelta::InternLabel(const PropertyGraph& base,
                                std::string_view s) {
  if (auto l = base.FindLabel(s)) return *l;
  return InternExtra(extra_labels, base.labels().size(), s);
}

AttrId GraphDelta::InternAttr(const PropertyGraph& base, std::string_view s) {
  if (auto a = base.FindAttr(s)) return *a;
  return InternExtra(extra_attrs, base.attrs().size(), s);
}

ValueId GraphDelta::InternValue(const PropertyGraph& base,
                                std::string_view s) {
  if (auto v = base.FindValue(s)) return *v;
  return InternExtra(extra_values, base.values().size(), s);
}

const std::string& GraphDelta::LabelName(const PropertyGraph& base,
                                         LabelId l) const {
  return ExtName(extra_labels, base.labels(), l);
}

const std::string& GraphDelta::AttrName(const PropertyGraph& base,
                                        AttrId a) const {
  return ExtName(extra_attrs, base.attrs(), a);
}

const std::string& GraphDelta::ValueName(const PropertyGraph& base,
                                         ValueId v) const {
  return ExtName(extra_values, base.values(), v);
}

void GraphDelta::Append(const PropertyGraph& base, const GraphDelta& other) {
  // Adopt `other`'s full extension vocabulary first, in its table order
  // -- not lazily on first op use. Appending the same stream of deltas
  // must yield the same extension ids regardless of which ops each
  // consumer applies; the coordinator relies on this to keep every
  // fragment's vocabulary identical to the master's even though each
  // fragment only receives a routed subset of the ops.
  for (const std::string& l : other.extra_labels) InternLabel(base, l);
  for (const std::string& k : other.extra_attrs) InternAttr(base, k);
  for (const std::string& v : other.extra_values) InternValue(base, v);
  // Translate an id of `other`'s vocabulary into this delta's: base ids
  // are shared, extension ids resolve by name (interning on first sight).
  auto map_label = [&](LabelId l) {
    if (l < base.labels().size()) return l;
    return InternLabel(base, other.LabelName(base, l));
  };
  auto map_attr = [&](AttrId a) {
    if (a < base.attrs().size()) return a;
    return InternAttr(base, other.AttrName(base, a));
  };
  auto map_value = [&](ValueId v) {
    if (v < base.values().size()) return v;
    return InternValue(base, other.ValueName(base, v));
  };
  ops.reserve(ops.size() + other.ops.size());
  for (const Op& op : other.ops) {
    Op mapped = op;
    switch (op.kind) {
      case OpKind::kInsertEdge:
      case OpKind::kDeleteEdge:
        mapped.label = map_label(op.label);
        break;
      case OpKind::kSetAttr:
        mapped.key = map_attr(op.key);
        mapped.value = map_value(op.value);
        break;
    }
    ops.push_back(mapped);
  }
}

std::vector<EdgeId>& GraphView::TouchOut(NodeId v) {
  if (out_index_[v] == kUntouched) {
    out_index_[v] = static_cast<uint32_t>(out_lists_.size());
    auto span = base_->OutEdges(v);
    out_lists_.emplace_back(span.begin(), span.end());
  }
  return out_lists_[out_index_[v]];
}

std::vector<EdgeId>& GraphView::TouchIn(NodeId v) {
  if (in_index_[v] == kUntouched) {
    in_index_[v] = static_cast<uint32_t>(in_lists_.size());
    auto span = base_->InEdges(v);
    in_lists_.emplace_back(span.begin(), span.end());
  }
  return in_lists_[in_index_[v]];
}

std::vector<Attribute>& GraphView::TouchAttrs(NodeId v) {
  if (attr_index_[v] == kUntouched) {
    attr_index_[v] = static_cast<uint32_t>(attr_lists_.size());
    attr_lists_.emplace_back();
  }
  return attr_lists_[attr_index_[v]];
}

std::optional<GraphView> GraphView::Apply(const PropertyGraph& base,
                                          const GraphDelta& delta,
                                          std::string* error) {
  // An empty view over `base`, which then absorbs the whole delta: one
  // apply path, whether a delta arrives at once or batch by batch.
  GraphView view;
  view.base_ = &base;
  view.base_edges_ = static_cast<EdgeId>(base.NumEdges());
  view.num_edges_ = base.NumEdges();
  view.out_index_.assign(base.NumNodes(), kUntouched);
  view.in_index_.assign(base.NumNodes(), kUntouched);
  view.attr_index_.assign(base.NumNodes(), kUntouched);
  if (!view.AbsorbAppended(delta, 0, error)) return std::nullopt;
  return view;
}

std::vector<Attribute> GraphView::NodeAttrs(NodeId v) const {
  std::vector<Attribute> out(base_->NodeAttrs(v).begin(),
                             base_->NodeAttrs(v).end());
  if (const std::vector<Attribute>* overlay = OverlayAttrs(v)) {
    for (const Attribute& a : *overlay) {
      auto pos = std::find_if(out.begin(), out.end(), [&](const Attribute& b) {
        return b.key == a.key;
      });
      if (pos != out.end()) {
        pos->value = a.value;
      } else {
        out.push_back(a);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Attribute& a, const Attribute& b) {
    return a.key < b.key;
  });
  return out;
}

bool GraphView::HasEdge(NodeId src, NodeId dst, LabelId label) const {
  if (out_index_[src] == kUntouched) return base_->HasEdge(src, dst, label);
  const std::vector<EdgeId>& edges = out_lists_[out_index_[src]];
  // Binary search on dst (lists sorted by (dst, label)), as in the base.
  auto lo = std::lower_bound(edges.begin(), edges.end(), dst,
                             [&](EdgeId e, NodeId d) {
                               return EdgeDst(e) < d;
                             });
  for (; lo != edges.end() && EdgeDst(*lo) == dst; ++lo) {
    if (LabelMatches(EdgeLabel(*lo), label)) return true;
  }
  return false;
}

const std::string& GraphView::LabelName(LabelId l) const {
  return l < base_->labels().size() ? base_->LabelName(l)
                                    : extra_labels_[l - base_->labels().size()];
}

const std::string& GraphView::AttrName(AttrId a) const {
  return a < base_->attrs().size() ? base_->AttrName(a)
                                   : extra_attrs_[a - base_->attrs().size()];
}

const std::string& GraphView::ValueName(ValueId v) const {
  return v < base_->values().size() ? base_->ValueName(v)
                                    : extra_values_[v - base_->values().size()];
}

std::optional<LabelId> GraphView::FindLabel(std::string_view s) const {
  if (auto l = base_->FindLabel(s)) return l;
  for (size_t i = 0; i < extra_labels_.size(); ++i) {
    if (extra_labels_[i] == s) {
      return static_cast<LabelId>(base_->labels().size() + i);
    }
  }
  return std::nullopt;
}

std::optional<AttrId> GraphView::FindAttr(std::string_view s) const {
  if (auto a = base_->FindAttr(s)) return a;
  for (size_t i = 0; i < extra_attrs_.size(); ++i) {
    if (extra_attrs_[i] == s) {
      return static_cast<AttrId>(base_->attrs().size() + i);
    }
  }
  return std::nullopt;
}

std::optional<ValueId> GraphView::FindValue(std::string_view s) const {
  if (auto v = base_->FindValue(s)) return v;
  for (size_t i = 0; i < extra_values_.size(); ++i) {
    if (extra_values_[i] == s) {
      return static_cast<ValueId>(base_->values().size() + i);
    }
  }
  return std::nullopt;
}

PropertyGraph GraphView::Materialize() const {
  PropertyGraph::Builder b;
  // Reproduce the base interners in id order (the builder pre-interns the
  // wildcard, which is base label id 0), then the delta extensions, so
  // every id the view hands out stays valid in the materialized graph.
  for (uint32_t l = 0; l < base_->labels().size(); ++l) {
    b.InternLabel(base_->LabelName(l));
  }
  for (const std::string& s : extra_labels_) b.InternLabel(s);
  for (uint32_t a = 0; a < base_->attrs().size(); ++a) {
    b.InternAttr(base_->AttrName(a));
  }
  for (const std::string& s : extra_attrs_) b.InternAttr(s);
  for (uint32_t v = 0; v < base_->values().size(); ++v) {
    b.InternValue(base_->ValueName(v));
  }
  for (const std::string& s : extra_values_) b.InternValue(s);

  for (NodeId v = 0; v < NumNodes(); ++v) {
    b.AddNodeById(NodeLabel(v));
    if (!NodeName(v).empty()) b.SetName(v, NodeName(v));
    const std::vector<Attribute>* overlay = OverlayAttrs(v);
    for (const Attribute& a : base_->NodeAttrs(v)) {
      bool overridden =
          overlay && std::any_of(overlay->begin(), overlay->end(),
                                 [&](const Attribute& o) {
                                   return o.key == a.key;
                                 });
      if (!overridden) b.SetAttrById(v, a.key, a.value);
    }
    if (overlay) {
      for (const Attribute& a : *overlay) b.SetAttrById(v, a.key, a.value);
    }
  }
  for (EdgeId e = 0; e < base_edges_; ++e) {
    if (deleted_base_.contains(e)) continue;
    b.AddEdgeById(base_->EdgeSrc(e), base_->EdgeDst(e), base_->EdgeLabel(e));
  }
  for (const AddedEdge& e : added_) {
    if (e.alive) b.AddEdgeById(e.src, e.dst, e.label);
  }
  return std::move(b).Build();
}

bool GraphView::ValidateAppended(const GraphDelta& delta, size_t first_op,
                                 std::string* error) const {
  auto fail = [&](size_t op_index, const std::string& msg) {
    if (error) {
      *error = "op " + std::to_string(op_index - first_op + 1) + ": " + msg;
    }
    return false;
  };
  const size_t num_labels = base_->labels().size() + delta.extra_labels.size();
  const size_t num_attrs = base_->attrs().size() + delta.extra_attrs.size();
  const size_t num_values = base_->values().size() + delta.extra_values.size();

  // Net insert-minus-delete balance per (src, dst, label) accumulated
  // across the tail so far: a delete is legal iff the view's current
  // matching-edge count plus the balance is positive.
  std::map<std::tuple<NodeId, NodeId, LabelId>, int64_t> pending;
  for (size_t i = first_op; i < delta.ops.size(); ++i) {
    const GraphDelta::Op& op = delta.ops[i];
    if (op.src >= base_->NumNodes()) {
      return fail(i, "node " + std::to_string(op.src) + " out of range");
    }
    switch (op.kind) {
      case GraphDelta::OpKind::kInsertEdge:
      case GraphDelta::OpKind::kDeleteEdge: {
        if (op.dst >= base_->NumNodes()) {
          return fail(i, "node " + std::to_string(op.dst) + " out of range");
        }
        if (op.label >= num_labels) {
          return fail(i, "edge label id out of range");
        }
        int64_t& net = pending[{op.src, op.dst, op.label}];
        if (op.kind == GraphDelta::OpKind::kInsertEdge) {
          ++net;
          break;
        }
        auto out = OutEdges(op.src);
        int64_t present = std::count_if(out.begin(), out.end(), [&](EdgeId e) {
          return EdgeDst(e) == op.dst && EdgeLabel(e) == op.label;
        });
        if (present + net <= 0) {
          return fail(i, "delete of missing edge " + std::to_string(op.src) +
                             " -" + delta.LabelName(*base_, op.label) + "-> " +
                             std::to_string(op.dst));
        }
        --net;
        break;
      }
      case GraphDelta::OpKind::kSetAttr: {
        if (op.key >= num_attrs) return fail(i, "attribute id out of range");
        if (op.value >= num_values) return fail(i, "value id out of range");
        break;
      }
    }
  }
  return true;
}

bool GraphView::AbsorbAppended(const GraphDelta& delta, size_t first_op,
                               std::string* error) {
  if (!ValidateAppended(delta, first_op, error)) return false;
  // The delta's extension vocabulary grew append-only past what the view
  // carries (GraphDelta::Append re-interns by name), so adopting the
  // whole tables keeps every id the view already handed out valid.
  extra_labels_ = delta.extra_labels;
  extra_attrs_ = delta.extra_attrs;
  extra_values_ = delta.extra_values;

  // Keeps the materialized-list invariant -- sorted by (neighbor, label)
  // -- without a full re-sort: one positioned insert per new edge.
  auto sorted_insert = [&](std::vector<EdgeId>& list, EdgeId id, bool out) {
    auto pos =
        std::upper_bound(list.begin(), list.end(), id, [&](EdgeId a, EdgeId b) {
          NodeId na = out ? EdgeDst(a) : EdgeSrc(a);
          NodeId nb = out ? EdgeDst(b) : EdgeSrc(b);
          if (na != nb) return na < nb;
          return EdgeLabel(a) < EdgeLabel(b);
        });
    list.insert(pos, id);
  };
  for (size_t i = first_op; i < delta.ops.size(); ++i) {
    const GraphDelta::Op& op = delta.ops[i];
    switch (op.kind) {
      case GraphDelta::OpKind::kInsertEdge: {
        EdgeId id = base_edges_ + static_cast<EdgeId>(added_.size());
        added_.push_back({op.src, op.dst, op.label, /*alive=*/true});
        sorted_insert(TouchOut(op.src), id, /*out=*/true);
        sorted_insert(TouchIn(op.dst), id, /*out=*/false);
        ++inserted_alive_;
        ++num_edges_;
        break;
      }
      case GraphDelta::OpKind::kDeleteEdge: {
        std::vector<EdgeId>& out = TouchOut(op.src);
        auto hit = std::find_if(out.begin(), out.end(), [&](EdgeId e) {
          return EdgeDst(e) == op.dst && EdgeLabel(e) == op.label;
        });
        // ValidateAppended's count balance guarantees a hit.
        EdgeId victim = *hit;
        out.erase(hit);
        std::vector<EdgeId>& in = TouchIn(op.dst);
        in.erase(std::find(in.begin(), in.end(), victim));
        if (victim < base_edges_) {
          deleted_base_.insert(victim);
        } else {
          added_[victim - base_edges_].alive = false;
          ++deleted_inserted_;
          --inserted_alive_;
        }
        --num_edges_;
        break;
      }
      case GraphDelta::OpKind::kSetAttr: {
        auto& overlay = TouchAttrs(op.src);
        auto hit = std::find_if(
            overlay.begin(), overlay.end(),
            [&](const Attribute& a) { return a.key == op.key; });
        if (hit != overlay.end()) {
          hit->value = op.value;  // last write wins
        } else {
          overlay.push_back({op.key, op.value});
        }
        ++attr_sets_;
        break;
      }
    }
  }
  num_ops_ = delta.ops.size();
  return true;
}

}  // namespace gfd
