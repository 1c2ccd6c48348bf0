#include "graph/property_graph.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>

#include "util/hash.h"

namespace gfd {

namespace {

// Room for "n" and a uint32's decimal digits.
using AliasBuffer = std::array<char, 12>;

// NodeAlias(v) without an allocation: v's own name, or "n<id>" written
// into `buf`.
std::string_view AliasOf(const PropertyGraph& g, NodeId v, AliasBuffer& buf) {
  const std::string& name = g.NodeName(v);
  if (!name.empty()) return name;
  buf[0] = 'n';
  const char* end =
      std::to_chars(buf.data() + 1, buf.data() + buf.size(), v).ptr;
  return {buf.data(), static_cast<size_t>(end - buf.data())};
}

}  // namespace

PropertyGraph::Builder::Builder() {
  // Reserve label id 0 for the wildcard so that pattern labels and graph
  // labels share one interner (graph nodes never actually carry '_').
  labels_.Intern("_");
}

NodeId PropertyGraph::Builder::AddNode(std::string_view label) {
  return AddNodeById(labels_.Intern(label));
}

NodeId PropertyGraph::Builder::AddNodeById(LabelId label) {
  NodeId id = static_cast<NodeId>(node_labels_.size());
  node_labels_.push_back(label);
  node_attrs_.emplace_back();
  return id;
}

void PropertyGraph::Builder::SetAttr(NodeId v, std::string_view key,
                                     std::string_view value) {
  SetAttrById(v, attrs_.Intern(key), values_.Intern(value));
}

void PropertyGraph::Builder::SetAttrById(NodeId v, AttrId key, ValueId value) {
  assert(v < node_attrs_.size());
  for (auto& a : node_attrs_[v]) {
    if (a.key == key) {
      a.value = value;
      return;
    }
  }
  node_attrs_[v].push_back({key, value});
}

void PropertyGraph::Builder::AddEdge(NodeId src, NodeId dst,
                                     std::string_view label) {
  AddEdgeById(src, dst, labels_.Intern(label));
}

void PropertyGraph::Builder::AddEdgeById(NodeId src, NodeId dst,
                                         LabelId label) {
  assert(src < node_labels_.size() && dst < node_labels_.size());
  edge_src_.push_back(src);
  edge_dst_.push_back(dst);
  edge_label_.push_back(label);
}

void PropertyGraph::Builder::SetName(NodeId v, std::string_view name) {
  if (node_names_.size() < node_labels_.size()) {
    node_names_.resize(node_labels_.size());
  }
  node_names_[v] = std::string(name);
}

PropertyGraph PropertyGraph::Builder::Build() && {
  PropertyGraph g;
  g.labels_ = std::move(labels_);
  g.attrs_ = std::move(attrs_);
  g.values_ = std::move(values_);
  g.node_labels_ = std::move(node_labels_);
  g.edge_src_ = std::move(edge_src_);
  g.edge_dst_ = std::move(edge_dst_);
  g.edge_label_ = std::move(edge_label_);
  g.node_names_ = std::move(node_names_);

  const size_t n = g.node_labels_.size();
  const size_t m = g.edge_src_.size();

  // Attributes: flatten, sorted by key per node.
  g.attr_offsets_.assign(n + 1, 0);
  size_t total_attrs = 0;
  for (auto& av : node_attrs_) total_attrs += av.size();
  g.attr_data_.reserve(total_attrs);
  for (size_t v = 0; v < n; ++v) {
    auto& av = node_attrs_[v];
    std::sort(av.begin(), av.end(),
              [](const Attribute& a, const Attribute& b) {
                return a.key < b.key;
              });
    g.attr_offsets_[v] = static_cast<uint32_t>(g.attr_data_.size());
    g.attr_data_.insert(g.attr_data_.end(), av.begin(), av.end());
  }
  g.attr_offsets_[n] = static_cast<uint32_t>(g.attr_data_.size());

  // CSR adjacency, out and in, sorted by (neighbor, label).
  auto build_csr = [&](bool out, std::vector<uint32_t>& offsets,
                       std::vector<EdgeId>& edges) {
    offsets.assign(n + 1, 0);
    for (size_t e = 0; e < m; ++e) {
      ++offsets[(out ? g.edge_src_[e] : g.edge_dst_[e]) + 1];
    }
    for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    edges.resize(m);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t e = 0; e < m; ++e) {
      NodeId v = out ? g.edge_src_[e] : g.edge_dst_[e];
      edges[cursor[v]++] = static_cast<EdgeId>(e);
    }
    for (size_t v = 0; v < n; ++v) {
      auto* begin = edges.data() + offsets[v];
      auto* end = edges.data() + offsets[v + 1];
      std::sort(begin, end, [&](EdgeId a, EdgeId b) {
        NodeId na = out ? g.edge_dst_[a] : g.edge_src_[a];
        NodeId nb = out ? g.edge_dst_[b] : g.edge_src_[b];
        if (na != nb) return na < nb;
        return g.edge_label_[a] < g.edge_label_[b];
      });
    }
  };
  build_csr(/*out=*/true, g.out_offsets_, g.out_edges_);
  build_csr(/*out=*/false, g.in_offsets_, g.in_edges_);

  // Nodes grouped by label.
  const size_t num_labels = g.labels_.size();
  g.label_index_offsets_.assign(num_labels + 1, 0);
  for (LabelId l : g.node_labels_) ++g.label_index_offsets_[l + 1];
  for (size_t l = 0; l < num_labels; ++l) {
    g.label_index_offsets_[l + 1] += g.label_index_offsets_[l];
  }
  g.label_nodes_.resize(n);
  std::vector<uint32_t> cursor(g.label_index_offsets_.begin(),
                               g.label_index_offsets_.end() - 1);
  for (size_t v = 0; v < n; ++v) {
    g.label_nodes_[cursor[g.node_labels_[v]]++] = static_cast<NodeId>(v);
  }

  size_t slots = 1;
  while (slots < 2 * n) slots *= 2;
  g.name_slots_.assign(slots, kNoNode);
  AliasBuffer buf;
  for (NodeId v = 0; v < n; ++v) {
    size_t s = NodeNameHash(AliasOf(g, v, buf)) & (slots - 1);
    while (g.name_slots_[s] != kNoNode) s = (s + 1) & (slots - 1);
    g.name_slots_[s] = v;
  }
  return g;
}

std::span<const NodeId> PropertyGraph::NodesWithLabel(LabelId label) const {
  if (label + 1 >= label_index_offsets_.size()) return {};
  return {label_nodes_.data() + label_index_offsets_[label],
          label_index_offsets_[label + 1] - label_index_offsets_[label]};
}

const std::string& PropertyGraph::NodeName(NodeId v) const {
  static const std::string kEmpty;
  if (v >= node_names_.size()) return kEmpty;
  return node_names_[v];
}

std::string PropertyGraph::NodeAlias(NodeId v) const {
  AliasBuffer buf;
  return std::string(AliasOf(*this, v, buf));
}

std::optional<NodeId> PropertyGraph::FindNode(std::string_view name) const {
  if (name_slots_.empty()) return std::nullopt;  // not built
  const size_t mask = name_slots_.size() - 1;
  AliasBuffer buf;
  for (size_t s = NodeNameHash(name) & mask; name_slots_[s] != kNoNode;
       s = (s + 1) & mask) {
    if (AliasOf(*this, name_slots_[s], buf) == name) return name_slots_[s];
  }
  return std::nullopt;
}

uint32_t PropertyGraph::NodeNameHash(std::string_view name) {
  const uint64_t h = Fnv1a64(name);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

bool PropertyGraph::HasEdge(NodeId src, NodeId dst, LabelId label) const {
  auto edges = OutEdges(src);
  // Binary search on dst (edges sorted by (dst, label)).
  size_t lo = 0, hi = edges.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (edge_dst_[edges[mid]] < dst) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (size_t i = lo; i < edges.size() && edge_dst_[edges[i]] == dst; ++i) {
    if (LabelMatches(edge_label_[edges[i]], label)) return true;
  }
  return false;
}

size_t PropertyGraph::MaxDegree() const {
  size_t d = 0;
  for (NodeId v = 0; v < NumNodes(); ++v) d = std::max(d, Degree(v));
  return d;
}

}  // namespace gfd
