#include "serve/routing_index.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "graph/loader.h"

namespace gfd {

namespace {
void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

// Undirected neighbor lists of the live view (duplicates fine; the
// residency BFS tolerates them).
std::vector<std::vector<NodeId>> ViewAdjacency(const GraphView& view) {
  std::vector<std::vector<NodeId>> adj(view.NumNodes());
  for (NodeId v = 0; v < view.NumNodes(); ++v) {
    for (EdgeId e : view.OutEdges(v)) {
      NodeId dst = view.EdgeDst(e);
      adj[v].push_back(dst);
      adj[dst].push_back(v);
    }
  }
  return adj;
}
}  // namespace

std::optional<RoutingIndex> RoutingIndex::Build(PropertyGraph base,
                                                Partition p,
                                                std::string* error) {
  if (p.num_fragments == 0) {
    SetError(error, "partition has no fragments");
    return std::nullopt;
  }
  if (p.halo_radius < 1) {
    // Radius >= 1 is what makes every edge resident at both endpoint
    // owners; below that the union of fragments would lose edges.
    SetError(error, "halo radius must be >= 1");
    return std::nullopt;
  }
  if (p.node_owner.size() != base.NumNodes()) {
    SetError(error, "partition owner table does not match the graph");
    return std::nullopt;
  }
  RoutingIndex idx;
  idx.partition_ = std::move(p);
  idx.base_ = std::make_unique<PropertyGraph>(std::move(base));
  if (!idx.Refresh(error)) return std::nullopt;
  return idx;
}

bool RoutingIndex::Refresh(std::string* error) {
  view_ = GraphView::Apply(*base_, accum_, error);
  if (!view_) return false;
  resident_ = ComputeResidency(ViewAdjacency(*view_), partition_);
  FillBorders(&partition_, resident_);
  return true;
}

std::optional<RoutingIndex::ShipPlan> RoutingIndex::PlanBatch(
    std::string_view delta_tsv, std::string* error) {
  std::istringstream in{std::string(delta_tsv)};
  auto d = LoadGraphDeltaTsv(in, *base_, error);
  if (!d) return std::nullopt;

  // Validate the whole stream (accumulated overlay + this batch) on the
  // global view -- the one place a delete-of-missing-edge or bad id can
  // be caught before any fragment's log sees the batch.
  GraphDelta candidate = accum_;
  const size_t accum_ops = candidate.ops.size();
  candidate.Append(*base_, *d);
  ShipPlan plan;
  plan.new_view = GraphView::Apply(*base_, candidate, error);
  if (!plan.new_view) return std::nullopt;

  // This batch's ops in the candidate's (canonical) vocabulary space.
  GraphDelta batch_tail;
  batch_tail.ops.assign(candidate.ops.begin() + accum_ops,
                        candidate.ops.end());
  batch_tail.extra_labels = candidate.extra_labels;
  batch_tail.extra_attrs = candidate.extra_attrs;
  batch_tail.extra_values = candidate.extra_values;

  plan.new_resident =
      ComputeResidency(ViewAdjacency(*plan.new_view), partition_);
  // Anchored by the pre-batch global degrees, so every backend serving
  // this stream picks the same anchors.
  plan.footprint = BatchFootprint::Of(batch_tail.ops, *view_);
  plan.candidate = std::move(candidate);
  BuildPayloads(batch_tail, &plan);
  return plan;
}

std::optional<RoutingIndex::ShipPlan> RoutingIndex::PlanRebalance(
    NodeId node, uint32_t to, std::string* error) {
  if (node >= base_->NumNodes()) {
    SetError(error, "rebalance: node id out of range");
    return std::nullopt;
  }
  if (to >= partition_.num_fragments) {
    SetError(error, "rebalance: fragment id out of range");
    return std::nullopt;
  }
  if (partition_.node_owner[node] == to) {
    SetError(error, "rebalance: node already owned by fragment " +
                        std::to_string(to));
    return std::nullopt;
  }
  Partition moved = partition_;
  moved.node_owner[node] = to;

  ShipPlan plan;
  plan.new_owner = std::move(moved.node_owner);
  Partition probe = partition_;
  probe.node_owner = plan.new_owner;
  plan.new_resident = ComputeResidency(ViewAdjacency(*view_), probe);
  // Graph unchanged: the payloads carry the vocabulary preamble plus
  // pure halo maintenance; candidate/new_view stay empty and Commit
  // leaves the global view alone.
  GraphDelta empty_tail;
  empty_tail.extra_labels = accum_.extra_labels;
  empty_tail.extra_attrs = accum_.extra_attrs;
  empty_tail.extra_values = accum_.extra_values;
  BuildPayloads(empty_tail, &plan);
  return plan;
}

void RoutingIndex::BuildPayloads(const GraphDelta& batch_tail,
                                 ShipPlan* plan) const {
  const size_t n = partition_.num_fragments;
  const GraphView& nv = plan->new_view ? *plan->new_view : *view_;

  // Full extension-vocabulary preamble, identical for every fragment:
  // the canonical accumulated extras (batch_tail carries the candidate's
  // tables), so all fragments intern the same names in the same order.
  GraphDelta vocab_only;
  vocab_only.extra_labels = batch_tail.extra_labels;
  vocab_only.extra_attrs = batch_tail.extra_attrs;
  vocab_only.extra_values = batch_tail.extra_values;
  std::ostringstream pre;
  SaveGraphDeltaTsv(*base_, vocab_only, pre, /*with_vocab=*/true);
  const std::string preamble = pre.str();

  // RouteDelta is the delivery mechanism: ops go to the fragments whose
  // pre-batch resident set covers every referenced node.
  DeltaRouting routing = RouteDelta(batch_tail, resident_);

  plan->payloads.resize(n);
  plan->owned_bytes.assign(n, 0);
  plan->halo_bytes.assign(n, 0);
  plan->routed_ops.assign(n, 0);
  plan->halo_ops.assign(n, 0);

  for (size_t f = 0; f < n; ++f) {
    const std::vector<char>& oldr = resident_[f];
    const std::vector<char>& newr = plan->new_resident[f];

    std::ostringstream routed;
    if (!routing.fragment_ops[f].empty()) {
      GraphDelta sub = vocab_only;
      for (size_t i : routing.fragment_ops[f]) {
        sub.ops.push_back(batch_tail.ops[i]);
      }
      SaveGraphDeltaTsv(*base_, sub, routed, /*with_vocab=*/false);
      plan->routed_ops[f] = sub.ops.size();
    }

    // Halo maintenance: the residency change decides, per post-batch
    // edge key incident to a node whose residency flipped, whether the
    // fragment must drop its copies (left the halo) or receive them
    // (entered). Keys whose residency is unchanged were brought to the
    // correct multiplicity by the routed ops alone.
    std::vector<NodeId> changed;
    std::vector<char> changed_mask(nv.NumNodes(), 0);
    for (NodeId v = 0; v < nv.NumNodes(); ++v) {
      if (oldr[v] != newr[v]) {
        changed.push_back(v);
        changed_mask[v] = 1;
      }
    }
    GraphDelta maint = vocab_only;
    if (!changed.empty()) {
      std::map<std::array<uint32_t, 3>, uint64_t> counts;
      for (NodeId v : changed) {
        for (EdgeId e : nv.OutEdges(v)) {
          ++counts[{v, nv.EdgeDst(e), nv.EdgeLabel(e)}];
        }
        for (EdgeId e : nv.InEdges(v)) {
          NodeId src = nv.EdgeSrc(e);
          if (changed_mask[src]) continue;  // counted at src's out loop
          ++counts[{src, v, nv.EdgeLabel(e)}];
        }
      }
      for (const auto& [key, count] : counts) {
        NodeId src = key[0], dst = key[1];
        LabelId label = key[2];
        bool old_res = oldr[src] && oldr[dst];
        bool new_res = newr[src] && newr[dst];
        if (old_res == new_res) continue;
        for (uint64_t c = 0; c < count; ++c) {
          if (new_res) {
            maint.InsertEdge(src, dst, label);
          } else {
            maint.DeleteEdge(src, dst, label);
          }
        }
      }
      // Nodes entering the halo get a full attribute refresh from the
      // global state; attributes are never deleted, so overwriting
      // repairs any staleness accrued while the node was out of view.
      for (NodeId v : changed) {
        if (!newr[v]) continue;
        for (const Attribute& a : nv.NodeAttrs(v)) {
          maint.SetAttr(v, a.key, a.value);
        }
      }
    }
    std::ostringstream maint_out;
    SaveGraphDeltaTsv(*base_, maint, maint_out, /*with_vocab=*/false);
    plan->halo_ops[f] = maint.ops.size();

    std::string routed_str = routed.str();
    std::string maint_str = maint_out.str();
    plan->owned_bytes[f] = preamble.size() + routed_str.size();
    plan->halo_bytes[f] = maint_str.size();
    plan->payloads[f] = preamble + routed_str + maint_str;
  }
}

void RoutingIndex::Commit(ShipPlan&& plan) {
  if (!plan.new_owner.empty()) {
    partition_.node_owner = std::move(plan.new_owner);
  }
  if (plan.new_view) {
    accum_ = std::move(plan.candidate);
    view_ = std::move(plan.new_view);
  }
  resident_ = std::move(plan.new_resident);
  FillBorders(&partition_, resident_);
}

void RoutingIndex::Compact() {
  base_ = std::make_unique<PropertyGraph>(view_->Materialize());
  accum_ = GraphDelta{};
  std::string error;
  // An empty delta over a well-formed graph cannot fail to apply.
  Refresh(&error);
}

uint64_t RoutingIndex::ResidentEdges(size_t f) const {
  const std::vector<char>& res = resident_[f];
  uint64_t count = 0;
  for (NodeId v = 0; v < view_->NumNodes(); ++v) {
    if (!res[v]) continue;
    for (EdgeId e : view_->OutEdges(v)) {
      if (res[view_->EdgeDst(e)]) ++count;
    }
  }
  return count;
}

}  // namespace gfd
