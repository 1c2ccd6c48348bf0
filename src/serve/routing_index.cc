#include "serve/routing_index.h"

#include <array>
#include <map>
#include <sstream>
#include <utility>

#include "graph/loader.h"
#include "obs/trace.h"

namespace gfd {

namespace {
void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}
}  // namespace

std::optional<RoutingIndex> RoutingIndex::Build(LiveGraph live, Partition p,
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
  if (p.node_owner.size() != live.view().NumNodes()) {
    SetError(error, "partition owner table does not match the graph");
    return std::nullopt;
  }
  RoutingIndex idx;
  idx.partition_ = std::move(p);
  idx.live_.emplace(std::move(live));
  idx.resident_ = ComputeResidency(idx.view(), idx.partition_);
  return idx;
}

std::optional<RoutingIndex::ShipPlan> RoutingIndex::PlanBatch(
    std::string_view delta_tsv, std::string* error) {
  auto batch = live_->Parse(delta_tsv, error);
  if (!batch) return std::nullopt;
  ShipPlan plan;
  plan.pre = live_->mark();
  // Anchored by the pre-batch global degrees, so every backend serving
  // this stream picks the same anchors. Parse resolved every node
  // through the base's name index, so the degrees are readable before
  // validation.
  plan.footprint = BatchFootprint::Of(batch->ops, view());
  // Validating on the global view is the one place a delete-of-missing-
  // edge can be caught before the journal or any fragment sees the batch.
  obs::ScopedTimer validate_timer(nullptr, "validate");
  if (!live_->Absorb(*batch, error)) {
    validate_timer.Discard();
    return std::nullopt;
  }
  validate_timer.AddField("ops", live_->overlay().ops.size());
  validate_timer.StopNs();
  plan.new_resident = ComputeResidency(view(), partition_);
  BuildPayloads(*batch, &plan);
  return plan;
}

std::optional<RoutingIndex::ShipPlan> RoutingIndex::PlanRebalance(
    NodeId node, uint32_t to, std::string* error) {
  if (node >= view().NumNodes()) {
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
  plan.pre = live_->mark();
  plan.new_resident = ComputeResidency(view(), moved);
  plan.new_owner = std::move(moved.node_owner);
  // Graph unchanged: the payloads carry the vocabulary preamble plus
  // pure halo maintenance.
  BuildPayloads(GraphDelta{}, &plan);
  return plan;
}

void RoutingIndex::BuildPayloads(const GraphDelta& batch,
                                 ShipPlan* plan) const {
  const size_t n = partition_.num_fragments;
  const GraphView& nv = view();
  const PropertyGraph& base = live_->base();

  // Full extension-vocabulary preamble, identical for every fragment:
  // the overlay's tables, so all fragments intern the same names in the
  // same order.
  GraphDelta vocab_only;
  vocab_only.extra_labels = live_->overlay().extra_labels;
  vocab_only.extra_attrs = live_->overlay().extra_attrs;
  vocab_only.extra_values = live_->overlay().extra_values;
  std::ostringstream pre;
  SaveGraphDeltaTsv(base, vocab_only, pre, /*with_vocab=*/true);
  const std::string preamble = pre.str();

  // RouteDelta is the delivery mechanism: ops go to the fragments whose
  // pre-batch resident set covers every referenced node.
  DeltaRouting routing = RouteDelta(batch, resident_);

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
        sub.ops.push_back(batch.ops[i]);
      }
      SaveGraphDeltaTsv(base, sub, routed, /*with_vocab=*/false);
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
    SaveGraphDeltaTsv(base, maint, maint_out, /*with_vocab=*/false);
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
  resident_ = std::move(plan.new_resident);
}

void RoutingIndex::Rollback(const ShipPlan& plan) { live_->Rollback(plan.pre); }

void RoutingIndex::Compact(PropertyGraph next) {
  // The graph is unchanged (ids preserved), and so is the residency.
  live_->Rebase(std::move(next));
}

uint64_t RoutingIndex::ResidentEdges(size_t f) const {
  const std::vector<char>& res = resident_[f];
  const GraphView& g = view();
  uint64_t count = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!res[v]) continue;
    for (EdgeId e : g.OutEdges(v)) {
      if (res[g.EdgeDst(e)]) ++count;
    }
  }
  return count;
}

}  // namespace gfd
