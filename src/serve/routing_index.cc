#include "serve/routing_index.h"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <utility>

#include "graph/loader.h"

namespace gfd {

namespace {
void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}
}  // namespace

std::optional<RoutingIndex> RoutingIndex::Build(const GraphView& g, Partition p,
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
  if (p.node_owner.size() != g.NumNodes()) {
    SetError(error, "partition owner table does not match the graph");
    return std::nullopt;
  }
  RoutingIndex idx;
  idx.partition_ = std::move(p);
  idx.resident_ = ComputeResidency(g, idx.partition_);
  return idx;
}

RoutingIndex::ShipPlan RoutingIndex::PlanBatch(const LiveGraph& live,
                                               const GraphDelta& batch) const {
  ShipPlan plan;
  plan.new_resident = ComputeResidency(live.view(), partition_);
  BuildPayloads(live, batch, &plan);
  return plan;
}

void RoutingIndex::PlanSeeds(const LiveGraph& live, const GraphDelta& batch,
                             std::span<const NodeId> anchors, uint32_t radius,
                             ShipPlan* plan) const {
  const size_t n = partition_.num_fragments;
  const GraphView& g = live.view();
  const FragmentMasks seedable =
      SeedableFragments(g, batch.ops, resident_, plan->new_resident, radius);
  // The matches through an anchor grow with its degree and with its
  // neighbours' degrees.
  std::vector<std::pair<uint64_t, NodeId>> order;
  order.reserve(anchors.size());
  for (NodeId a : anchors) {
    uint64_t cost = 1 + g.Degree(a);
    for (EdgeId e : g.OutEdges(a)) cost += g.Degree(g.EdgeDst(e));
    for (EdgeId e : g.InEdges(a)) cost += g.Degree(g.EdgeSrc(e));
    order.emplace_back(cost, a);
  }
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  std::vector<uint64_t> load(n, 0);
  plan->seeds.assign(n, {});
  for (const auto& [cost, a] : order) {
    // The owner's halo holds the ball in both graphs (radius <= halo
    // radius), whatever the sweep's over-approximation says. A strictly
    // smaller load is needed to leave it, and the ascending scan keeps
    // the lowest id among equals.
    size_t best = partition_.node_owner[a];
    for (size_t f = 0; f < n; ++f) {
      if (load[f] < load[best] && seedable.Test(a, f)) best = f;
    }
    load[best] += cost;
    plan->seeds[best].push_back(a);
  }
  for (std::vector<NodeId>& seeds : plan->seeds) {
    std::sort(seeds.begin(), seeds.end());
  }
}

std::optional<RoutingIndex::ShipPlan> RoutingIndex::PlanRebalance(
    const LiveGraph& live, NodeId node, uint32_t to, std::string* error) const {
  if (node >= live.view().NumNodes()) {
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
  plan.new_resident = ComputeResidency(live.view(), moved);
  plan.new_owner = std::move(moved.node_owner);
  // Graph unchanged: the payloads carry the vocabulary preamble plus
  // pure halo maintenance.
  BuildPayloads(live, GraphDelta{}, &plan);
  return plan;
}

void RoutingIndex::BuildPayloads(const LiveGraph& live, const GraphDelta& batch,
                                 ShipPlan* plan) const {
  const size_t n = partition_.num_fragments;
  const GraphView& nv = live.view();
  const PropertyGraph& base = live.base();

  // Full extension-vocabulary preamble, identical for every fragment:
  // the overlay's tables, so all fragments intern the same names in the
  // same order.
  GraphDelta vocab_only;
  vocab_only.extra_labels = live.overlay().extra_labels;
  vocab_only.extra_attrs = live.overlay().extra_attrs;
  vocab_only.extra_values = live.overlay().extra_values;
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

uint64_t RoutingIndex::ResidentEdges(const GraphView& g, size_t f) const {
  const std::vector<char>& res = resident_[f];
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
