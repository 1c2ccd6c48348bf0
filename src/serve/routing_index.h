// The coordinator's master-side routing state: the global graph topology
// (anchor snapshot + accumulated delta), the vertex-cut partition, and
// the per-fragment halo residency derived from it.
//
// Under true vertex-cut sharding no fragment holds the whole graph, so
// the master keeps the one global view needed to (a) validate an
// incoming batch before any fragment's log sees it, (b) route each op to
// exactly the fragments whose resident set covers it (RouteDelta), and
// (c) derive the halo-maintenance traffic -- border entry/exit edge
// repair plus attribute refresh for nodes entering a fragment's halo --
// that keeps every fragment equal to the resident subgraph of the
// global state. This mirrors the paper's coordinator, which knows the
// fragmentation and routes workload; holding the topology at the master
// is the simulation's stand-in for the partition manager of a real
// deployment.
//
// Invariant maintained across PlanBatch/Commit cycles, for every
// fragment f with residency R_f (ComputeResidency over the live graph):
//
//   fragment f's current graph = { e in G : both endpoints in R_f },
//   with exact multiset multiplicity, and fragment attributes of every
//   resident node equal to the global attributes.
//
// PlanBatch emits, per fragment, one sub-batch TSV payload:
//
//   1. the full extension-vocabulary preamble (L/K/V) accumulated since
//      the last compaction -- every fragment interns the same names in
//      the same order, so extension ids (and hence post-compaction base
//      vocabularies) stay identical across fragments,
//   2. the batch ops routed to f (RouteDelta, stream order),
//   3. halo maintenance: E-/E+ for edges leaving/entering R_f, and a
//      full attribute refresh for nodes entering R_f (attributes are
//      never deleted, so overwriting repairs any staleness accrued
//      while the node was out of the halo).
//
// PlanRebalance produces the same shape for an ownership move with an
// unchanged graph: maintenance-only payloads (empty for untouched
// fragments, preserving lockstep sequencing).
#ifndef GFD_SERVE_ROUTING_INDEX_H_
#define GFD_SERVE_ROUTING_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "parallel/fragment.h"
#include "util/ids.h"

namespace gfd {

class RoutingIndex {
 public:
  /// Builds the index over `base` (the global anchor snapshot) under
  /// partition `p` (halo_radius >= 1 required: radius 1 is what makes
  /// every edge resident at both endpoint owners, i.e. storage-complete).
  static std::optional<RoutingIndex> Build(PropertyGraph base, Partition p,
                                           std::string* error = nullptr);

  const Partition& partition() const { return partition_; }
  const PropertyGraph& base() const { return *base_; }
  const GraphView& view() const { return *view_; }
  const GraphDelta& accum() const { return accum_; }
  const FragmentResidency& residency() const { return resident_; }

  /// One planned shipment: per-fragment payloads plus accounting. The
  /// candidate state it was planned against rides along so Commit can
  /// adopt it without re-deriving anything.
  struct ShipPlan {
    std::vector<std::string> payloads;  ///< sub-batch TSV per fragment
    std::vector<uint64_t> owned_bytes;  ///< vocab preamble + routed ops
    std::vector<uint64_t> halo_bytes;   ///< maintenance + refresh
    std::vector<size_t> routed_ops;     ///< routed op count per fragment
    std::vector<size_t> halo_ops;       ///< maintenance op count per fragment
    /// What this plan's batch touches, in global ids, anchored on the
    /// pre-batch global view (empty for a rebalance: the graph is
    /// unchanged). Its anchors -- not any fragment-local affected set,
    /// which also contains maintenance endpoints -- seed and attribute
    /// the fragments' step diffs.
    BatchFootprint footprint;

    // Candidate state, adopted by Commit.
    GraphDelta candidate;
    std::optional<GraphView> new_view;
    FragmentResidency new_resident;
    std::vector<uint32_t> new_owner;  ///< non-empty only for rebalance
  };

  /// Parses `delta_tsv` against the anchor snapshot's vocabulary,
  /// validates it on the current global view (so an invalid batch is
  /// rejected before any fragment's log sees it), and derives the
  /// shipping plan. Does not change the index; Commit() the plan after
  /// shipping succeeds.
  std::optional<ShipPlan> PlanBatch(std::string_view delta_tsv,
                                    std::string* error = nullptr);

  /// Plans moving ownership of `node` to fragment `to`: the graph is
  /// unchanged, so payloads are pure halo maintenance for the fragments
  /// whose residency shifts (and empty for the rest).
  std::optional<ShipPlan> PlanRebalance(NodeId node, uint32_t to,
                                        std::string* error = nullptr);

  /// Adopts a plan's candidate state (global view, residency, owners).
  void Commit(ShipPlan&& plan);

  /// Lockstep-compaction hook: adopts `next` -- view().Materialize(),
  /// which the caller already built for the global snapshot -- as the
  /// base snapshot (ids preserved, mirroring GraphStore::Compact) and
  /// clears the accumulated delta and its vocabulary preamble.
  void Compact(PropertyGraph next);

  /// Resident (stored) edge count of fragment f under the current
  /// residency -- the footprint metric: summed over fragments this is
  /// ~replication x |G|, not N x |G|.
  uint64_t ResidentEdges(size_t f) const;

 private:
  RoutingIndex() = default;

  // Rebuilds view_ from base_ + accum_ and resident_ from the live
  // adjacency. accum_ must be valid over base_.
  bool Refresh(std::string* error);

  // Payload assembly shared by PlanBatch and PlanRebalance: routed ops
  // (possibly none) plus maintenance derived from the residency change.
  void BuildPayloads(const GraphDelta& batch_tail, ShipPlan* plan) const;

  Partition partition_;
  std::unique_ptr<PropertyGraph> base_;
  GraphDelta accum_;
  std::optional<GraphView> view_;
  FragmentResidency resident_;
};

}  // namespace gfd

#endif  // GFD_SERVE_ROUTING_INDEX_H_
