// The coordinator's master-side routing state: the vertex-cut partition
// and the per-fragment halo residency derived from it over the global
// graph. The graph itself is the master's GraphStore (serve/
// graph_store.h); the index reads it and owns none of it.
//
// Under true vertex-cut sharding no fragment holds the whole graph, so
// the master routes each op of a batch its GraphStore already took to
// exactly the fragments whose resident set covers it (RouteDelta), and
// derives the halo-maintenance traffic -- border entry/exit edge repair
// plus attribute refresh for nodes entering a fragment's halo -- that
// keeps every fragment equal to the resident subgraph of the global
// state. This mirrors the paper's coordinator, which knows the
// fragmentation and routes workload; holding the topology at the master
// is the simulation's stand-in for the partition manager of a real
// deployment.
//
// A plan is made from the post-batch graph against the residency of the
// last committed plan, and committed once the fragments absorbed it. When
// the batch is diffed, the plan also carries each fragment's detection
// seeds (PlanSeeds): the master, which sees the whole graph, spreads the
// batch's anchors over the fragments by estimated cost instead of
// leaving each at its owner.
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
// unchanged graph: maintenance-only payloads (empty for the fragments
// whose residency does not shift).
#ifndef GFD_SERVE_ROUTING_INDEX_H_
#define GFD_SERVE_ROUTING_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "graph/live_graph.h"
#include "parallel/fragment.h"
#include "util/ids.h"

namespace gfd {

class RoutingIndex {
 public:
  /// Builds the index over the global graph `g` under partition `p`
  /// (halo_radius >= 1 required: radius 1 is what makes every edge
  /// resident at both endpoint owners, i.e. storage-complete), computing
  /// the residency once.
  static std::optional<RoutingIndex> Build(const GraphView& g, Partition p,
                                           std::string* error = nullptr);

  const Partition& partition() const { return partition_; }
  const FragmentResidency& residency() const { return resident_; }

  /// One planned shipment: per-fragment payloads plus accounting, and
  /// what Commit adopts.
  struct ShipPlan {
    std::vector<std::string> payloads;  ///< sub-batch TSV per fragment
    std::vector<uint64_t> owned_bytes;  ///< vocab preamble + routed ops
    std::vector<uint64_t> halo_bytes;   ///< maintenance + refresh
    std::vector<size_t> routed_ops;     ///< routed op count per fragment
    std::vector<size_t> halo_ops;       ///< maintenance op count per fragment
    /// Per fragment, the sorted anchors its step diff seeds (PlanSeeds);
    /// empty when the batch ships without a diff.
    std::vector<std::vector<NodeId>> seeds;

    FragmentResidency new_resident;   ///< adopted by Commit
    std::vector<uint32_t> new_owner;  ///< non-empty only for rebalance
  };

  /// Plans shipping `batch` -- LiveGraph::Parse's result, which `live`,
  /// the global graph, has since absorbed: the post-batch residency, and
  /// per fragment the batch's routed ops plus the maintenance the
  /// residency change implies. Commit() it once the fragments took it.
  ShipPlan PlanBatch(const LiveGraph& live, const GraphDelta& batch) const;

  /// Plans the seeds of the step that diffs `batch` (planned into `plan`
  /// by PlanBatch): each of `anchors`, the batch's BatchFootprint
  /// anchors, goes to exactly one fragment whose views before and after
  /// the batch hold the anchor's `radius`-hop ball (SeedableFragments;
  /// `radius` is the rules' MaxPatternRadius, <= the halo radius, so the
  /// anchor's owner always qualifies). Anchors are placed most expensive
  /// first -- cost 1 + degree + the neighbours' degrees on `live`'s view,
  /// ties by node id -- each on the least-loaded fragment that qualifies,
  /// ties to the owner and then to the lowest id. Deterministic.
  void PlanSeeds(const LiveGraph& live, const GraphDelta& batch,
                 std::span<const NodeId> anchors, uint32_t radius,
                 ShipPlan* plan) const;

  /// Plans moving ownership of `node` to fragment `to` over the global
  /// graph `live`: the graph is unchanged, so payloads are pure halo
  /// maintenance for the fragments whose residency shifts (and empty for
  /// the rest). Nullopt (with *error) for an out-of-range node or
  /// fragment, or a node `to` already owns.
  std::optional<ShipPlan> PlanRebalance(const LiveGraph& live, NodeId node,
                                        uint32_t to,
                                        std::string* error = nullptr) const;

  /// Adopts a plan's residency and ownership.
  void Commit(ShipPlan&& plan);

  /// Resident (stored) edge count of fragment f of the global graph `g`
  /// under the current residency -- the footprint metric: summed over
  /// fragments this is ~replication x |G|, not N x |G|.
  uint64_t ResidentEdges(const GraphView& g, size_t f) const;

 private:
  RoutingIndex() = default;

  // Payload assembly shared by PlanBatch and PlanRebalance: the
  // overlay's vocabulary preamble, `batch`'s routed ops (none for a
  // rebalance) and maintenance derived from the residency change, read
  // off `live`'s view.
  void BuildPayloads(const LiveGraph& live, const GraphDelta& batch,
                     ShipPlan* plan) const;

  Partition partition_;
  FragmentResidency resident_;
};

}  // namespace gfd

#endif  // GFD_SERVE_ROUTING_INDEX_H_
