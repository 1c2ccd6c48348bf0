// The coordinator's master-side routing state: the global graph (a
// LiveGraph: anchor snapshot + the batches since, absorbed in place into
// one view, as a GraphStore holds its graph), the vertex-cut partition,
// and the per-fragment halo residency derived from it.
//
// Under true vertex-cut sharding no fragment holds the whole graph, so
// the master keeps the one global view needed to (a) validate an
// incoming batch before the journal or any fragment sees it, (b) route
// each op to exactly the fragments whose resident set covers it
// (RouteDelta), and (c) derive the halo-maintenance traffic -- border
// entry/exit edge repair plus attribute refresh for nodes entering a
// fragment's halo -- that keeps every fragment equal to the resident
// subgraph of the global state. This mirrors the paper's coordinator,
// which knows the fragmentation and routes workload; holding the
// topology at the master is the simulation's stand-in for the partition
// manager of a real deployment.
//
// A plan changes the index: PlanBatch absorbs its batch into the global
// view right away, and the plan is then either committed (the residency
// and ownership it computed take effect) or rolled back (the batch leaves
// the view again, as when the journal append fails). Between the two
// the view is post-batch while the residency is still pre-batch.
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
#include <string>
#include <string_view>
#include <vector>

#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/live_graph.h"
#include "graph/property_graph.h"
#include "parallel/fragment.h"
#include "util/ids.h"

namespace gfd {

class RoutingIndex {
 public:
  /// Builds the index over `live` (the global graph: the anchor
  /// snapshot plus whatever recovery replayed onto it) under partition
  /// `p` (halo_radius >= 1 required: radius 1 is what makes every edge
  /// resident at both endpoint owners, i.e. storage-complete), computing
  /// the residency once.
  static std::optional<RoutingIndex> Build(LiveGraph live, Partition p,
                                           std::string* error = nullptr);

  const Partition& partition() const { return partition_; }
  /// The live global graph; post-batch from PlanBatch on.
  const LiveGraph& live() const { return *live_; }
  const GraphView& view() const { return live_->view(); }
  const FragmentResidency& residency() const { return resident_; }

  /// One planned shipment: per-fragment payloads plus accounting, and
  /// what Commit adopts or Rollback undoes.
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

    FragmentResidency new_resident;   ///< adopted by Commit
    std::vector<uint32_t> new_owner;  ///< non-empty only for rebalance
    LiveGraph::Mark pre;              ///< where Rollback returns the graph
  };

  /// Parses `delta_tsv` against the anchor snapshot's vocabulary, picks
  /// the batch's anchors on the pre-batch global degrees, validates it
  /// and absorbs it into the global view (so an invalid batch is rejected
  /// before the journal or any fragment sees it, and changes nothing;
  /// traced as `validate`), and derives the shipping plan from the
  /// post-batch view. Commit() the plan after shipping succeeds, or
  /// Rollback() it.
  std::optional<ShipPlan> PlanBatch(std::string_view delta_tsv,
                                    std::string* error = nullptr);

  /// Plans moving ownership of `node` to fragment `to`: the graph is
  /// unchanged, so payloads are pure halo maintenance for the fragments
  /// whose residency shifts (and empty for the rest).
  std::optional<ShipPlan> PlanRebalance(NodeId node, uint32_t to,
                                        std::string* error = nullptr);

  /// Adopts a plan's residency and ownership.
  void Commit(ShipPlan&& plan);

  /// Undoes a plan that is not committed: the batch PlanBatch absorbed
  /// leaves the global view, and the next plan is made as if this one
  /// never was.
  void Rollback(const ShipPlan& plan);

  /// Compaction hook: adopts `next` -- view().Materialize(), which the
  /// caller already built for the global snapshot -- as the base
  /// snapshot (ids preserved, mirroring GraphStore::Compact) and clears
  /// the overlay and its vocabulary preamble.
  void Compact(PropertyGraph next);

  /// Resident (stored) edge count of fragment f under the current
  /// residency -- the footprint metric: summed over fragments this is
  /// ~replication x |G|, not N x |G|.
  uint64_t ResidentEdges(size_t f) const;

 private:
  RoutingIndex() = default;

  // Payload assembly shared by PlanBatch and PlanRebalance: the
  // overlay's vocabulary preamble, `batch`'s routed ops (none for a
  // rebalance) and maintenance derived from the residency change, read
  // off the current view.
  void BuildPayloads(const GraphDelta& batch, ShipPlan* plan) const;

  Partition partition_;
  std::optional<LiveGraph> live_;
  FragmentResidency resident_;
};

}  // namespace gfd

#endif  // GFD_SERVE_ROUTING_INDEX_H_
