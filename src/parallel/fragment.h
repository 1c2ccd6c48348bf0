// Vertex-cut fragmentation (Section 6.1): the graph's edges are evenly
// partitioned across n fragments; nodes are implicitly replicated wherever
// their edges land. A greedy placement keeps fragments balanced while
// preferring fragments that already host one of the edge's endpoints
// (lower replication), the standard vertex-cut heuristic.
#ifndef GFD_PARALLEL_FRAGMENT_H_
#define GFD_PARALLEL_FRAGMENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace gfd {

/// Ownership state of a vertex-cut partition, shared by ParDis,
/// RouteDelta, and the serving coordinator (which persists it in
/// coordinator.meta so every layer reads the same owners).
struct Partition {
  size_t num_fragments = 0;

  /// Halo radius in hops: a node is resident in fragment f iff its
  /// undirected distance from f's owned node set is <= halo_radius.
  /// Correctness requires halo_radius >= the max per-variable
  /// eccentricity over all rule patterns (ViolationEngine::
  /// MaxPatternRadius), so every match anchored at an owned node is
  /// enumerable from the fragment's local view.
  uint32_t halo_radius = 0;

  /// Owner fragment per node: the lowest-numbered fragment that hosts
  /// any of its incident edges under the greedy edge placement; isolated
  /// nodes are hashed.
  std::vector<uint32_t> node_owner;

  /// Replication factor: average number of fragments a (non-isolated)
  /// node appears in under the edge partition. 1.0 = no replication.
  double replication = 1.0;
};

/// An edge partition of a graph. Fragment f owns fragment_edges[f];
/// `partition` carries the derived ownership state.
struct Fragmentation {
  Partition partition;
  std::vector<uint32_t> edge_fragment;            ///< edge id -> fragment
  std::vector<std::vector<EdgeId>> fragment_edges;
};

/// Partitions `g`'s edges into `n` fragments. Precondition: n >= 1.
/// Deterministic. Fragment sizes differ by at most a small constant.
/// The returned partition has halo_radius 0; callers pick the radius and
/// derive each fragment's halo via ComputeResidency.
Fragmentation VertexCutPartition(const PropertyGraph& g, size_t n);

/// Per-fragment node residency map: resident[f][v] != 0 iff v lies
/// within p.halo_radius undirected hops of a node owned by f (owned
/// nodes are at distance 0, hence always resident).
using FragmentResidency = std::vector<std::vector<char>>;

/// A set of fragments per node, bit-parallel, in blocks of 64 fragments:
/// block b holds one word per node, and bit f % 64 of node v's word in
/// block f / 64 is set iff fragment f is in v's set. Residency and seed
/// eligibility are sweeps over these words -- one pass over the edges
/// per hop and block, for 64 fragments at once.
class FragmentMasks {
 public:
  FragmentMasks(size_t num_nodes, size_t num_fragments)
      : blocks_((num_fragments + 63) / 64,
                std::vector<uint64_t>(num_nodes, 0)) {}

  bool Test(NodeId v, size_t f) const {
    return (blocks_[f / 64][v] >> (f % 64) & 1) != 0;
  }
  void Set(NodeId v, size_t f) {
    blocks_[f / 64][v] |= uint64_t{1} << (f % 64);
  }

  /// Grows every node's set by its neighbours' sets, `hops` times, so
  /// that each node ends with the union of the sets of the nodes within
  /// `hops` undirected hops of it -- over `g`'s edges plus the edges of
  /// `extra`'s edge ops (its attribute ops join nothing). GraphT is
  /// PropertyGraph or GraphView.
  template <typename GraphT>
  void Spread(const GraphT& g, std::span<const GraphDelta::Op> extra,
              uint32_t hops);

 private:
  std::vector<std::vector<uint64_t>> blocks_;
};

/// Computes residency by sweeping the owner masks p.halo_radius times
/// over `g`'s edges (undirected for residency). GraphT is PropertyGraph
/// or GraphView: the coordinator sweeps its live global view directly,
/// with no adjacency copy.
template <typename GraphT>
FragmentResidency ComputeResidency(const GraphT& g, const Partition& p);

/// Where each node may seed one batch's step diff: fragment f is in v's
/// set iff every node within `radius` undirected hops of v is resident
/// at f both under `before`, the residency before the batch, and under
/// `after`, the residency after it. The hops run over `post`, the
/// post-batch graph, plus the edges `ops` (the batch) deletes: together
/// they hold every edge of the graph before the batch and after it, so
/// the balls are over-approximated, and f in v's set means both of f's
/// views around the batch hold v's pattern-radius ball: f enumerates
/// every match through v on both sides of the step.
FragmentMasks SeedableFragments(const GraphView& post,
                                std::span<const GraphDelta::Op> ops,
                                const FragmentResidency& before,
                                const FragmentResidency& after,
                                uint32_t radius);

/// Shipping plan of one update batch under vertex-cut partitioned
/// storage. RouteDelta is the coordinator's delivery mechanism: each
/// fragment receives exactly the ops whose referenced nodes are all
/// resident in its pre-batch view, in stream order; the coordinator
/// appends halo-maintenance ops (border entry/exit repair) separately.
/// `gfdtool serve append` reports the same plan as shipping fan-out.
struct DeltaRouting {
  /// For each fragment: ascending indices into d.ops of the ops it
  /// receives. An op shipping to k fragments appears in k lists,
  /// exactly like vertex replication.
  std::vector<std::vector<size_t>> fragment_ops;
  /// Fragments receiving at least one op, sorted ascending.
  std::vector<uint32_t> affected_fragments;
};

/// Routes `d`'s ops by residency: an op ships to fragment f iff every
/// node it references is resident in f (edge ops: both endpoints; attr
/// ops: the node — so halo copies stay attribute-fresh). Ops that
/// reference out-of-range nodes are ignored (validation is the store's
/// job).
DeltaRouting RouteDelta(const GraphDelta& d, const FragmentResidency& resident);

}  // namespace gfd

#endif  // GFD_PARALLEL_FRAGMENT_H_
