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

/// Ownership state of a vertex-cut partition, shared by DetectSharded,
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

  /// Per fragment: sorted resident non-owned nodes (the shipped border
  /// halo). Persisted for introspection; residency is recomputed from
  /// the live graph on open (ComputeResidency is authoritative).
  std::vector<std::vector<NodeId>> borders;

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
/// The returned partition has halo_radius 0 and empty borders; callers
/// pick the radius and derive borders via ComputeResidency/FillBorders.
Fragmentation VertexCutPartition(const PropertyGraph& g, size_t n);

/// Per-fragment node residency map: resident[f][v] != 0 iff v lies
/// within p.halo_radius undirected hops of a node owned by f (owned
/// nodes are at distance 0, hence always resident).
using FragmentResidency = std::vector<std::vector<char>>;

/// Computes residency by multi-source BFS from each fragment's owned
/// set over `adj`, the undirected neighbor lists of the live graph
/// (duplicate neighbors are harmless).
FragmentResidency ComputeResidency(const std::vector<std::vector<NodeId>>& adj,
                                   const Partition& p);

/// Convenience overload over a materialized graph.
FragmentResidency ComputeResidency(const PropertyGraph& g, const Partition& p);

/// Rebuilds p.borders from a residency map: borders[f] = sorted resident
/// nodes of f that f does not own.
void FillBorders(Partition* p, const FragmentResidency& resident);

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
