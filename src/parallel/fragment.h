// Vertex-cut fragmentation (Section 6.1): the graph's edges are evenly
// partitioned across n fragments; nodes are implicitly replicated wherever
// their edges land. A greedy placement keeps fragments balanced while
// preferring fragments that already host one of the edge's endpoints
// (lower replication), the standard vertex-cut heuristic. ParDis
// (parallel/pardis.h) places its workers' matches by it. The serving
// coordinator (serve/coordinator.h) keeps one as the plan of a
// shared-nothing deployment -- owners plus the residency each fragment
// would store -- which its serving step does not read.
#ifndef GFD_PARALLEL_FRAGMENT_H_
#define GFD_PARALLEL_FRAGMENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace gfd {

/// Ownership state of a vertex-cut partition, shared by ParDis and the
/// serving coordinator (which persists it in coordinator.meta).
struct Partition {
  size_t num_fragments = 0;

  /// Halo radius in hops: a node is resident in fragment f iff its
  /// undirected distance from f's owned node set is <= halo_radius.
  /// Serving requires halo_radius >= the max per-variable eccentricity
  /// over all rule patterns (ViolationEngine::MaxPatternRadius), so every
  /// match through an owned node lies inside the fragment's residency.
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

/// Computes residency by sweeping the owners p.halo_radius times over
/// `g`'s edges (undirected for residency), 64 fragments per word. GraphT
/// is PropertyGraph or GraphView: the coordinator sweeps its live global
/// view directly, with no adjacency copy.
template <typename GraphT>
FragmentResidency ComputeResidency(const GraphT& g, const Partition& p);

/// The edges of `g` with both endpoints in `resident`: what a fragment
/// holding that residency would store.
uint64_t ResidentEdges(const GraphView& g, std::span<const char> resident);

}  // namespace gfd

#endif  // GFD_PARALLEL_FRAGMENT_H_
