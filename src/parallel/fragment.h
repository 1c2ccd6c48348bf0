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

/// Ownership state of a vertex-cut partition, shared by ParDis and the
/// serving coordinator (which persists it in coordinator.meta so every
/// layer reads the same owners).
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

/// A set of fragments per node, bit-parallel, in blocks of 64 fragments:
/// block b holds one word per node, and bit f % 64 of node v's word in
/// block f / 64 is set iff fragment f is in v's set. Residency is a sweep
/// over these words -- one pass over the edges per hop and block, for 64
/// fragments at once; seed eligibility pushes from the few nodes whose
/// word is not empty.
class FragmentMasks {
 public:
  FragmentMasks(size_t num_nodes, size_t num_fragments)
      : num_fragments_(num_fragments),
        blocks_((num_fragments + 63) / 64,
                std::vector<uint64_t>(num_nodes, 0)) {}

  bool Test(NodeId v, size_t f) const {
    return (blocks_[f / 64][v] >> (f % 64) & 1) != 0;
  }
  void Set(NodeId v, size_t f) {
    blocks_[f / 64][v] |= uint64_t{1} << (f % 64);
  }

  /// Every node's set replaced by the fragments missing from it.
  void Complement();

  /// Grows every node's set by its neighbours' sets, `hops` times, so
  /// that each node ends with the union of the sets of the nodes within
  /// `hops` undirected hops of it -- over `g`'s edges less every edge
  /// whose (src, dst, label) key an E- op of `cut` names. A sweep: every
  /// hop visits every edge. GraphT is PropertyGraph or GraphView.
  template <typename GraphT>
  void Spread(const GraphT& g, uint32_t hops,
              std::span<const GraphDelta::Op> cut = {});

  /// The same growth over `g`'s edges plus the edges of `extra`'s edge
  /// ops (its attribute ops join nothing), pushed hop by hop from the
  /// nodes whose set changed in the hop before -- at first, those whose
  /// set is not empty -- along their out- and in-edges. Its cost tracks
  /// those nodes' edges, not the graph's: for sets that start empty
  /// almost everywhere.
  void Push(const GraphView& g, std::span<const GraphDelta::Op> extra,
            uint32_t hops);

 private:
  size_t num_fragments_;
  std::vector<std::vector<uint64_t>> blocks_;
};

/// Computes residency by sweeping the owner masks p.halo_radius times
/// over `g`'s edges (undirected for residency). GraphT is PropertyGraph
/// or GraphView: the coordinator sweeps its live global view directly,
/// with no adjacency copy.
template <typename GraphT>
FragmentResidency ComputeResidency(const GraphT& g, const Partition& p);

/// The edges of `g` with both endpoints in `resident`: what a fragment
/// holding that residency would store.
uint64_t ResidentEdges(const GraphView& g, std::span<const char> resident);

/// Where each node may seed one batch's step diff, read off `pre`, the
/// graph just before the batch, and the batch's `ops`, before anything
/// absorbs them: fragment f is in v's set iff every node within
/// `radius` undirected hops of v is resident at f under `p` both before
/// the batch and after it. Residency is taken over `pre` less every
/// edge key `ops` delete -- edges both sides hold, so a node resident
/// there is resident on both sides -- and the hops run over `pre` plus
/// the edges `ops` insert, which hold every edge of either side. The
/// residency is under-approximated and the balls over-approximated, so
/// f in v's set means both of f's views around the batch hold v's
/// pattern-radius ball: f enumerates every match through v on both
/// sides of the step.
FragmentMasks SeedableFragments(const GraphView& pre,
                                std::span<const GraphDelta::Op> ops,
                                const Partition& p, uint32_t radius);

/// Plans the seeds of one batch's step on a coordinator over `p`: each
/// of `anchors` (BatchFootprint::anchors), priced by `costs` (StepPlan::
/// anchor_costs, in the same order), goes to exactly one fragment that
/// SeedableFragments admits, or its owner -- whose residency holds the
/// anchor's `radius`-hop ball on both sides, radius being <= the halo
/// radius. Longest processing time first: most expensive first, ties by
/// node id, each on the least-loaded fragment that qualifies, ties to
/// the owner and then to the lowest id. Returns every fragment's sorted
/// seeds. Deterministic.
std::vector<std::vector<NodeId>> PlanSeeds(const Partition& p,
                                           const GraphView& pre,
                                           std::span<const GraphDelta::Op> ops,
                                           std::span<const NodeId> anchors,
                                           std::span<const uint64_t> costs,
                                           uint32_t radius);

}  // namespace gfd

#endif  // GFD_PARALLEL_FRAGMENT_H_
