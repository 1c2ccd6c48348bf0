#include "parallel/fragment.h"

#include <cstdint>

namespace gfd {

Fragmentation VertexCutPartition(const PropertyGraph& g, size_t n) {
  Fragmentation frag;
  frag.partition.num_fragments = n;
  frag.edge_fragment.resize(g.NumEdges());
  frag.fragment_edges.resize(n);
  frag.partition.node_owner.assign(g.NumNodes(), 0);

  const size_t m = g.NumEdges();
  const size_t cap = (m + n - 1) / n;  // hard balance cap per fragment

  // Per node: bitmask of fragments hosting one of its edges (n <= 64 for
  // the mask; larger n falls back to least-loaded placement only).
  std::vector<uint64_t> node_frags(g.NumNodes(), 0);
  std::vector<size_t> load(n, 0);

  for (EdgeId e = 0; e < m; ++e) {
    NodeId s = g.EdgeSrc(e), d = g.EdgeDst(e);
    uint64_t mask = (n <= 64) ? (node_frags[s] | node_frags[d]) : 0;
    size_t best = n;  // invalid
    // Prefer the least-loaded fragment already hosting an endpoint,
    // provided it is not at the balance cap.
    for (size_t f = 0; f < n && mask; ++f) {
      if (!(mask >> f & 1)) continue;
      if (load[f] >= cap) continue;
      if (best == n || load[f] < load[best]) best = f;
    }
    if (best == n) {
      // Fall back to the globally least-loaded fragment.
      best = 0;
      for (size_t f = 1; f < n; ++f) {
        if (load[f] < load[best]) best = f;
      }
    }
    frag.edge_fragment[e] = static_cast<uint32_t>(best);
    frag.fragment_edges[best].push_back(e);
    ++load[best];
    if (n <= 64) {
      node_frags[s] |= 1ull << best;
      node_frags[d] |= 1ull << best;
    }
  }

  // Node owners and replication factor.
  size_t replicas = 0, touched = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    uint64_t mask = node_frags[v];
    if (mask) {
      ++touched;
      replicas += static_cast<size_t>(__builtin_popcountll(mask));
      frag.partition.node_owner[v] =
          static_cast<uint32_t>(__builtin_ctzll(mask));
    } else {
      frag.partition.node_owner[v] = static_cast<uint32_t>(v % n);
    }
  }
  frag.partition.replication =
      touched ? static_cast<double>(replicas) / touched : 1.0;
  return frag;
}

namespace {

// A set of fragments per node, bit-parallel, in blocks of 64 fragments:
// block b holds one word per node, and bit f % 64 of node v's word in
// block f / 64 is set iff fragment f is in v's set.
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

  // Grows every node's set by its neighbours' sets, `hops` times, so that
  // each node ends with the union of the sets of the nodes within `hops`
  // undirected hops of it. A sweep: every hop visits every edge, once per
  // block of 64 fragments.
  template <typename GraphT>
  void Spread(const GraphT& g, uint32_t hops) {
    std::vector<uint64_t> next;
    for (std::vector<uint64_t>& cur : blocks_) {
      for (uint32_t h = 0; h < hops; ++h) {
        next = cur;
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          for (EdgeId e : g.OutEdges(v)) {
            const NodeId w = g.EdgeDst(e);
            next[v] |= cur[w];
            next[w] |= cur[v];
          }
        }
        cur.swap(next);
      }
    }
  }

 private:
  std::vector<std::vector<uint64_t>> blocks_;
};

}  // namespace

template <typename GraphT>
FragmentResidency ComputeResidency(const GraphT& g, const Partition& p) {
  const size_t num_nodes = g.NumNodes();
  FragmentMasks reach(num_nodes, p.num_fragments);
  for (NodeId v = 0; v < num_nodes && v < p.node_owner.size(); ++v) {
    reach.Set(v, p.node_owner[v]);
  }
  reach.Spread(g, p.halo_radius);
  FragmentResidency resident(p.num_fragments);
  for (size_t f = 0; f < p.num_fragments; ++f) {
    resident[f].resize(num_nodes);
    for (NodeId v = 0; v < num_nodes; ++v) resident[f][v] = reach.Test(v, f);
  }
  return resident;
}

template FragmentResidency ComputeResidency(const PropertyGraph&,
                                            const Partition&);
template FragmentResidency ComputeResidency(const GraphView&, const Partition&);

uint64_t ResidentEdges(const GraphView& g, std::span<const char> resident) {
  uint64_t count = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!resident[v]) continue;
    for (EdgeId e : g.OutEdges(v)) {
      if (resident[g.EdgeDst(e)]) ++count;
    }
  }
  return count;
}

}  // namespace gfd
