#include "parallel/fragment.h"

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

template <typename GraphT>
void FragmentMasks::Spread(const GraphT& g,
                           std::span<const GraphDelta::Op> extra,
                           uint32_t hops) {
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
      for (const GraphDelta::Op& op : extra) {
        if (op.kind == GraphDelta::OpKind::kSetAttr) continue;
        next[op.src] |= cur[op.dst];
        next[op.dst] |= cur[op.src];
      }
      cur.swap(next);
    }
  }
}

template void FragmentMasks::Spread(const PropertyGraph&,
                                    std::span<const GraphDelta::Op>, uint32_t);
template void FragmentMasks::Spread(const GraphView&,
                                    std::span<const GraphDelta::Op>, uint32_t);

template <typename GraphT>
FragmentResidency ComputeResidency(const GraphT& g, const Partition& p) {
  const size_t num_nodes = g.NumNodes();
  FragmentMasks reach(num_nodes, p.num_fragments);
  for (NodeId v = 0; v < num_nodes && v < p.node_owner.size(); ++v) {
    reach.Set(v, p.node_owner[v]);
  }
  reach.Spread(g, {}, p.halo_radius);
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

FragmentMasks SeedableFragments(const GraphView& post,
                                std::span<const GraphDelta::Op> ops,
                                const FragmentResidency& before,
                                const FragmentResidency& after,
                                uint32_t radius) {
  const size_t num_nodes = post.NumNodes();
  const size_t n = before.size();
  // The fragments each node is missing from on either side, spread over
  // the radius: a fragment left clear holds the whole ball on both.
  FragmentMasks blocked(num_nodes, n);
  for (size_t f = 0; f < n; ++f) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (!before[f][v] || !after[f][v]) blocked.Set(v, f);
    }
  }
  blocked.Spread(post, ops, radius);
  FragmentMasks seedable(num_nodes, n);
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (size_t f = 0; f < n; ++f) {
      if (!blocked.Test(v, f)) seedable.Set(v, f);
    }
  }
  return seedable;
}

DeltaRouting RouteDelta(const GraphDelta& d,
                        const FragmentResidency& resident) {
  const size_t num_fragments = resident.size();
  DeltaRouting route;
  route.fragment_ops.resize(num_fragments);
  auto resident_in = [&](size_t f, NodeId v) {
    return v < resident[f].size() && resident[f][v] != 0;
  };
  for (size_t i = 0; i < d.ops.size(); ++i) {
    const GraphDelta::Op& op = d.ops[i];
    for (size_t f = 0; f < num_fragments; ++f) {
      if (!resident_in(f, op.src)) continue;
      if (op.kind != GraphDelta::OpKind::kSetAttr && !resident_in(f, op.dst)) {
        continue;
      }
      route.fragment_ops[f].push_back(i);
    }
  }
  for (uint32_t f = 0; f < num_fragments; ++f) {
    if (!route.fragment_ops[f].empty()) route.affected_fragments.push_back(f);
  }
  return route;
}

}  // namespace gfd
