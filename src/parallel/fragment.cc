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
FragmentResidency ComputeResidency(const GraphT& g, const Partition& p) {
  const size_t num_nodes = g.NumNodes();
  FragmentResidency resident(p.num_fragments);
  std::vector<uint32_t> dist;
  std::vector<NodeId> queue;
  for (size_t f = 0; f < p.num_fragments; ++f) {
    resident[f].assign(num_nodes, 0);
    dist.assign(num_nodes, UINT32_MAX);
    queue.clear();
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (v < p.node_owner.size() && p.node_owner[v] == f) {
        dist[v] = 0;
        resident[f][v] = 1;
        queue.push_back(v);
      }
    }
    auto reach = [&](NodeId v, NodeId w) {
      if (dist[w] != UINT32_MAX) return;
      dist[w] = dist[v] + 1;
      resident[f][w] = 1;
      queue.push_back(w);
    };
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      if (dist[v] >= p.halo_radius) continue;
      for (EdgeId e : g.OutEdges(v)) reach(v, g.EdgeDst(e));
      for (EdgeId e : g.InEdges(v)) reach(v, g.EdgeSrc(e));
    }
  }
  return resident;
}

template FragmentResidency ComputeResidency(const PropertyGraph&,
                                            const Partition&);
template FragmentResidency ComputeResidency(const GraphView&, const Partition&);

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
