#include "parallel/fragment.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

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

void FragmentMasks::Complement() {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const size_t bits = std::min<size_t>(64, num_fragments_ - 64 * b);
    const uint64_t valid =
        bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    for (uint64_t& word : blocks_[b]) word = ~word & valid;
  }
}

template <typename GraphT>
void FragmentMasks::Spread(const GraphT& g, uint32_t hops,
                           std::span<const GraphDelta::Op> cut) {
  // The cut keys, and their sources: only an edge out of one is looked
  // up.
  std::vector<std::array<uint32_t, 3>> cut_keys;
  std::vector<char> cut_src;
  for (const GraphDelta::Op& op : cut) {
    if (op.kind != GraphDelta::OpKind::kDeleteEdge) continue;
    if (cut_src.empty()) cut_src.assign(g.NumNodes(), 0);
    cut_keys.push_back({op.src, op.dst, op.label});
    cut_src[op.src] = 1;
  }
  std::sort(cut_keys.begin(), cut_keys.end());
  std::vector<uint64_t> next;
  for (std::vector<uint64_t>& cur : blocks_) {
    for (uint32_t h = 0; h < hops; ++h) {
      next = cur;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        const bool cuts = !cut_src.empty() && cut_src[v];
        for (EdgeId e : g.OutEdges(v)) {
          const NodeId w = g.EdgeDst(e);
          if (cuts && std::binary_search(cut_keys.begin(), cut_keys.end(),
                                         std::array<uint32_t, 3>{
                                             v, w, g.EdgeLabel(e)})) {
            continue;
          }
          next[v] |= cur[w];
          next[w] |= cur[v];
        }
      }
      cur.swap(next);
    }
  }
}

template void FragmentMasks::Spread(const PropertyGraph&, uint32_t,
                                    std::span<const GraphDelta::Op>);
template void FragmentMasks::Spread(const GraphView&, uint32_t,
                                    std::span<const GraphDelta::Op>);

void FragmentMasks::Push(const GraphView& g,
                         std::span<const GraphDelta::Op> extra,
                         uint32_t hops) {
  if (hops == 0) return;
  // The ops' edges by endpoint, both ways.
  std::vector<std::pair<NodeId, NodeId>> extra_adj;
  for (const GraphDelta::Op& op : extra) {
    if (op.kind == GraphDelta::OpKind::kSetAttr) continue;
    extra_adj.emplace_back(op.src, op.dst);
    extra_adj.emplace_back(op.dst, op.src);
  }
  std::sort(extra_adj.begin(), extra_adj.end());
  std::vector<NodeId> changed;
  std::vector<std::pair<NodeId, uint64_t>> pushing;
  for (std::vector<uint64_t>& words : blocks_) {
    changed.clear();
    for (NodeId v = 0; v < words.size(); ++v) {
      if (words[v] != 0) changed.push_back(v);
    }
    for (uint32_t h = 0; h < hops && !changed.empty(); ++h) {
      // A node that did not change pushed its set already; the rest push
      // the sets they start the hop with, so one hop spreads one hop.
      pushing.clear();
      for (NodeId v : changed) pushing.emplace_back(v, words[v]);
      changed.clear();
      auto reach = [&](NodeId w, uint64_t set) {
        if ((words[w] | set) == words[w]) return;
        words[w] |= set;
        changed.push_back(w);
      };
      for (const auto& [v, set] : pushing) {
        for (EdgeId e : g.OutEdges(v)) reach(g.EdgeDst(e), set);
        for (EdgeId e : g.InEdges(v)) reach(g.EdgeSrc(e), set);
        for (auto it = std::lower_bound(extra_adj.begin(), extra_adj.end(),
                                        std::pair<NodeId, NodeId>{v, 0});
             it != extra_adj.end() && it->first == v; ++it) {
          reach(it->second, set);
        }
      }
      std::sort(changed.begin(), changed.end());
      changed.erase(std::unique(changed.begin(), changed.end()),
                    changed.end());
    }
  }
}

namespace {

// Each node's owner, as a one-fragment set.
FragmentMasks OwnerMasks(size_t num_nodes, const Partition& p) {
  FragmentMasks masks(num_nodes, p.num_fragments);
  for (NodeId v = 0; v < num_nodes && v < p.node_owner.size(); ++v) {
    masks.Set(v, p.node_owner[v]);
  }
  return masks;
}

}  // namespace

template <typename GraphT>
FragmentResidency ComputeResidency(const GraphT& g, const Partition& p) {
  const size_t num_nodes = g.NumNodes();
  FragmentMasks reach = OwnerMasks(num_nodes, p);
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

FragmentMasks SeedableFragments(const GraphView& pre,
                                std::span<const GraphDelta::Op> ops,
                                const Partition& p, uint32_t radius) {
  // Residency over the edges both sides hold, a sweep: nearly every
  // node is resident somewhere. Then the fragments each node is missing
  // from, pushed over the radius from the few nodes missing from any: a
  // fragment left clear holds the whole ball on both sides.
  FragmentMasks masks = OwnerMasks(pre.NumNodes(), p);
  masks.Spread(pre, p.halo_radius, /*cut=*/ops);
  masks.Complement();
  masks.Push(pre, /*extra=*/ops, radius);
  masks.Complement();
  return masks;
}

std::vector<std::vector<NodeId>> PlanSeeds(const Partition& p,
                                           const GraphView& pre,
                                           std::span<const GraphDelta::Op> ops,
                                           std::span<const NodeId> anchors,
                                           std::span<const uint64_t> costs,
                                           uint32_t radius) {
  const size_t n = p.num_fragments;
  std::vector<std::vector<NodeId>> seeds(n);
  std::optional<FragmentMasks> seedable;
  if (n > 1 && !anchors.empty()) {
    seedable = SeedableFragments(pre, ops, p, radius);
  }
  std::vector<std::pair<uint64_t, NodeId>> order;
  order.reserve(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    order.emplace_back(costs[i], anchors[i]);
  }
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  std::vector<uint64_t> load(n, 0);
  for (const auto& [cost, a] : order) {
    // The owner's halo holds the ball on both sides, whatever the masks'
    // approximations say. A strictly smaller load is needed to leave it,
    // and the ascending scan keeps the lowest id among equals.
    size_t best = p.node_owner[a];
    for (size_t f = 0; seedable && f < n; ++f) {
      if (load[f] < load[best] && seedable->Test(a, f)) best = f;
    }
    load[best] += cost;
    seeds[best].push_back(a);
  }
  for (std::vector<NodeId>& s : seeds) std::sort(s.begin(), s.end());
  return seeds;
}

}  // namespace gfd
