#include "parallel/pardis.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "core/discovery.h"
#include "core/profile.h"
#include "match/incremental.h"
#include "parallel/fragment.h"
#include "util/timer.h"

namespace gfd {

namespace {

// ParDis's pattern source: each level's matches are joined on the
// workers (seeded from the fragments at level 0) and stay there; every
// pattern question is one or more Cluster supersteps over them.
class ClusterSource : public PatternSource {
 public:
  ClusterSource(const PropertyGraph& g, const ParallelRunConfig& pcfg)
      : g_(g),
        pcfg_(pcfg),
        cluster_(pcfg.workers),
        frag_(VertexCutPartition(g, pcfg.workers)) {}

  // Communication and skew accounting of the run so far.
  ClusterStats Stats() const {
    ClusterStats out = cstats_;
    out.replication = frag_.partition.replication;
    out.messages = cluster_.messages();
    out.bytes_shipped = cluster_.bytes();
    if (rows_ > 0) {
      out.max_skew = static_cast<double>(largest_rows_) * pcfg_.workers / rows_;
    }
    return out;
  }

  void BeginLevel(const GenerationTree& tree, size_t level,
                  std::span<const int> ids) override {
    // Level 0's "matches" are the label's nodes, placed at their owner.
    if (level == 0) {
      for (int id : ids) SeedSingleNodeMatches(tree.node(id), id);
      return;
    }
    // Parallel incremental matching for every spawned pattern.
    WallTimer match_timer;
    for (int id : ids) MatchPattern(tree.node(id), id);
    cstats_.match_seconds += match_timer.Seconds();
    // Drop the previous level's matches: joins only need level-1.
    for (int id : tree.level(level - 1)) states_.erase(id);
  }

  PatternCount Count(const GenerationTree& tree, int id) override {
    uint64_t matches = 0;
    for (const auto& w : states_[id]) matches += w.size();
    return {matches, CountDistinctPivots(id, tree.node(id).pattern.pivot())};
  }

  // Distributed constant collection, merged at the master.
  std::vector<VarConstFreq> Constants(
      int id, const std::vector<AttrId>& gamma) override {
    const auto& st = states_[id];
    std::vector<std::vector<VarConstFreq>> local(pcfg_.workers);
    cluster_.RunStep([&](size_t w) {
      local[w] = CollectMatchConstants(g_, st[w], gamma);
    });
    for (const auto& part : local) {
      cluster_.CountShipment(part.size(), sizeof(VarConstFreq));
    }
    return MergeMatchConstants(local);
  }

  // Distributed profiling, then the lattice with one superstep per query
  // batch. Each worker profiles the matches it owns (the matches stay for
  // the next level's joins).
  void Mine(int id, const Pattern& pattern, const std::vector<Literal>& pool,
            LiteralLatticeMiner& lattice) override {
    cluster_.CountBroadcast(pool.size(), sizeof(Literal));
    WallTimer vt;
    const auto& st = states_[id];
    const VarId pivot = pattern.pivot();
    std::vector<PatternProfile> profiles(pcfg_.workers);
    cluster_.RunStep([&](size_t w) {
      std::vector<ProfileRow> rows;
      rows.reserve(st[w].size());
      for (const auto& m : st[w]) {
        rows.push_back(ProfileMatch(g_, m, pivot, pool));
      }
      profiles[w] = PatternProfile::FromRows(std::move(rows), pool.size());
    });
    size_t largest = 0;
    for (const auto& w : st) {
      rows_ += w.size();
      largest = std::max(largest, w.size());
    }
    largest_rows_ += largest;
    lattice.MinePattern(id, pattern, pool,
                        [&](std::span<const LatticeQuery> batch) {
                          return Evaluate(profiles, batch);
                        });
    cstats_.validate_seconds += vt.Seconds();
  }

 private:
  // The worker holding every match of pivot v: pivot-aligned (v % n)
  // under load balancing, else the fragment owning v (the ParGFDnb
  // ablation). Level-0 seeding places each single-node match here, and a
  // join never changes a match's pivot, so every later match stays at
  // OwnerOf(its pivot). A pivot thus lives on one worker in both modes,
  // and per-worker distinct-pivot counts add up into a support; the modes
  // differ only in how evenly the pivots spread.
  size_t OwnerOf(NodeId pivot) const {
    if (pcfg_.load_balance) return pivot % pcfg_.workers;
    return frag_.partition.node_owner[pivot];
  }

  void SeedSingleNodeMatches(const TreeNode& node, int node_id) {
    auto& st = states_[node_id];
    st.assign(pcfg_.workers, {});
    LabelId l = node.pattern.NodeLabel(0);
    for (NodeId v = 0; v < g_.NumNodes(); ++v) {
      if (!LabelMatches(g_.NodeLabel(v), l)) continue;
      st[OwnerOf(v)].push_back({v});
    }
  }

  // Parallel incremental matching: Q'(F_s) = Q(F_s) |><| e(F_t) for all t.
  void MatchPattern(const TreeNode& node, int node_id) {
    auto& st = states_[node_id];
    st.assign(pcfg_.workers, {});
    if (node.parents.empty()) return;
    int parent_id = node.parents[0];
    auto pit = states_.find(parent_id);
    if (pit == states_.end()) return;  // parent not materialized (rare)
    auto& parent_states = pit->second;

    const DeltaEdge& delta = node.delta;
    LabelId src_label = node.pattern.NodeLabel(delta.src);
    LabelId dst_label = node.pattern.NodeLabel(delta.dst);

    // Step 1 (parallel): each worker extracts its local e(F_t).
    std::vector<std::vector<CandidateEdge>> local_edges(pcfg_.workers);
    cluster_.RunStep([&](size_t w) {
      local_edges[w] = CollectCandidateEdges(g_, src_label, delta.label,
                                             dst_label,
                                             &frag_.fragment_edges[w]);
    });

    // Step 2: all-to-all shipment of candidate edge lists. In the
    // simulated cluster the "shipment" is the concatenation below; we
    // account (n-1) receivers per fragment list.
    std::vector<CandidateEdge> all_edges;
    for (size_t t = 0; t < pcfg_.workers; ++t) {
      cluster_.CountShipment(local_edges[t].size() * (pcfg_.workers - 1),
                             sizeof(CandidateEdge));
      all_edges.insert(all_edges.end(), local_edges[t].begin(),
                       local_edges[t].end());
    }
    std::sort(all_edges.begin(), all_edges.end(),
              [](const CandidateEdge& a, const CandidateEdge& b) {
                return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
    all_edges.erase(std::unique(all_edges.begin(), all_edges.end()),
                    all_edges.end());

    // Step 3 (parallel): local joins. A join keeps its parent match's
    // pivot, so every joined match stays where OwnerOf placed its pivot.
    cluster_.RunStep([&](size_t w) {
      st[w] = JoinMatchesWithEdges(parent_states[w], delta, all_edges);
    });
  }

  // Each pivot lives on one worker (OwnerOf), so local distinct counts
  // sum exactly (supp(phi, G) = sum_s supp(phi, F_s), Section 6.2).
  uint64_t CountDistinctPivots(int node_id, VarId pivot) {
    const auto& st = states_[node_id];
    std::vector<uint64_t> local(pcfg_.workers, 0);
    cluster_.RunStep([&](size_t w) { local[w] = CountPivots(st[w], pivot); });
    uint64_t total = 0;
    for (uint64_t c : local) total += c;
    return total;
  }

  // One superstep answering a lattice batch: every worker answers each
  // query from its own profile, and the master combines the answers.
  // Each pivot lives on one worker, so supports add up.
  std::vector<LatticeAnswer> Evaluate(
      const std::vector<PatternProfile>& profiles,
      std::span<const LatticeQuery> batch) {
    const size_t n = pcfg_.workers;
    std::vector<std::vector<LatticeAnswer>> local(n);
    cluster_.RunStep([&](size_t w) {
      local[w].reserve(batch.size());
      for (const auto& q : batch) local[w].push_back(profiles[w].Answer(q));
    });
    std::vector<LatticeAnswer> out(batch.size());
    for (size_t w = 0; w < n; ++w) {
      cluster_.CountShipment(batch.size(), sizeof(LatticeAnswer));
      for (size_t qi = 0; qi < batch.size(); ++qi) {
        out[qi].supp += local[w][qi].supp;
        out[qi].violated |= local[w][qi].violated;
        out[qi].any_sat |= local[w][qi].any_sat;
        out[qi].any_present |= local[w][qi].any_present;
      }
    }
    return out;
  }

  const PropertyGraph& g_;
  const ParallelRunConfig pcfg_;
  Cluster cluster_;
  Fragmentation frag_;
  ClusterStats cstats_;
  // Over the profiled patterns: all rows, and the largest worker's.
  uint64_t rows_ = 0;
  uint64_t largest_rows_ = 0;
  // Per pattern, the matches each worker owns.
  std::unordered_map<int, std::vector<std::vector<Match>>> states_;
};

}  // namespace

DiscoveryResult ParDis(const PropertyGraph& g, const DiscoveryConfig& cfg,
                       const ParallelRunConfig& pcfg, ClusterStats* stats) {
  ClusterSource source(g, pcfg);
  DiscoveryResult result = Discover(g, cfg, source);
  if (stats) *stats = source.Stats();
  return result;
}

}  // namespace gfd
