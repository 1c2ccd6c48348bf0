#include "parallel/pardis.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

#include "core/generation_tree.h"
#include "core/lattice.h"
#include "core/lattice_util.h"
#include "core/literal_pool.h"
#include "core/profile.h"
#include "graph/stats.h"
#include "match/incremental.h"
#include "parallel/fragment.h"
#include "util/timer.h"

namespace gfd {

namespace {

class ParMiner {
 public:
  ParMiner(const PropertyGraph& g, const DiscoveryConfig& cfg,
           const ParallelRunConfig& pcfg)
      : g_(g),
        cfg_(cfg),
        pcfg_(pcfg),
        cluster_(pcfg.workers),
        frag_(VertexCutPartition(g, pcfg.workers)),
        gstats_(g),
        lattice_(cfg_, result_) {}

  DiscoveryResult Run(ClusterStats* out_stats) {
    gamma_ = ResolveActiveAttrs(gstats_, cfg_);
    auto triples = gstats_.FrequentTriples(cfg_.support_threshold);
    auto wildcard_labels =
        cfg_.wildcard_upgrades ? WildcardEdgeLabels(gstats_, cfg_)
                               : std::vector<LabelId>{};
    cstats_.replication = frag_.partition.replication;

    // Level 0: single-node patterns; their "matches" are the label's nodes,
    // placed at their owner fragment.
    auto l0 = InitTree(tree_, gstats_, cfg_, result_.stats);
    for (int id : l0) SeedSingleNodeMatches(id);
    SortGeneralFirst(l0);
    for (int id : l0) ProcessPattern(id);

    const size_t max_level = cfg_.k * cfg_.k;
    for (size_t level = 1; level <= max_level && !Exhausted(); ++level) {
      auto spawned = VSpawn(tree_, static_cast<int>(level), triples,
                            wildcard_labels, cfg_, result_.stats);
      if (spawned.empty()) break;
      // Parallel incremental matching for every spawned pattern.
      WallTimer match_timer;
      for (int id : spawned) MatchPattern(id);
      cstats_.match_seconds += match_timer.Seconds();
      // Drop the previous level's matches: joins only need level-1.
      for (int id : tree_.level(level - 1)) states_.erase(id);
      SortGeneralFirst(spawned);
      for (int id : spawned) {
        if (Exhausted()) break;
        ProcessPattern(id);
      }
    }

    FinalizeReduced(result_);
    cstats_.messages = cluster_.messages();
    cstats_.bytes_shipped = cluster_.bytes();
    if (out_stats) *out_stats = cstats_;
    return std::move(result_);
  }

 private:
  bool Exhausted() const { return result_.stats.budget_exceeded; }

  void SortGeneralFirst(std::vector<int>& ids) {
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
      size_t wa = WildcardCount(tree_.node(a).pattern);
      size_t wb = WildcardCount(tree_.node(b).pattern);
      if (wa != wb) return wa > wb;
      return a < b;
    });
  }

  size_t OwnerOf(NodeId pivot) const {
    if (pcfg_.load_balance) return pivot % pcfg_.workers;
    return frag_.partition.node_owner[pivot];
  }

  void SeedSingleNodeMatches(int node_id) {
    const TreeNode& node = tree_.node(node_id);
    auto& st = states_[node_id];
    st.assign(pcfg_.workers, {});
    LabelId l = node.pattern.NodeLabel(0);
    for (NodeId v = 0; v < g_.NumNodes(); ++v) {
      if (!LabelMatches(g_.NodeLabel(v), l)) continue;
      st[OwnerOf(v)].push_back({v});
    }
  }

  // Parallel incremental matching: Q'(F_s) = Q(F_s) |><| e(F_t) for all t.
  void MatchPattern(int node_id) {
    TreeNode& node = tree_.node(node_id);
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

    // Step 3 (parallel): local joins.
    std::vector<size_t> loads(pcfg_.workers, 0);
    cluster_.RunStep([&](size_t w) {
      st[w] = JoinMatchesWithEdges(parent_states[w], delta, all_edges);
      loads[w] = st[w].size();
    });

    // Skew accounting (before any re-balancing).
    size_t total = 0, max_load = 0;
    for (size_t w = 0; w < pcfg_.workers; ++w) {
      total += loads[w];
      max_load = std::max(max_load, loads[w]);
    }
    if (total > 0) {
      double mean = static_cast<double>(total) / pcfg_.workers;
      cstats_.max_skew = std::max(cstats_.max_skew, max_load / mean);
    }

    // Step 4: pivot-aligned shuffle (load balancing). Matches whose pivot
    // hashes elsewhere are shipped to their owner.
    if (pcfg_.load_balance) {
      const VarId pivot = node.pattern.pivot();
      std::vector<std::vector<Match>> outbound(pcfg_.workers);
      for (size_t w = 0; w < pcfg_.workers; ++w) {
        auto& mine = st[w];
        std::vector<Match> keep;
        for (auto& m : mine) {
          size_t owner = m[pivot] % pcfg_.workers;
          if (owner == w) {
            keep.push_back(std::move(m));
          } else {
            outbound[owner].push_back(std::move(m));
            ++cstats_.matches_rebalanced;
          }
        }
        mine = std::move(keep);
      }
      for (size_t w = 0; w < pcfg_.workers; ++w) {
        cluster_.CountShipment(outbound[w].size(),
                               node.pattern.NumNodes() * sizeof(NodeId));
        auto& mine = st[w];
        mine.insert(mine.end(),
                    std::make_move_iterator(outbound[w].begin()),
                    std::make_move_iterator(outbound[w].end()));
      }
    }
  }

  // Verifies support, handles NVSpawn, and mines the pattern's literal
  // trees with distributed batch validation.
  void ProcessPattern(int node_id) {
    TreeNode& node = tree_.node(node_id);
    auto& st = states_[node_id];

    size_t total_matches = 0;
    for (const auto& w : st) total_matches += w.size();
    result_.stats.profile_matches += total_matches;
    result_.stats.max_pattern_matches =
        std::max<uint64_t>(result_.stats.max_pattern_matches, total_matches);
    node.support = CountDistinctPivots(node_id);
    node.verified = true;
    node.frequent = cfg_.prune ? node.support >= cfg_.support_threshold
                               : node.support > 0;
    if (node.frequent) ++result_.stats.patterns_frequent;

    if (node.support == 0) {
      ++result_.stats.patterns_zero_support;
      if (cfg_.discover_negative) NVSpawn(node_id);
      return;
    }
    if (cfg_.prune && node.support < cfg_.support_threshold) return;

    // Distributed constant collection -> literal pool at the master.
    std::vector<std::vector<VarConstFreq>> local_consts(pcfg_.workers);
    cluster_.RunStep([&](size_t w) {
      local_consts[w] = CollectMatchConstants(g_, st[w], gamma_);
    });
    std::map<std::tuple<VarId, AttrId, ValueId>, uint64_t> merged;
    for (size_t w = 0; w < pcfg_.workers; ++w) {
      cluster_.CountShipment(local_consts[w].size(), sizeof(VarConstFreq));
      for (const auto& c : local_consts[w]) {
        merged[{c.var, c.attr, c.value}] += c.count;
      }
    }
    std::vector<VarConstFreq> constants;
    constants.reserve(merged.size());
    for (const auto& [key, count] : merged) {
      constants.push_back(
          {std::get<0>(key), std::get<1>(key), std::get<2>(key), count});
    }
    std::sort(constants.begin(), constants.end(),
              [](const VarConstFreq& l, const VarConstFreq& r) {
                if (l.count != r.count) return l.count > r.count;
                if (l.var != r.var) return l.var < r.var;
                if (l.attr != r.attr) return l.attr < r.attr;
                return l.value < r.value;
              });
    auto pool = BuildLiteralPoolFromMatches(node.pattern, gamma_, constants,
                                            cfg_);
    cluster_.CountBroadcast(pool.size(), sizeof(Literal));

    // Distributed profiling: each worker profiles the matches it owns (the
    // matches stay for the next level's joins).
    WallTimer vt;
    const VarId pivot = node.pattern.pivot();
    std::vector<PatternProfile> profiles(pcfg_.workers);
    cluster_.RunStep([&](size_t w) {
      std::vector<ProfileRow> rows;
      rows.reserve(st[w].size());
      for (const auto& m : st[w]) {
        rows.push_back(ProfileMatch(g_, m, pivot, pool));
      }
      profiles[w] = PatternProfile::FromRows(std::move(rows), pool.size());
    });
    lattice_.MinePattern(node_id, node.pattern, pool,
                         [&](std::span<const LatticeQuery> batch) {
                           return Evaluate(profiles, batch);
                         });
    cstats_.validate_seconds += vt.Seconds();
  }

  uint64_t CountDistinctPivots(int node_id) {
    const auto& st = states_[node_id];
    const VarId pivot = tree_.node(node_id).pattern.pivot();
    if (pcfg_.load_balance) {
      // Pivot-aligned ownership: local distinct counts sum exactly
      // (supp(phi, G) = sum_s supp(phi, F_s), Section 6.2).
      std::vector<uint64_t> local(pcfg_.workers, 0);
      cluster_.RunStep([&](size_t w) {
        std::vector<NodeId> pivots;
        pivots.reserve(st[w].size());
        for (const auto& m : st[w]) pivots.push_back(m[pivot]);
        std::sort(pivots.begin(), pivots.end());
        pivots.erase(std::unique(pivots.begin(), pivots.end()),
                     pivots.end());
        local[w] = pivots.size();
      });
      uint64_t total = 0;
      for (uint64_t c : local) total += c;
      return total;
    }
    // Unbalanced ownership: pivots may repeat across workers; the master
    // unions shipped pivot sets (extra communication, the ablation cost).
    std::set<NodeId> all;
    for (size_t w = 0; w < pcfg_.workers; ++w) {
      cluster_.CountShipment(st[w].size(), sizeof(NodeId));
      for (const auto& m : st[w]) all.insert(m[pivot]);
    }
    return all.size();
  }

  // One superstep answering a lattice batch: every worker answers each
  // query from its own profile, and the master combines the answers.
  // Balanced, each pivot lives on one worker, so supports add up
  // (supp(phi, G) = sum_s supp(phi, F_s), Section 6.2). Unbalanced, the
  // workers also ship their witness pivots, and the master unions them.
  std::vector<LatticeAnswer> Evaluate(
      const std::vector<PatternProfile>& profiles,
      std::span<const LatticeQuery> batch) {
    const size_t n = pcfg_.workers;
    std::vector<std::vector<LatticeAnswer>> local(n);
    std::vector<std::vector<std::vector<NodeId>>> witnesses(n);
    cluster_.RunStep([&](size_t w) {
      local[w].reserve(batch.size());
      for (const auto& q : batch) {
        local[w].push_back(profiles[w].Answer(q));
        if (!pcfg_.load_balance) {
          witnesses[w].push_back(profiles[w].WitnessPivots(q.SupportMask()));
        }
      }
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
    if (!pcfg_.load_balance) {
      for (size_t qi = 0; qi < batch.size(); ++qi) {
        std::vector<NodeId> all;
        for (size_t w = 0; w < n; ++w) {
          cluster_.CountShipment(witnesses[w][qi].size(), sizeof(NodeId));
          all.insert(all.end(), witnesses[w][qi].begin(),
                     witnesses[w][qi].end());
        }
        std::sort(all.begin(), all.end());
        out[qi].supp = std::unique(all.begin(), all.end()) - all.begin();
      }
    }
    return out;
  }

  void NVSpawn(int node_id) {
    const TreeNode& node = tree_.node(node_id);
    uint64_t base_support = 0;
    for (int pid : node.parents) {
      const TreeNode& parent = tree_.node(pid);
      if (parent.verified && parent.frequent) {
        base_support = std::max(base_support, parent.support);
      }
    }
    if (base_support < cfg_.support_threshold) return;
    lattice_.AddNegative(node_id, Gfd(node.pattern, {}, Literal::False()),
                         base_support);
  }

  const PropertyGraph& g_;
  const DiscoveryConfig cfg_;
  const ParallelRunConfig pcfg_;
  Cluster cluster_;
  Fragmentation frag_;
  GraphStats gstats_;
  std::vector<AttrId> gamma_;
  GenerationTree tree_;
  DiscoveryResult result_;
  ClusterStats cstats_;
  LiteralLatticeMiner lattice_;
  // Per pattern, the matches each worker owns.
  std::unordered_map<int, std::vector<std::vector<Match>>> states_;
};

}  // namespace

DiscoveryResult ParDis(const PropertyGraph& g, const DiscoveryConfig& cfg,
                       const ParallelRunConfig& pcfg, ClusterStats* stats) {
  return ParMiner(g, cfg, pcfg).Run(stats);
}

}  // namespace gfd
