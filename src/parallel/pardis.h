// ParDis (Section 6.2): parallel GFD discovery over a vertex-cut
// fragmented graph, parallel-scalable relative to SeqDis (Theorem 5).
//
// ParDis runs SeqDis's discovery loop (core/discovery.h) with a pattern
// source that splits matching and validation across the workers.
// Supersteps per pattern level:
//   1. VSpawn at the master (the loop's, as in SeqDis).
//   2. Parallel incremental pattern matching: each worker s joins its
//      locally owned matches Q(F_s) with the candidate edge lists e(F_t)
//      shipped from every fragment t (the distributed join work units).
//   3. Load balancing: every match lives at its pivot's worker (pivot %
//      n) from level-0 seeding on, and joins keep the pivot, so matches
//      never move and per-candidate supports are disjoint sums. The
//      ParGFDnb ablation seeds at the pivot's fragment owner instead;
//      its pivots are as disjoint and its supports add up the same way,
//      so it differs only in placement: it measures the imbalance.
//   4. Parallel GFD validation: the master runs SeqDis's literal lattice
//      (core/lattice.h, HSpawn + NHSpawn) and answers each of its query
//      batches in one superstep: every worker answers from the profile of
//      the matches it owns (supports, violation, NHSpawn emptiness + OWA
//      presence), and the master combines the answers.
//
// Output is identical to SeqDis, in order (asserted by tests): there is
// one discovery loop and one lattice, with one set of pruning rules and
// reduced-GFD filters, and only the pattern source differs.
#ifndef GFD_PARALLEL_PARDIS_H_
#define GFD_PARALLEL_PARDIS_H_

#include "core/config.h"
#include "core/seqdis.h"
#include "graph/property_graph.h"
#include "parallel/cluster.h"

namespace gfd {

/// Runs parallel GFD discovery. `stats` (optional) receives communication
/// and skew accounting.
DiscoveryResult ParDis(const PropertyGraph& g, const DiscoveryConfig& cfg,
                       const ParallelRunConfig& pcfg,
                       ClusterStats* stats = nullptr);

}  // namespace gfd

#endif  // GFD_PARALLEL_PARDIS_H_
