// SeqDis (Section 5.1): sequential discovery of all k-bounded minimum
// sigma-frequent GFDs, positive and negative, in a single integrated
// process. The discovery loop (discovery.h) interleaves
//   - VSpawn: grow patterns edge by edge (generation_tree.h),
//   - HSpawn: grow LHS literal sets level-wise per (pattern, RHS literal),
//     evaluated against the pattern's match profile (profile.h),
//   - NVSpawn: zero-support patterns with frequent parents become negative
//     GFDs Q'(∅ -> false),
//   - NHSpawn: frequent validated positives extended by one literal with
//     Q(G, X', z) = 0 become negative GFDs Q(X' -> false),
// with the pruning rules of Lemma 4 (no trivial GFDs, stop an X branch
// once satisfied, never extend infrequent patterns) and online
// reduced-GFD filtering via the << order, which the loop's feeding order
// makes exact (GeneralFirstOrder). SeqDis's pattern source enumerates each
// pattern's matches once and answers the lattice from a local profile.
#ifndef GFD_CORE_SEQDIS_H_
#define GFD_CORE_SEQDIS_H_

#include <functional>
#include <iterator>
#include <vector>

#include "core/config.h"
#include "gfd/gfd.h"
#include "graph/property_graph.h"

namespace gfd {

/// Output of a discovery run (before cover computation).
struct DiscoveryResult {
  std::vector<Gfd> positives;
  std::vector<Gfd> negatives;
  /// Support of each discovered GFD, parallel to positives/negatives
  /// (negatives carry the support of their base, Section 4.2).
  std::vector<uint64_t> positive_supports;
  std::vector<uint64_t> negative_supports;
  DiscoveryStats stats;

  size_t NumGfds() const { return positives.size() + negatives.size(); }

  /// positives ++ negatives, for validation / cover computation. Sized
  /// up front so the concatenation allocates exactly once.
  std::vector<Gfd> AllGfds() const& {
    std::vector<Gfd> all;
    all.reserve(NumGfds());
    all.insert(all.end(), positives.begin(), positives.end());
    all.insert(all.end(), negatives.begin(), negatives.end());
    return all;
  }

  /// Consuming overload: no Gfd is copied. Picked automatically on
  /// temporaries (`SeqDis(g, cfg).AllGfds()`) and via std::move when the
  /// result's vectors are no longer needed.
  std::vector<Gfd> AllGfds() && {
    std::vector<Gfd> all = std::move(positives);
    all.reserve(all.size() + negatives.size());
    std::move(negatives.begin(), negatives.end(), std::back_inserter(all));
    negatives.clear();
    return all;
  }

  /// Const-ref iteration over positives ++ negatives without
  /// materializing the concatenation. The callback returns false to stop.
  void ForEachGfd(const std::function<bool(const Gfd&)>& fn) const {
    for (const Gfd& phi : positives) {
      if (!fn(phi)) return;
    }
    for (const Gfd& phi : negatives) {
      if (!fn(phi)) return;
    }
  }
};

/// Runs sequential GFD discovery on `g`.
DiscoveryResult SeqDis(const PropertyGraph& g, const DiscoveryConfig& cfg);

}  // namespace gfd

#endif  // GFD_CORE_SEQDIS_H_
