// Cover computation (Sections 5.2 and 6.3): a cover Sigma_c of a
// discovered set Sigma is a minimal equivalent subset, found by removing
// every GFD implied by the rest (the closure characterization of
// implication, gfd/problems.h).
//
// There is one elimination, grouped by pattern. Sigma is deduplicated and
// ordered most specific first; GFDs whose patterns are isomorphic form
// one group. By Lemma 6, Sigma \ {phi} |= phi iff the GFDs whose patterns
// embed into phi's pattern imply it, so each group tests its members,
// most specific first, against the live GFDs of that embedded set only.
// SeqCover runs every group inline; ParCover (parallel/parcover.h) runs
// the same per-group elimination on a cluster.
//
// Cross-group soundness: a GFD of another group that a test reads embeds
// strictly into the tested pattern (mutual embedding would make the two
// patterns isomorphic, hence one group). If its own group removes it, the
// live GFDs embedding into its pattern, hence into the tested one, still
// imply it, so reading it as alive or dead changes no verdict. The cover,
// in order, is thus the same whatever order or worker runs the groups,
// and equal to testing every GFD against all live ones, as the ParCovern
// ablation (ParCoverNoGrouping) does; tests/cover_checks.h holds them to
// that.
#ifndef GFD_CORE_COVER_H_
#define GFD_CORE_COVER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gfd/gfd.h"

namespace gfd {

struct CoverStats {
  uint64_t implication_tests = 0;
  uint64_t removed = 0;
};

/// Sorts `sigma` most specific first (largest pattern, longest LHS), so
/// general rules survive and their specializations are eliminated, and
/// drops exact duplicates, counting them in stats.removed. An input
/// already in this order keeps it, so covering a cover reproduces it.
void OrderForCover(std::vector<Gfd>& sigma, CoverStats& stats);

/// Runs eliminate(g) once for every group g in [0, costs.size()), where
/// costs[g] estimates group g's work. Distinct groups may run
/// concurrently.
using CoverGroupRunner =
    std::function<void(std::span<const uint64_t> costs,
                       const std::function<void(size_t)>& eliminate)>;

/// The grouped elimination (see file comment); `run` schedules the
/// groups. Returns the cover in most-specific-first order.
std::vector<Gfd> GroupedCover(std::vector<Gfd> sigma, CoverStats* stats,
                              const CoverGroupRunner& run);

/// The grouped elimination with every group run on the calling thread.
std::vector<Gfd> SeqCover(std::vector<Gfd> sigma, CoverStats* stats = nullptr);

}  // namespace gfd

#endif  // GFD_CORE_COVER_H_
