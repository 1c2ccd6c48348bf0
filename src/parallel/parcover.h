// ParCover (Section 6.3): the cover's grouped elimination
// (core/cover.h) with its pattern groups spread over a cluster. Groups are
// assigned to workers with an LPT (longest-processing-time-first)
// 2-approximate balancer and eliminated in one step; the cover, in order,
// is SeqCover's at every worker count.
#ifndef GFD_PARALLEL_PARCOVER_H_
#define GFD_PARALLEL_PARCOVER_H_

#include <vector>

#include "core/cover.h"
#include "gfd/gfd.h"
#include "parallel/cluster.h"

namespace gfd {

/// Parallel cover with pattern grouping (the paper's ParCover).
std::vector<Gfd> ParCover(std::vector<Gfd> sigma,
                          const ParallelRunConfig& pcfg,
                          CoverStats* stats = nullptr);

/// The ParCovern ablation (Fig. 5(i-k)): no grouping. Every GFD is first
/// tested against all of Sigma in parallel; the implied ones are then
/// confirmed in order against the surviving set, so mutually implying
/// GFDs are not both dropped. Implication is monotone, so the cover, in
/// order, is the grouped elimination's: the tests hold both to it.
std::vector<Gfd> ParCoverNoGrouping(std::vector<Gfd> sigma,
                                    const ParallelRunConfig& pcfg,
                                    CoverStats* stats = nullptr);

}  // namespace gfd

#endif  // GFD_PARALLEL_PARCOVER_H_
