// Cached registry handles for the detection layer's metrics. Each
// accessor registers its family in obs::MetricsRegistry::Default() on
// first use and returns the same child afterwards, so hot paths only
// touch relaxed atomics.
#ifndef GFD_DETECT_METRICS_H_
#define GFD_DETECT_METRICS_H_

#include <cstddef>

#include "obs/metrics.h"

namespace gfd {

/// Full-run detect latency (gfd_detect_full_seconds).
obs::Histogram& DetectFullLatency();

/// Incremental (anchored-diff) detect latency
/// (gfd_detect_incremental_seconds).
obs::Histogram& DetectIncrementalLatency();

/// Total pattern matches enumerated across all runs
/// (gfd_detect_matches_enumerated_total).
obs::Counter& DetectMatchesEnumerated();

/// Matches enumerated attributed to pattern group `group`
/// (gfd_detect_group_matches_total{group="<i>"}).
obs::Counter& DetectGroupMatches(size_t group);

/// Literal evaluations across all runs (gfd_detect_literal_evals_total).
obs::Counter& DetectLiteralEvals();

/// Violations entering / leaving the set via incremental diffs
/// (gfd_detect_diff_added_total / gfd_detect_diff_removed_total).
obs::Counter& DetectDiffAdded();
obs::Counter& DetectDiffRemoved();

/// Pattern groups scanned / skipped by the anchored-diff footprint gate
/// (gfd_detect_groups_scanned_total / gfd_detect_groups_skipped_total).
obs::Counter& DetectGroupsScanned();
obs::Counter& DetectGroupsSkipped();

/// Pre-registers every unlabeled detect family so a render shows the
/// full catalog even before any detection ran.
void TouchDetectMetrics();

}  // namespace gfd

#endif  // GFD_DETECT_METRICS_H_
