#include "detect/metrics.h"

#include <string>

namespace gfd {

namespace {
obs::MetricsRegistry& Reg() { return obs::MetricsRegistry::Default(); }
}  // namespace

obs::Histogram& DetectFullLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_detect_full_seconds", "Full-run violation detect latency.",
      obs::DefaultLatencyBuckets());
  return h;
}

obs::Histogram& DetectIncrementalLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_detect_incremental_seconds",
      "Incremental (anchored-diff) detect latency, one side per run.",
      obs::DefaultLatencyBuckets());
  return h;
}

obs::Counter& DetectMatchesEnumerated() {
  static obs::Counter& c =
      Reg().GetCounter("gfd_detect_matches_enumerated_total",
                       "Pattern matches enumerated across all detect runs.");
  return c;
}

obs::Counter& DetectGroupMatches(size_t group) {
  // Group cardinality is small (one per pattern topology); the registry
  // lookup is mutex-guarded but runs once per group per run, not per
  // match.
  return Reg().GetCounter(
      "gfd_detect_group_matches_total",
      "Pattern matches enumerated per pivot-isomorphism group.",
      {{"group", std::to_string(group)}});
}

obs::Counter& DetectLiteralEvals() {
  static obs::Counter& c =
      Reg().GetCounter("gfd_detect_literal_evals_total",
                       "Member tests (one match against one rule's "
                       "literals) across all detect runs.");
  return c;
}

obs::Counter& DetectDiffAdded() {
  static obs::Counter& c =
      Reg().GetCounter("gfd_detect_diff_added_total",
                       "Violations added by incremental step diffs.");
  return c;
}

obs::Counter& DetectDiffRemoved() {
  static obs::Counter& c =
      Reg().GetCounter("gfd_detect_diff_removed_total",
                       "Violations removed by incremental step diffs.");
  return c;
}

obs::Counter& DetectGroupsScanned() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_detect_groups_scanned_total",
      "Pattern groups in which step diffs ran at least one unit.");
  return c;
}

void TouchDetectMetrics() {
  DetectFullLatency();
  DetectIncrementalLatency();
  DetectMatchesEnumerated();
  DetectLiteralEvals();
  DetectDiffAdded();
  DetectDiffRemoved();
  DetectGroupsScanned();
}

}  // namespace gfd
