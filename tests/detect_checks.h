// Checks of the full-scan kernel shared by detect_test and property_test:
// output and counters independent of the worker count, and caps that
// hold exactly when workers race for them.
#ifndef GFD_TESTS_DETECT_CHECKS_H_
#define GFD_TESTS_DETECT_CHECKS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "detect/engine.h"
#include "detect/metrics.h"
#include "graph/property_graph.h"

namespace gfd::testing {

/// Uncapped Detect at 1, 2, 4 and 8 workers: every run returns the same
/// violations and the same pivot / match / literal-eval counts, and the
/// per-group match counters a run adds sum to its matches_seen. Returns
/// the one-worker result.
inline DetectionResult ExpectSameAtEveryWorkerCount(
    const ViolationEngine& engine, const PropertyGraph& g) {
  DetectionResult first;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << workers << " worker(s)");
    std::vector<uint64_t> entry(engine.NumGroups());
    for (size_t gi = 0; gi < entry.size(); ++gi) {
      entry[gi] = DetectGroupMatches(gi).Value();
    }
    DetectOptions opts;
    opts.workers = workers;
    DetectionResult r = engine.Detect(g, opts);
    uint64_t group_matches = 0;
    for (size_t gi = 0; gi < entry.size(); ++gi) {
      group_matches += DetectGroupMatches(gi).Value() - entry[gi];
    }
    EXPECT_EQ(group_matches, r.stats.matches_seen);
    EXPECT_FALSE(r.stats.truncated);
    if (workers == 1) {
      first = std::move(r);
      continue;
    }
    EXPECT_EQ(r.violations, first.violations);
    EXPECT_EQ(r.stats.pivots_scanned, first.stats.pivots_scanned);
    EXPECT_EQ(r.stats.matches_seen, first.stats.matches_seen);
    EXPECT_EQ(r.stats.literal_evals, first.stats.literal_evals);
  }
  return first;
}

/// Caps at 4 workers, given the uncapped result `full` and a per-rule
/// cap: alone, the cap keeps exactly min(cap, n_r) violations of each
/// rule r with n_r violations; with a global budget one short of their
/// sum as well, every rule holds at most `cap`, the total equals the
/// budget, and the run is truncated. Every kept violation is one of
/// `full`'s. Returns false, checking nothing, when that sum is below 2.
inline bool ExpectCapsHoldAtFourWorkers(const ViolationEngine& engine,
                                        const PropertyGraph& g,
                                        const DetectionResult& full,
                                        size_t cap) {
  std::vector<size_t> available(engine.NumRules(), 0);
  for (const Violation& v : full.violations) ++available[v.gfd_index];
  size_t capped_total = 0;
  bool cap_bites = false;
  for (size_t n : available) {
    capped_total += std::min(n, cap);
    cap_bites = cap_bites || n >= cap;
  }
  if (capped_total < 2) return false;

  auto kept_per_rule = [&](const DetectionResult& r) {
    std::vector<size_t> kept(engine.NumRules(), 0);
    for (const Violation& v : r.violations) {
      ++kept[v.gfd_index];
      EXPECT_TRUE(std::binary_search(full.violations.begin(),
                                     full.violations.end(), v));
    }
    return kept;
  };

  DetectOptions per_rule;
  per_rule.max_violations_per_gfd = cap;
  per_rule.workers = 4;
  const DetectionResult capped = engine.Detect(g, per_rule);
  const std::vector<size_t> kept = kept_per_rule(capped);
  for (size_t r = 0; r < kept.size(); ++r) {
    EXPECT_EQ(kept[r], std::min(available[r], cap)) << "rule " << r;
  }
  EXPECT_EQ(capped.stats.truncated, cap_bites);

  DetectOptions both = per_rule;
  both.max_total_violations = capped_total - 1;
  const DetectionResult budgeted = engine.Detect(g, both);
  for (size_t n : kept_per_rule(budgeted)) EXPECT_LE(n, cap);
  EXPECT_EQ(budgeted.violations.size(), capped_total - 1);
  EXPECT_TRUE(budgeted.stats.truncated);
  return true;
}

}  // namespace gfd::testing

#endif  // GFD_TESTS_DETECT_CHECKS_H_
