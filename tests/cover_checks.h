// Checks of the cover shared by parallel_test and property_test: the
// grouped elimination returns the ungrouped reference's cover, in order,
// whoever runs it.
#ifndef GFD_TESTS_COVER_CHECKS_H_
#define GFD_TESTS_COVER_CHECKS_H_

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/cover.h"
#include "gfd/serialize.h"
#include "graph/property_graph.h"
#include "parallel/parcover.h"

namespace gfd::testing {

/// The cover as `gfdtool cover` writes it: SaveGfds text, in order.
inline std::string CoverText(const std::vector<Gfd>& cover,
                             const PropertyGraph& g) {
  std::ostringstream out;
  SaveGfds(cover, g, out);
  return out.str();
}

/// SeqCover, and ParCover at 1, 2, 4 and 8 workers, return the text of
/// ParCoverNoGrouping at 1 worker (every GFD tested against all live
/// ones). Every grouped run counts the same removals as the reference and
/// the same tests as each other, fewer than the reference's. Returns
/// SeqCover's stats.
inline CoverStats ExpectCoversEqualReference(const std::vector<Gfd>& sigma,
                                             const PropertyGraph& g) {
  CoverStats ref_stats;
  const std::string ref =
      CoverText(ParCoverNoGrouping(sigma, {.workers = 1}, &ref_stats), g);
  CoverStats seq_stats;
  EXPECT_EQ(CoverText(SeqCover(sigma, &seq_stats), g), ref) << "SeqCover";
  EXPECT_EQ(seq_stats.removed, ref_stats.removed);
  EXPECT_LT(seq_stats.implication_tests, ref_stats.implication_tests);
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "ParCover at " << workers);
    CoverStats st;
    EXPECT_EQ(CoverText(ParCover(sigma, {.workers = workers}, &st), g), ref);
    EXPECT_EQ(st.implication_tests, seq_stats.implication_tests);
    EXPECT_EQ(st.removed, seq_stats.removed);
  }
  return seq_stats;
}

}  // namespace gfd::testing

#endif  // GFD_TESTS_COVER_CHECKS_H_
