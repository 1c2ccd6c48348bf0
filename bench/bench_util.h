// Shared scaffolding for the figure/table reproduction benches: standard
// dataset instantiations (scaled-down stand-ins for DBpedia / YAGO2 /
// IMDB, see docs/ARCHITECTURE.md "Substitutions"), timing helpers, and
// the table printer all benches use so their output reads like the
// paper's series.
#ifndef GFD_BENCH_BENCH_UTIL_H_
#define GFD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/seqdis.h"
#include "datagen/kb.h"
#include "graph/property_graph.h"
#include "parallel/cluster.h"
#include "parallel/pardis.h"
#include "util/timer.h"

namespace gfd::bench {

/// Default scaled dataset sizes. The paper's graphs have 1.7M-3.4M nodes;
/// these are ~100-500x smaller so a full sweep finishes in minutes while
/// exercising identical code paths.
inline PropertyGraph DbpediaLike(size_t scale = 2000) {
  return MakeDbpediaLike({.scale = scale, .seed = 7});
}
inline PropertyGraph Yago2Like(size_t scale = 2500) {
  return MakeYago2Like({.scale = scale, .seed = 7});
}
inline PropertyGraph ImdbLike(size_t scale = 2000) {
  return MakeImdbLike({.scale = scale, .seed = 7});
}

/// The discovery configuration used by the scalability figures
/// (k = 3, sigma scaled to the graph size).
inline DiscoveryConfig ScaledConfig(const PropertyGraph& g, uint32_t k = 3) {
  DiscoveryConfig cfg;
  cfg.k = k;
  cfg.support_threshold = std::max<uint64_t>(10, g.NumNodes() / 100);
  cfg.max_lhs_size = 2;
  return cfg;
}

struct TimedRun {
  double seconds = 0;
  size_t positives = 0;
  size_t negatives = 0;
  ClusterStats cluster;
};

/// Times one DisGFD run (= ParDis mining; cover timing is separate, as in
/// the paper's figures).
inline TimedRun TimeParDis(const PropertyGraph& g, const DiscoveryConfig& cfg,
                           size_t workers, bool load_balance) {
  ParallelRunConfig pcfg;
  pcfg.workers = workers;
  pcfg.load_balance = load_balance;
  TimedRun out;
  WallTimer t;
  auto res = ParDis(g, cfg, pcfg, &out.cluster);
  out.seconds = t.Seconds();
  out.positives = res.positives.size();
  out.negatives = res.negatives.size();
  return out;
}

/// Prints a header like the figure captions.
inline void PrintHeader(const std::string& figure, const std::string& title,
                        const PropertyGraph& g) {
  std::printf("\n=== %s: %s ===\n", figure.c_str(), title.c_str());
  std::printf("graph: |V|=%zu |E|=%zu labels=%zu\n", g.NumNodes(),
              g.NumEdges(), g.labels().size());
}

/// Prints one table row: label column + numeric columns.
inline void PrintRow(const std::string& label,
                     const std::vector<double>& cells,
                     const std::vector<std::string>& units = {}) {
  std::printf("%-24s", label.c_str());
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(" %10.3f%s", cells[i],
                i < units.size() ? units[i].c_str() : "");
  }
  std::printf("\n");
}

inline void PrintColumns(const std::string& label,
                         const std::vector<std::string>& cols) {
  std::printf("%-24s", label.c_str());
  for (const auto& c : cols) std::printf(" %10s", c.c_str());
  std::printf("\n");
}

}  // namespace gfd::bench

#endif  // GFD_BENCH_BENCH_UTIL_H_
