// Reproduces Fig. 6: sequential cost and rule counts / average supports.
//   dataset | SeqDisGFD | SeqCover | GFDs #/avg supp | GCFDs | AMIE
// SeqCover is the grouped (Lemma 6) elimination on one thread: each GFD
// is tested only against the live GFDs whose patterns embed into its own.
// Shape targets: SeqDis dominates SeqCover by orders of magnitude; all
// three miners produce non-trivial rule counts with sane supports.
#include <numeric>

#include "baselines/amie.h"
#include "baselines/gcfd.h"
#include "bench_util.h"
#include "core/cover.h"

using namespace gfd;
using namespace gfd::bench;

namespace {

void RunOne(const char* name, const PropertyGraph& g) {
  auto cfg = ScaledConfig(g);

  WallTimer t1;
  auto res = SeqDis(g, cfg);
  double dis_s = t1.Seconds();

  auto sigma = res.AllGfds();
  WallTimer t2;
  auto cover = SeqCover(sigma);
  double cover_s = t2.Seconds();

  uint64_t gfd_supp_total =
      std::accumulate(res.positive_supports.begin(),
                      res.positive_supports.end(), uint64_t{0}) +
      std::accumulate(res.negative_supports.begin(),
                      res.negative_supports.end(), uint64_t{0});
  size_t gfd_count = res.positives.size() + res.negatives.size();

  WallTimer t3;
  auto gcfds = MineGcfds(g, cfg);
  double gcfd_s = t3.Seconds();
  uint64_t gcfd_supp_total =
      std::accumulate(gcfds.positive_supports.begin(),
                      gcfds.positive_supports.end(), uint64_t{0}) +
      std::accumulate(gcfds.negative_supports.begin(),
                      gcfds.negative_supports.end(), uint64_t{0});
  size_t gcfd_count = gcfds.positives.size() + gcfds.negatives.size();

  AmieConfig acfg;
  acfg.min_support = 10;          // AMIE counts pairs, not pivots
  acfg.min_pca_confidence = 0.5;  // the paper's PCA threshold
  WallTimer t4;
  auto amie = MineAmieRules(g, acfg);
  double amie_s = t4.Seconds();
  uint64_t amie_supp_total = 0;
  for (const auto& r : amie) amie_supp_total += r.support;

  std::printf(
      "%-14s %11.2fs %10.3fs   %4zu/%-6lu %4zu/%-6lu %4zu/%-6lu %8.2fs %8.2fs "
      "%6zu\n",
      name, dis_s, cover_s, gfd_count,
      gfd_count ? gfd_supp_total / gfd_count : 0, gcfd_count,
      gcfd_count ? gcfd_supp_total / gcfd_count : 0, amie.size(),
      amie.empty() ? 0 : amie_supp_total / amie.size(), gcfd_s, amie_s,
      cover.size());
}

}  // namespace

int main() {
  std::printf("\n=== Fig 6: sequential cost and rule #/avg support ===\n");
  std::printf("%-14s %12s %11s   %-11s %-11s %-11s %9s %9s %6s\n", "dataset",
              "SeqDisGFD", "SeqCover", "GFD#/supp", "GCFD#/supp",
              "AMIE#/supp", "GCFD(s)", "AMIE(s)", "|cov|");
  {
    auto g = DbpediaLike(1500);
    RunOne("DBpedia-like", g);
  }
  {
    auto g = Yago2Like(1500);
    RunOne("YAGO2-like", g);
  }
  return 0;
}
