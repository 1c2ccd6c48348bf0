// Tiny-input smoke benches, run as a ctest entry on every CI build.
// Exercises the three hot paths the figure benches scale up -- SeqDis,
// ParDis, and SeqCover (the cover's grouped elimination on one thread) --
// on ~300-node graphs and writes the timings to BENCH_smoke.json, seeding
// the per-PR perf trajectory. SeqDis and ParDis at 1 and 4 workers share
// one graph, so the rows compare the local and the distributed row
// sources of the one literal lattice.
//
// Usage: bench_smoke [output.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cover.h"

using namespace gfd;
using namespace gfd::bench;

namespace {

struct SmokeResult {
  std::string name;
  double seconds = 0;
  std::vector<std::pair<std::string, double>> counters;
};

void WriteJson(const char* path, const std::vector<SmokeResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::perror(path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"gfd-bench-smoke-v1\",\n");
  std::fprintf(f, "  \"benches\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"seconds\": %.6f",
                 r.name.c_str(), r.seconds);
    for (const auto& [k, v] : r.counters) {
      std::fprintf(f, ", \"%s\": %.0f", k.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_smoke.json";
  std::vector<SmokeResult> results;

  // Smoke 1: sequential discovery on a DBpedia-like graph (fig 5a path).
  {
    auto g = DbpediaLike(300);
    auto cfg = ScaledConfig(g);
    WallTimer t;
    auto res = SeqDis(g, cfg);
    SmokeResult r{"seqdis_dbpedia300", t.Seconds(), {}};
    r.counters.emplace_back("positives", double(res.positives.size()));
    r.counters.emplace_back("negatives", double(res.negatives.size()));
    std::printf("%-24s %8.3fs  +%zu/-%zu\n", r.name.c_str(), r.seconds,
                res.positives.size(), res.negatives.size());

    // Smoke 2: cover of the discovered set -- the grouped (Lemma 6)
    // elimination Fig. 5(i-k)'s ParCover runs, here inline on one thread.
    WallTimer t2;
    auto cover = SeqCover(std::move(res).AllGfds());
    SmokeResult rc{"seqcover_dbpedia300", t2.Seconds(), {}};
    rc.counters.emplace_back("cover_size", double(cover.size()));
    std::printf("%-24s %8.3fs  |cov|=%zu\n", rc.name.c_str(), rc.seconds,
                cover.size());
    results.push_back(std::move(r));
    results.push_back(std::move(rc));
  }

  // Smoke 3: parallel discovery with load balancing (fig 5b/5e path),
  // then SeqDis and ParDis at 1 worker on the same graph.
  {
    auto g = Yago2Like(300);
    auto cfg = ScaledConfig(g);
    auto add = [&](const char* name, double seconds, size_t positives,
                   size_t negatives) {
      SmokeResult r{name, seconds, {}};
      r.counters.emplace_back("positives", double(positives));
      r.counters.emplace_back("negatives", double(negatives));
      std::printf("%-24s %8.3fs  +%zu/-%zu\n", r.name.c_str(), r.seconds,
                  positives, negatives);
      results.push_back(std::move(r));
    };
    auto run = TimeParDis(g, cfg, /*workers=*/4, /*load_balance=*/true);
    add("pardis_w4_yago300", run.seconds, run.positives, run.negatives);

    WallTimer t;
    auto seq = SeqDis(g, cfg);
    add("seqdis_yago300", t.Seconds(), seq.positives.size(),
        seq.negatives.size());

    run = TimeParDis(g, cfg, /*workers=*/1, /*load_balance=*/true);
    add("pardis_w1_yago300", run.seconds, run.positives, run.negatives);
  }

  WriteJson(out, results);
  std::printf("wrote %s\n", out);
  return 0;
}
