// Violation-detection smoke bench, run as a ctest entry on every CI
// build next to bench_smoke: mines a rule workload from a clean YAGO2-
// shaped graph, corrupts a copy, and times error detection over it three
// ways -- the naive per-GFD validation loop, the batched engine on one
// thread (isolating the shared-match-plan win) and the engine on 4
// threads. All three are cross-checked to report the identical violation
// multiset; timings land in BENCH_detect.json.
//
// Usage: bench_detect [output.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "datagen/noise.h"
#include "detect/engine.h"
#include "pattern/canonical.h"
#include "util/hash.h"

using namespace gfd;
using namespace gfd::bench;

namespace {

struct Row {
  std::string name;
  double seconds = 0;
  std::vector<std::pair<std::string, double>> counters;
};

void WriteJson(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::perror(path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"gfd-bench-detect-v1\",\n");
  std::fprintf(f, "  \"benches\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"seconds\": %.6f",
                 r.name.c_str(), r.seconds);
    for (const auto& [k, v] : r.counters) {
      std::fprintf(f, ", \"%s\": %.3f", k.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Mined rule sets are dominated by literal variants over few pattern
// topologies (at scale 300, ~4.6k rules over ~260 patterns). The serving
// workload keeps the `max_groups` largest pattern groups, up to
// `per_group` rules each -- the shape a deployed checker actually runs.
std::vector<Gfd> BuildWorkload(const PropertyGraph& g, size_t max_groups,
                               size_t per_group) {
  auto cfg = ScaledConfig(g);
  auto all = SeqDis(g, cfg).AllGfds();
  std::unordered_map<std::vector<uint32_t>, std::vector<size_t>, VecHash>
      by_code;
  for (size_t i = 0; i < all.size(); ++i) {
    by_code[CanonicalCode(all[i].pattern, /*fix_pivot=*/true)].push_back(i);
  }
  std::vector<std::vector<size_t>> groups;
  for (auto& [code, members] : by_code) groups.push_back(std::move(members));
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() > b.size() : a[0] < b[0];
  });
  std::vector<Gfd> rules;
  for (size_t gi = 0; gi < groups.size() && gi < max_groups; ++gi) {
    for (size_t i = 0; i < groups[gi].size() && i < per_group; ++i) {
      rules.push_back(std::move(all[groups[gi][i]]));
    }
  }
  return rules;
}

// Min of `reps` timed runs (sub-10ms bodies need the min to be stable).
template <typename Fn>
double TimedMin(int reps, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.Seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_detect.json";

  auto clean = Yago2Like(300);
  auto rules = BuildWorkload(clean, /*max_groups=*/10, /*per_group=*/25);
  auto noisy = InjectNoise(clean, {.alpha = 0.08, .beta = 0.6, .seed = 3});

  ViolationEngine engine(rules);
  std::printf("workload: %zu rules in %zu pattern groups on |V|=%zu "
              "|E|=%zu (+noise)\n",
              engine.NumRules(), engine.NumGroups(), noisy.graph.NumNodes(),
              noisy.graph.NumEdges());
  if (engine.NumRules() < 20 || engine.NumGroups() < 5) {
    std::fprintf(stderr, "workload too small to be meaningful\n");
    return 1;
  }

  std::vector<Row> rows;
  auto add = [&](std::string name, double seconds,
                 const DetectionResult& r) {
    Row row{std::move(name), seconds, {}};
    row.counters.emplace_back("rules", double(engine.NumRules()));
    row.counters.emplace_back("groups", double(r.stats.num_groups));
    row.counters.emplace_back("violations", double(r.violations.size()));
    row.counters.emplace_back("matches_seen", double(r.stats.matches_seen));
    std::printf("%-24s %8.3fs  %zu violations, %lu matches\n",
                row.name.c_str(), seconds, r.violations.size(),
                static_cast<unsigned long>(r.stats.matches_seen));
    rows.push_back(std::move(row));
  };

  const int kReps = 3;
  DetectionResult naive, batched, batched4;
  double naive_s =
      TimedMin(kReps, [&] { naive = DetectNaive(noisy.graph, rules); });
  add("detect_naive_per_gfd", naive_s, naive);

  double batched_s = TimedMin(
      kReps, [&] { batched = engine.Detect(noisy.graph, {.workers = 1}); });
  add("detect_batched_w1", batched_s, batched);

  double batched4_s = TimedMin(
      kReps, [&] { batched4 = engine.Detect(noisy.graph, {.workers = 4}); });
  add("detect_batched_w4", batched4_s, batched4);

  bool agree = batched.violations == naive.violations &&
               batched4.violations == naive.violations;
  double speedup = batched_s > 0 ? naive_s / batched_s : 0;
  rows.push_back({"summary",
                  0,
                  {{"verified", agree ? 1.0 : 0.0},
                   {"speedup_w1_vs_naive", speedup}}});
  std::printf("batched(w1) vs naive: %.2fx; outputs %s\n", speedup,
              agree ? "identical" : "DIVERGED");

  WriteJson(out, rows);
  std::printf("wrote %s\n", out);
  return agree ? 0 : 1;
}
