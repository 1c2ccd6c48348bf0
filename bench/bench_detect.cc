// Violation-detection smoke bench, run as a ctest entry on every CI
// build next to bench_smoke: mines a rule workload from a clean YAGO2-
// shaped graph, corrupts a copy, and times error detection over it three
// ways -- the naive per-GFD validation loop, the batched engine on one
// thread (isolating the shared-match-plan win) and the engine on 4
// threads. All three are cross-checked to report the identical violation
// multiset. Then the detect_full_w{1,4} rows time the full scan a serving
// store seeds its violation counter with, on the serving benchmark's
// input shape: Yago2Like(1000) plus 5% noise, checked against the
// SeqCover of the rules mined from the clean graph; both worker counts
// must agree on violations and counters. Timings land in
// BENCH_detect.json.
//
// Usage: bench_detect [output.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "core/cover.h"
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
  std::printf("batched(w1) vs naive: %.2fx; outputs %s\n", speedup,
              agree ? "identical" : "DIVERGED");

  // The serving shape: perfbench's graph (gfdtool gen --scale 1000
  // --seed 42 [--noise 0.05]) and gfdtool discover's configuration.
  // One timed body is kScansPerBody scans, which keeps the four-worker
  // row above the perf gate's 10 ms floor.
  auto serve_clean = MakeYago2Like({.scale = 1000, .seed = 42});
  auto serve_noisy = InjectNoise(serve_clean, {.alpha = 0.05, .seed = 43});
  DiscoveryConfig serve_cfg;
  serve_cfg.k = 3;
  serve_cfg.support_threshold =
      std::max<uint64_t>(10, serve_clean.NumNodes() / 100);
  ViolationEngine serve_engine(
      SeqCover(SeqDis(serve_clean, serve_cfg).AllGfds()));
  std::printf("serving workload: %zu rules in %zu pattern groups on "
              "|V|=%zu |E|=%zu (+noise)\n",
              serve_engine.NumRules(), serve_engine.NumGroups(),
              serve_noisy.graph.NumNodes(), serve_noisy.graph.NumEdges());
  constexpr int kScansPerBody = 5;
  DetectionResult full[2];
  const size_t full_workers[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    DetectOptions opts;
    opts.workers = full_workers[i];
    const double s = TimedMin(kReps, [&] {
      for (int scan = 0; scan < kScansPerBody; ++scan) {
        full[i] = serve_engine.Detect(serve_noisy.graph, opts);
      }
    });
    const DetectStats& st = full[i].stats;
    rows.push_back({"detect_full_w" + std::to_string(full_workers[i]),
                    s,
                    {{"scans", double(kScansPerBody)},
                     {"rules", double(serve_engine.NumRules())},
                     {"groups", double(st.num_groups)},
                     {"violations", double(full[i].violations.size())},
                     {"pivots_scanned", double(st.pivots_scanned)},
                     {"matches_seen", double(st.matches_seen)},
                     {"literal_evals", double(st.literal_evals)}}});
    std::printf("%-24s %8.3fs  %d scans: %zu violations, %lu pivots, %lu "
                "matches, %lu literal evals\n",
                rows.back().name.c_str(), s, kScansPerBody,
                full[i].violations.size(),
                static_cast<unsigned long>(st.pivots_scanned),
                static_cast<unsigned long>(st.matches_seen),
                static_cast<unsigned long>(st.literal_evals));
  }
  const bool full_agree =
      full[0].violations == full[1].violations &&
      full[0].stats.pivots_scanned == full[1].stats.pivots_scanned &&
      full[0].stats.matches_seen == full[1].stats.matches_seen &&
      full[0].stats.literal_evals == full[1].stats.literal_evals;
  std::printf("full scan w1 vs w4: outputs and counters %s\n",
              full_agree ? "identical" : "DIVERGED");
  agree = agree && full_agree;

  rows.push_back({"summary",
                  0,
                  {{"verified", agree ? 1.0 : 0.0},
                   {"speedup_w1_vs_naive", speedup}}});

  WriteJson(out, rows);
  std::printf("wrote %s\n", out);
  return agree ? 0 : 1;
}
