// Incremental-detection smoke bench, run as a ctest entry on every CI
// build next to bench_detect: mines a rule workload from a clean YAGO2-
// shaped graph at scale 300, corrupts a copy (the serving graph), then
// replays random update deltas of 0.1% / 1% / 10% of the edge count and
// times DetectIncremental (view build, validation and absorb included)
// against a full re-detect over the updated snapshot. For every delta the
// incremental added/removed records are cross-checked byte-identical to
// the diff of two full runs; timings land in BENCH_incremental.json. The
// step_age_* rows then serve one fixed 8-op batch through
// GraphStore::AppendAndDiff on top of overlays of growing age, to show
// whether a serving step's work tracks the batch or the overlay.
//
// Usage: bench_incremental [output.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "datagen/noise.h"
#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "pattern/canonical.h"
#include "serve/graph_store.h"
#include "util/hash.h"
#include "util/rng.h"

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
  std::fprintf(f, "{\n  \"schema\": \"gfd-bench-incremental-v1\",\n");
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

// Same serving-shaped workload as bench_detect: the largest pattern
// groups of a mined cover, up to `per_group` literal variants each.
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

// An update stream over g: 40% edge inserts (label-plausible endpoints),
// 30% deletes of existing edges, 30% attribute sets (some introducing
// brand-new values, as real patches do).
GraphDelta RandomDelta(const PropertyGraph& g, size_t ops, uint64_t seed) {
  Rng rng(seed);
  GraphDelta d;
  std::vector<bool> gone(g.NumEdges(), false);
  for (size_t i = 0; i < ops; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.4) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      EdgeId e2 = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      d.InsertEdge(g.EdgeSrc(e), g.EdgeDst(e2), g.EdgeLabel(e));
    } else if (roll < 0.7) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      if (gone[e]) continue;
      gone[e] = true;
      d.DeleteEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    } else {
      NodeId v = static_cast<NodeId>(rng.Below(g.NumNodes()));
      auto attrs = g.NodeAttrs(v);
      if (attrs.empty()) continue;
      AttrId key = attrs[rng.Below(attrs.size())].key;
      ValueId val =
          rng.Chance(0.25)
              ? d.InternValue(g, "patched_" + std::to_string(rng.Below(8)))
              : static_cast<ValueId>(rng.Below(g.values().size()));
      d.SetAttr(v, key, val);
    }
  }
  return d;
}

// `overlay` without the deletes that would consume an edge `batch` deletes,
// so the batch still applies on top of it.
GraphDelta WithoutDeletesOf(const GraphDelta& overlay,
                            const GraphDelta& batch) {
  GraphDelta out = overlay;
  std::erase_if(out.ops, [&](const GraphDelta::Op& op) {
    if (op.kind != GraphDelta::OpKind::kDeleteEdge) return false;
    for (const GraphDelta::Op& b : batch.ops) {
      if (b.kind == op.kind && b.src == op.src && b.dst == op.dst &&
          b.label == op.label) {
        return true;
      }
    }
    return false;
  });
  return out;
}

std::string DeltaTsv(const PropertyGraph& g, const GraphDelta& d) {
  std::ostringstream os;
  SaveGraphDeltaTsv(g, d, os);
  return std::move(os).str();
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
  const char* out = argc > 1 ? argv[1] : "BENCH_incremental.json";

  auto clean = Yago2Like(300);
  auto rules = BuildWorkload(clean, /*max_groups=*/10, /*per_group=*/25);
  auto noisy = InjectNoise(clean, {.alpha = 0.08, .beta = 0.6, .seed = 3});
  const PropertyGraph& g0 = noisy.graph;

  ViolationEngine engine(rules);
  std::printf("workload: %zu rules in %zu pattern groups on |V|=%zu "
              "|E|=%zu (+noise)\n",
              engine.NumRules(), engine.NumGroups(), g0.NumNodes(),
              g0.NumEdges());
  if (engine.NumRules() < 20 || engine.NumGroups() < 5) {
    std::fprintf(stderr, "workload too small to be meaningful\n");
    return 1;
  }

  const int kReps = 3;
  DetectionResult full_old;
  double full_old_s =
      TimedMin(kReps, [&] { full_old = engine.Detect(g0, {.workers = 1}); });
  std::printf("%-28s %8.3fs  %zu violations\n", "full_detect_base",
              full_old_s, full_old.violations.size());

  std::vector<Row> rows;
  rows.push_back({"full_detect_base",
                  full_old_s,
                  {{"violations", double(full_old.violations.size())}}});

  bool verified = true;
  double speedup_smallest = 0;

  const struct {
    double frac;
    const char* tag;
  } kDeltas[] = {{0.001, "0.1pct"}, {0.01, "1pct"}, {0.1, "10pct"}};
  for (const auto& [frac, tag] : kDeltas) {
    size_t ops = std::max<size_t>(1, static_cast<size_t>(
                                         frac * double(g0.NumEdges())));
    GraphDelta delta = RandomDelta(g0, ops, /*seed=*/41 + ops);
    std::string error;
    auto view = GraphView::Apply(g0, delta, &error);
    if (!view) {
      std::fprintf(stderr, "delta apply failed: %s\n", error.c_str());
      return 1;
    }
    PropertyGraph g1 = view->Materialize();

    DetectionResult full_new;
    double full_s = TimedMin(
        kReps, [&] { full_new = engine.Detect(g1, {.workers = 1}); });
    IncrementalDiff inc;
    double inc_s = TimedMin(kReps, [&] {
      inc = *engine.DetectIncremental(g0, delta, {.workers = 1});
    });

    // Byte-identical diff check against two full runs.
    std::vector<Violation> added, removed;
    std::set_difference(full_new.violations.begin(),
                        full_new.violations.end(),
                        full_old.violations.begin(),
                        full_old.violations.end(), std::back_inserter(added));
    std::set_difference(full_old.violations.begin(),
                        full_old.violations.end(),
                        full_new.violations.begin(),
                        full_new.violations.end(),
                        std::back_inserter(removed));
    bool ok = inc.added == added && inc.removed == removed;
    verified = verified && ok;

    double speedup = inc_s > 0 ? full_s / inc_s : 0;
    if (frac == 0.001) speedup_smallest = speedup;
    std::printf("%-28s %8.3fs  +%zu -%zu (%zu affected, %lu touched "
                "matches)\n",
                (std::string("incremental_") + tag).c_str(), inc_s,
                inc.added.size(), inc.removed.size(),
                inc.stats.affected_nodes,
                static_cast<unsigned long>(inc.stats.matches_seen));
    std::printf("%-28s %8.3fs  %zu violations; speedup %.1fx, diffs %s\n",
                (std::string("full_redetect_") + tag).c_str(), full_s,
                full_new.violations.size(), speedup,
                ok ? "identical" : "DIVERGED");

    rows.push_back({std::string("incremental_") + tag,
                    inc_s,
                    {{"delta_ops", double(delta.ops.size())},
                     {"affected", double(inc.stats.affected_nodes)},
                     {"touched_matches", double(inc.stats.matches_seen)},
                     {"added", double(inc.added.size())},
                     {"removed", double(inc.removed.size())},
                     {"groups_scanned", double(inc.stats.groups_scanned)},
                     {"groups_skipped", double(inc.stats.groups_skipped)}}});
    rows.push_back({std::string("full_redetect_") + tag,
                    full_s,
                    {{"violations", double(full_new.violations.size())},
                     {"speedup_vs_incremental", speedup}}});
  }

  // Serving-step cost against overlay age: the same 8-op batch served
  // through GraphStore::AppendAndDiff on a store whose overlay holds 0% /
  // 5% / 10% of the base edges in ops. 10% is the default compaction
  // threshold, so it is the oldest overlay serving ever sees. Each rep
  // starts from a fresh store (the step consumes its state); the step
  // diff is cross-checked against two full Detect runs, and
  // touched_matches shows what the step enumerated.
  namespace fs = std::filesystem;
  const std::string step_dir =
      (fs::temp_directory_path() / "gfd_bench_incremental").string();
  const GraphDelta step_batch = RandomDelta(g0, 8, /*seed=*/23);
  const std::string step_tsv = DeltaTsv(g0, step_batch);
  const struct {
    double frac;
    const char* tag;
  } kAges[] = {{0.0, "0pct"}, {0.05, "5pct"}, {0.1, "10pct"}};
  for (const auto& [frac, tag] : kAges) {
    const size_t ops = static_cast<size_t>(frac * double(g0.NumEdges()));
    const GraphDelta overlay = WithoutDeletesOf(
        ops ? RandomDelta(g0, ops, /*seed=*/613 + ops) : GraphDelta{},
        step_batch);
    const std::string overlay_tsv = DeltaTsv(g0, overlay);
    const PropertyGraph before_g = GraphView::Apply(g0, overlay)->Materialize();
    const DetectionResult before_full = engine.Detect(before_g);

    double step_s = 1e100;
    IncrementalDiff step;
    bool step_ok = true;
    for (int r = 0; r < kReps && step_ok; ++r) {
      fs::remove_all(step_dir);
      std::string error;
      std::optional<GraphStore> store;
      if (GraphStore::Init(step_dir, g0, &error)) {
        store = GraphStore::Open(step_dir, {}, &error);
      }
      if (!store || (!overlay.ops.empty() &&
                     !store->Append(overlay_tsv, &error))) {
        std::fprintf(stderr, "step_age_%s setup failed: %s\n", tag,
                     error.c_str());
        return 1;
      }
      WallTimer t;
      auto diff = store->AppendAndDiff(engine, step_tsv, {}, nullptr, &error);
      const double s = t.Seconds();
      if (!diff) {
        std::fprintf(stderr, "step_age_%s step failed: %s\n", tag,
                     error.c_str());
        return 1;
      }
      step_s = std::min(step_s, s);
      if (r > 0) continue;
      step = std::move(*diff);
      // Cross-check the step diff against two full runs.
      const DetectionResult after_full =
          engine.Detect(store->MaterializeCurrent());
      std::vector<Violation> added, removed;
      std::set_difference(after_full.violations.begin(),
                          after_full.violations.end(),
                          before_full.violations.begin(),
                          before_full.violations.end(),
                          std::back_inserter(added));
      std::set_difference(before_full.violations.begin(),
                          before_full.violations.end(),
                          after_full.violations.begin(),
                          after_full.violations.end(),
                          std::back_inserter(removed));
      step_ok = step.added == added && step.removed == removed;
    }
    verified = verified && step_ok;
    std::printf("%-28s %8.3fs  +%zu -%zu over a %zu-op overlay, %lu "
                "touched matches, diffs %s\n",
                (std::string("step_age_") + tag).c_str(), step_s,
                step.added.size(), step.removed.size(), overlay.ops.size(),
                static_cast<unsigned long>(step.stats.matches_seen),
                step_ok ? "identical" : "DIVERGED");
    rows.push_back({std::string("step_age_") + tag,
                    step_s,
                    {{"overlay_ops", double(overlay.ops.size())},
                     {"batch_ops", double(step_batch.ops.size())},
                     {"touched_matches", double(step.stats.matches_seen)},
                     {"added", double(step.added.size())},
                     {"removed", double(step.removed.size())},
                     {"groups_scanned", double(step.stats.groups_scanned)},
                     {"groups_skipped", double(step.stats.groups_skipped)}}});
  }
  fs::remove_all(step_dir);

  rows.push_back({"summary",
                  0,
                  {{"verified", verified ? 1.0 : 0.0},
                   {"speedup_0.1pct", speedup_smallest}}});
  std::printf("incremental vs full at 0.1%% delta: %.1fx; diffs %s\n",
              speedup_smallest, verified ? "identical" : "DIVERGED");

  WriteJson(out, rows);
  std::printf("wrote %s\n", out);
  return verified ? 0 : 1;
}
