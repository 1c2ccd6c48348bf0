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
// whether a serving step's work tracks the batch or the overlay. The
// step_stream_* rows serve one stream of 75-op batches through both
// backends with the full rule workload. The serve_scale_* rows serve
// 8-op batches with no rules on YAGO2-like graphs of ~2.2k / 8.7k / 34k
// nodes through both backends; the run fails when, on either backend,
// the largest p50 exceeds 2x the smallest, i.e. when per-batch work
// starts growing with the graph.
//
// Usage: bench_incremental [output.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <set>
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
#include "serve/coordinator.h"
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

// `batches` TSV batches of `ops` ops each, cut in order from one
// RandomDelta over g, so every batch applies on top of the ones before
// it. Empty when the delta came out too short (RandomDelta skips draws).
std::vector<std::string> BatchStream(const PropertyGraph& g, size_t batches,
                                     size_t ops, uint64_t seed) {
  const GraphDelta all = RandomDelta(g, 2 * batches * ops, seed);
  if (all.ops.size() < batches * ops) return {};
  std::vector<std::string> out;
  for (size_t b = 0; b < batches; ++b) {
    GraphDelta chunk;
    chunk.extra_labels = all.extra_labels;
    chunk.extra_attrs = all.extra_attrs;
    chunk.extra_values = all.extra_values;
    chunk.ops.assign(all.ops.begin() + b * ops,
                     all.ops.begin() + (b + 1) * ops);
    out.push_back(DeltaTsv(g, chunk));
  }
  return out;
}

double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * double(v.size() - 1))];
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
    std::printf("%-28s %8.3fs  +%zu -%zu (%zu+%zu units, %lu touched "
                "matches)\n",
                (std::string("incremental_") + tag).c_str(), inc_s,
                inc.added.size(), inc.removed.size(), inc.stats.write_units,
                inc.stats.edge_units,
                static_cast<unsigned long>(inc.stats.matches_seen));
    std::printf("%-28s %8.3fs  %zu violations; speedup %.1fx, diffs %s\n",
                (std::string("full_redetect_") + tag).c_str(), full_s,
                full_new.violations.size(), speedup,
                ok ? "identical" : "DIVERGED");

    rows.push_back({std::string("incremental_") + tag,
                    inc_s,
                    {{"delta_ops", double(delta.ops.size())},
                     {"write_units", double(inc.stats.write_units)},
                     {"edge_units", double(inc.stats.edge_units)},
                     {"touched_matches", double(inc.stats.matches_seen)},
                     {"added", double(inc.added.size())},
                     {"removed", double(inc.removed.size())},
                     {"groups_scanned", double(inc.stats.groups_scanned)}}});
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
                     {"groups_scanned", double(step.stats.groups_scanned)}}});
  }
  fs::remove_all(step_dir);

  // Serving-step cost of a bulk stream: one RandomDelta stream of 75-op
  // batches served through AppendAndDiff on a single store and on a
  // 4-fragment coordinator (radius 3), with this bench's rules. A row
  // reports the summed AppendAndDiff time of the stream, min over kReps
  // replays from fresh stores, plus the detect work per batch. The
  // violation set seeded by a full Detect and rolled forward by every
  // diff is cross-checked against a full Detect of the final graph.
  constexpr size_t kStreamBatches = 24, kStreamOps = 75;
  const std::vector<std::string> stream =
      BatchStream(g0, kStreamBatches, kStreamOps, /*seed=*/331);
  if (stream.empty()) {
    std::fprintf(stderr, "step_stream: delta stream came out short\n");
    return 1;
  }
  for (const char* backend : {"single", "coord"}) {
    const std::string name = std::string("step_stream_") + backend;
    double stream_s = 1e100;
    IncrementalStats work;
    bool stream_ok = true;
    for (int r = 0; r < kReps && stream_ok; ++r) {
      fs::remove_all(step_dir);
      std::string error;
      std::optional<GraphStore> single;
      std::optional<Coordinator> coord;
      ServingStore* store = nullptr;
      if (backend == std::string("single")) {
        if (GraphStore::Init(step_dir, g0, &error)) {
          single = GraphStore::Open(step_dir, {}, &error);
        }
        if (single) store = &*single;
      } else {
        if (Coordinator::Init(step_dir, g0, /*fragments=*/4,
                              /*halo_radius=*/3, &error)) {
          coord = Coordinator::Open(step_dir, {}, &error);
        }
        if (coord) store = &*coord;
      }
      if (!store) {
        std::fprintf(stderr, "%s setup failed: %s\n", name.c_str(),
                     error.c_str());
        return 1;
      }
      std::set<Violation> current(full_old.violations.begin(),
                                  full_old.violations.end());
      IncrementalStats totals;
      double total_s = 0;
      for (const std::string& batch : stream) {
        WallTimer t;
        auto diff = store->AppendAndDiff(engine, batch, {}, nullptr, &error);
        total_s += t.Seconds();
        if (!diff) {
          std::fprintf(stderr, "%s batch failed: %s\n", name.c_str(),
                       error.c_str());
          return 1;
        }
        for (const Violation& v : diff->removed) current.erase(v);
        current.insert(diff->added.begin(), diff->added.end());
        totals.matches_seen += diff->stats.matches_seen;
        totals.literal_evals += diff->stats.literal_evals;
        totals.roots_scanned += diff->stats.roots_scanned;
      }
      stream_s = std::min(stream_s, total_s);
      if (r > 0) continue;
      work = totals;
      const DetectionResult final_full =
          engine.Detect(store->MaterializeCurrent());
      stream_ok = std::equal(current.begin(), current.end(),
                             final_full.violations.begin(),
                             final_full.violations.end());
    }
    verified = verified && stream_ok;
    const double n = double(stream.size());
    std::printf("%-28s %8.3fs  %zu %zu-op batches, %.0f matches / %.0f "
                "literal evals per batch, final count %s\n",
                name.c_str(), stream_s, stream.size(), kStreamOps,
                double(work.matches_seen) / n, double(work.literal_evals) / n,
                stream_ok ? "identical" : "DIVERGED");
    rows.push_back({name,
                    stream_s,
                    {{"batches", n},
                     {"batch_ops", double(kStreamOps)},
                     {"matches_per_batch", double(work.matches_seen) / n},
                     {"literal_evals_per_batch",
                      double(work.literal_evals) / n},
                     {"roots_per_batch", double(work.roots_scanned) / n}}});
  }
  fs::remove_all(step_dir);

  // Serving-step cost against graph size: 8-op batches with an empty rule
  // set, so nothing is detected and what remains is the per-batch work
  // around the diff (parse, validate, log append, absorb, payload
  // render). Each size gets 10 warm-up and 40 timed AppendAndDiff calls,
  // interleaved across sizes in an order that rotates each round, so
  // disk and host noise hit all of them alike; a row reports the p50.
  // Per backend -- one store, and a 4-fragment radius-3 coordinator --
  // the largest graph's p50 must stay within 2x of the smallest's.
  const ViolationEngine no_rules(std::vector<Gfd>{});
  constexpr size_t kWarm = 10, kTimed = 40, kBatchOps = 8;
  const struct {
    size_t scale;
    const char* tag;
  } kSizes[] = {{1000, "2k"}, {4000, "9k"}, {16000, "34k"}};
  struct ScaleRun {
    std::string tag;
    PropertyGraph g;
    std::vector<std::string> stream;
    std::optional<GraphStore> single;
    std::optional<Coordinator> coord;
    std::vector<double> single_s, coord_s;
  };
  std::vector<ScaleRun> runs;
  for (const auto& [scale, tag] : kSizes) {
    ScaleRun run;
    run.tag = tag;
    run.g = Yago2Like(scale);
    run.stream = BatchStream(run.g, kWarm + kTimed, kBatchOps,
                             /*seed=*/97 + scale);
    const std::string base =
        (fs::temp_directory_path() / ("gfd_bench_scale_" + run.tag))
            .string();
    fs::remove_all(base);
    std::string error;
    if (GraphStore::Init(base + "/single", run.g, &error)) {
      run.single = GraphStore::Open(base + "/single", {}, &error);
    }
    if (run.single &&
        Coordinator::Init(base + "/coord", run.g, /*fragments=*/4,
                          /*halo_radius=*/3, &error)) {
      run.coord = Coordinator::Open(base + "/coord", {}, &error);
    }
    if (run.stream.empty() || !run.single || !run.coord) {
      std::fprintf(stderr, "serve_scale_%s setup failed: %s\n", tag,
                   error.c_str());
      return 1;
    }
    runs.push_back(std::move(run));
  }
  for (size_t b = 0; b < kWarm + kTimed; ++b) {
    // Each round starts at the next size: the first call of a round
    // follows the previous round's largest coordinator step, and no size
    // takes that place every round.
    for (size_t i = 0; i < runs.size(); ++i) {
      ScaleRun& run = runs[(b + i) % runs.size()];
      std::string error;
      WallTimer ts;
      bool ok = run.single->AppendAndDiff(no_rules, run.stream[b], {},
                                          nullptr, &error)
                    .has_value();
      const double single_s = ts.Seconds();
      WallTimer tc;
      ok = ok && run.coord->AppendAndDiff(no_rules, run.stream[b], {},
                                          nullptr, &error)
                     .has_value();
      const double coord_s = tc.Seconds();
      if (!ok) {
        std::fprintf(stderr, "serve_scale_%s batch %zu failed: %s\n",
                     run.tag.c_str(), b, error.c_str());
        return 1;
      }
      if (b < kWarm) continue;
      run.single_s.push_back(single_s);
      run.coord_s.push_back(coord_s);
    }
  }
  // Per backend, the smallest and the largest p50 over the sizes.
  double p50_min[2] = {1e100, 1e100}, p50_max[2] = {0, 0};
  for (ScaleRun& run : runs) {
    const std::pair<const char*, const std::vector<double>*> series[] = {
        {"single", &run.single_s}, {"coord", &run.coord_s}};
    for (size_t k = 0; k < 2; ++k) {
      const auto& [backend, samples] = series[k];
      const std::string name =
          std::string("serve_scale_") + backend + "_" + run.tag;
      const double s50 = Percentile(*samples, 0.5);
      p50_min[k] = std::min(p50_min[k], s50);
      p50_max[k] = std::max(p50_max[k], s50);
      const double s90 = Percentile(*samples, 0.9);
      std::printf("%-28s %8.5fs  p90 %.5fs over %zu %zu-op batches on "
                  "|V|=%zu |E|=%zu\n",
                  name.c_str(), s50, s90, samples->size(), kBatchOps,
                  run.g.NumNodes(), run.g.NumEdges());
      rows.push_back({name,
                      s50,
                      {{"p90_seconds", s90},
                       {"batches", double(samples->size())},
                       {"batch_ops", double(kBatchOps)},
                       {"nodes", double(run.g.NumNodes())},
                       {"edges", double(run.g.NumEdges())}}});
    }
    fs::remove_all(
        (fs::temp_directory_path() / ("gfd_bench_scale_" + run.tag)).string());
  }
  double scale_ratio[2];
  bool scale_ok = true;
  for (size_t k = 0; k < 2; ++k) {
    scale_ratio[k] = p50_min[k] > 0 ? p50_max[k] / p50_min[k] : 0;
    const bool ok = scale_ratio[k] <= 2.0;
    std::printf("%s p50, largest / smallest graph: %.2fx (gate <= 2x) %s\n",
                k == 0 ? "single-store" : "coordinator", scale_ratio[k],
                ok ? "ok" : "EXCEEDED");
    scale_ok = scale_ok && ok;
  }

  rows.push_back({"summary",
                  0,
                  {{"verified", verified ? 1.0 : 0.0},
                   {"speedup_0.1pct", speedup_smallest},
                   {"serve_scale_single_ratio", scale_ratio[0]},
                   {"serve_scale_coord_ratio", scale_ratio[1]}}});
  std::printf("incremental vs full at 0.1%% delta: %.1fx; diffs %s\n",
              speedup_smallest, verified ? "identical" : "DIVERGED");

  WriteJson(out, rows);
  std::printf("wrote %s\n", out);
  return verified && scale_ok ? 0 : 1;
}
