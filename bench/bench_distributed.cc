// Distributed serving bench, run as a ctest entry on every CI build next to
// bench_delta_log. On a bulk stream in perfbench's ingest_bulk shape it times
// the single store's step (step_104x75_single) and the coordinator's at
// fragment counts {1, 2, 4, 8} (step_104x75_f*, with the residency footprint:
// the edges inside each fragment's mask and the measured replication, their sum
// over |E| -- what fragments holding their masks would store, a small constant
// rather than the fragment count, while the process stores the graph once). It
// also times the single store's step on a stream in perfbench's ingest_trickle
// shape (step_332x8_single, every diff checked against full Detect runs) and
// the coordinator's Open after the bulk stream (open_104x75_f4_x4). Every
// coordinator diff is verified byte-identical to the single store's. Timings
// land in BENCH_distributed.json.
//
// Usage: bench_distributed [output.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cover.h"
#include "datagen/kb.h"
#include "datagen/noise.h"
#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace gfd;
using namespace gfd::bench;

namespace fs = std::filesystem;

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
  std::fprintf(f, "{\n  \"schema\": \"gfd-bench-distributed-v1\",\n");
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

// A batch stream over the evolving state: inserts with label-plausible
// endpoints, deletes of live edges, attribute sets (some brand-new
// values). Serialized as the TSV every store consumes verbatim.
std::vector<std::string> MakeStream(const PropertyGraph& g0, size_t batches,
                                    size_t ops_per_batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> payloads;
  PropertyGraph current = g0;
  for (size_t b = 0; b < batches; ++b) {
    GraphDelta d;
    std::vector<bool> gone(current.NumEdges(), false);
    for (size_t i = 0; i < ops_per_batch; ++i) {
      double roll = rng.NextDouble();
      if (roll < 0.45) {
        EdgeId e = static_cast<EdgeId>(rng.Below(current.NumEdges()));
        EdgeId e2 = static_cast<EdgeId>(rng.Below(current.NumEdges()));
        d.InsertEdge(current.EdgeSrc(e), current.EdgeDst(e2),
                     current.EdgeLabel(e));
      } else if (roll < 0.7) {
        EdgeId e = static_cast<EdgeId>(rng.Below(current.NumEdges()));
        if (gone[e]) continue;
        gone[e] = true;
        d.DeleteEdge(current.EdgeSrc(e), current.EdgeDst(e),
                     current.EdgeLabel(e));
      } else {
        NodeId v = static_cast<NodeId>(rng.Below(current.NumNodes()));
        auto attrs = current.NodeAttrs(v);
        if (attrs.empty()) continue;
        AttrId key = attrs[rng.Below(attrs.size())].key;
        ValueId val;
        if (rng.Chance(0.25)) {
          val = d.InternValue(current,
                              "patched_" + std::to_string(rng.Below(8)));
        } else {
          val = static_cast<ValueId>(rng.Below(current.values().size()));
        }
        d.SetAttr(v, key, val);
      }
    }
    std::ostringstream os;
    SaveGraphDeltaTsv(current, d, os);
    payloads.push_back(std::move(os).str());
    current = GraphView::Apply(current, d)->Materialize();
  }
  return payloads;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_distributed.json";

  std::string root =
      (fs::temp_directory_path() / "gfd_bench_distributed").string();
  fs::remove_all(root);

  std::vector<Row> rows;
  bool verified = true;

  // Perfbench's ingest_bulk shape: 104 batches of 75 ops into a
  // radius-3 coordinator over the graph `gfdtool gen --scale 1000 --seed
  // 42 --noise 0.05` makes, with compaction off.
  constexpr size_t kBulkBatches = 104;
  constexpr size_t kBulkOps = 75;
  auto serve_clean = MakeYago2Like({.scale = 1000, .seed = 42});
  auto serve_noisy = InjectNoise(serve_clean, {.alpha = 0.05, .seed = 43});
  const PropertyGraph& serve = serve_noisy.graph;
  const auto stream = MakeStream(serve, kBulkBatches, kBulkOps, /*seed=*/29);
  CoordinatorOptions no_compaction;
  no_compaction.store.compact_min_ops = 0;
  no_compaction.store.compact_min_fraction = 0;

  // The step on that stream, diffed against the rules perfbench serves
  // (the cover of the rules mined on the clean graph): summed
  // AppendAndDiff seconds, the fastest of 3 trials on fresh stores. First
  // through one GraphStore, whose first trial's diffs every later trial
  // and every coordinator must reproduce; then through coordinators at
  // fragment counts {1, 2, 4, 8}, with the matches the stream's steps
  // evaluated and the residency footprint after the stream.
  {
    ViolationEngine step_engine(
        SeqCover(SeqDis(serve_clean, ScaledConfig(serve_clean)).AllGfds()));
    std::vector<IncrementalDiff> step_want;
    {
      const std::string name = "step_104x75_single";
      double best = 1e9;
      bool ok = true;
      for (int trial = 0; trial < 3; ++trial) {
        const std::string dir = root + "/" + name + "_" + std::to_string(trial);
        std::string error;
        if (!GraphStore::Init(dir, serve, &error)) {
          std::fprintf(stderr, "init failed: %s\n", error.c_str());
          return 1;
        }
        auto store = GraphStore::Open(dir, no_compaction.store, &error);
        if (!store) {
          std::fprintf(stderr, "open failed: %s\n", error.c_str());
          return 1;
        }
        double s = 0;
        for (size_t b = 0; b < stream.size(); ++b) {
          WallTimer t;
          auto diff =
              store->AppendAndDiff(step_engine, stream[b], {}, nullptr, &error);
          s += t.Seconds();
          if (!diff) {
            std::fprintf(stderr, "append failed: %s\n", error.c_str());
            return 1;
          }
          if (trial == 0) {
            step_want.push_back(std::move(*diff));
          } else {
            ok = ok && diff->added == step_want[b].added &&
                 diff->removed == step_want[b].removed;
          }
        }
        best = std::min(best, s);
      }
      verified = verified && ok;
      std::printf("%-24s %8.3fs  %zu batches x %zu ops, diffs %s\n",
                  name.c_str(), best, kBulkBatches, kBulkOps,
                  ok ? "identical" : "DIVERGED");
      rows.push_back({name,
                      best,
                      {{"batches", double(kBulkBatches)},
                       {"batch_ops", double(kBulkOps)},
                       {"verified", ok ? 1.0 : 0.0}}});
    }
    for (size_t fragments : {1UL, 2UL, 4UL, 8UL}) {
      const std::string name = "step_104x75_f" + std::to_string(fragments);
      double best = 1e9;
      uint64_t matches = 0;
      uint64_t resident_total = 0, resident_max = 0;
      size_t edges = 0;
      bool ok = true;
      for (int trial = 0; trial < 3; ++trial) {
        const std::string dir = root + "/" + name + "_" + std::to_string(trial);
        std::string error;
        if (!Coordinator::Init(dir, serve, fragments, /*halo_radius=*/3,
                               &error)) {
          std::fprintf(stderr, "init failed: %s\n", error.c_str());
          return 1;
        }
        auto coord = Coordinator::Open(dir, no_compaction, &error);
        if (!coord) {
          std::fprintf(stderr, "open failed: %s\n", error.c_str());
          return 1;
        }
        double s = 0;
        matches = 0;
        for (size_t b = 0; b < stream.size(); ++b) {
          const std::string& batch = stream[b];
          WallTimer t;
          auto diff =
              coord->AppendAndDiff(step_engine, batch, {}, nullptr, &error);
          s += t.Seconds();
          if (!diff) {
            std::fprintf(stderr, "append failed: %s\n", error.c_str());
            return 1;
          }
          ok = ok && diff->added == step_want[b].added &&
               diff->removed == step_want[b].removed;
          matches += diff->stats.matches_seen;
        }
        best = std::min(best, s);
        const FragmentResidency residency = coord->residency();
        resident_total = resident_max = 0;
        for (size_t f = 0; f < fragments; ++f) {
          const uint64_t r = ResidentEdges(coord->view(), residency[f]);
          resident_total += r;
          resident_max = std::max(resident_max, r);
        }
        edges = coord->view().NumEdges();
      }
      verified = verified && ok;
      const double replication = double(resident_total) / double(edges);
      std::printf("%-24s %8.3fs  %zu batches x %zu ops, %llu matches, "
                  "%llu resident edges (replication %.2f), diffs %s\n",
                  name.c_str(), best, kBulkBatches, kBulkOps,
                  static_cast<unsigned long long>(matches),
                  static_cast<unsigned long long>(resident_total), replication,
                  ok ? "identical" : "DIVERGED");
      rows.push_back({name,
                      best,
                      {{"fragments", double(fragments)},
                       {"halo_radius", 3.0},
                       {"batches", double(kBulkBatches)},
                       {"batch_ops", double(kBulkOps)},
                       {"matches_enumerated", double(matches)},
                       {"resident_edges_total", double(resident_total)},
                       {"resident_edges_max", double(resident_max)},
                       {"replication_measured", replication},
                       {"verified", ok ? 1.0 : 0.0}}});
    }

    // Perfbench's ingest_trickle shape: 332 batches of 8 ops through one
    // GraphStore, compaction off, with the same rules. Summed
    // AppendAndDiff seconds, the fastest of 3 trials on fresh stores, and
    // the matches each batch's step evaluates. The first trial checks
    // every diff against full Detect runs of the states before and after
    // its batch; the others must reproduce its diffs.
    constexpr size_t kTrickleBatches = 332;
    constexpr size_t kTrickleOps = 8;
    const auto trickle =
        MakeStream(serve, kTrickleBatches, kTrickleOps, /*seed=*/31);
    const std::string name = "step_332x8_single";
    std::vector<IncrementalDiff> first;
    double best = 1e9;
    uint64_t matches = 0;
    bool ok = true;
    for (int trial = 0; trial < 3; ++trial) {
      const std::string dir = root + "/" + name + "_" + std::to_string(trial);
      std::string error;
      if (!GraphStore::Init(dir, serve, &error)) {
        std::fprintf(stderr, "init failed: %s\n", error.c_str());
        return 1;
      }
      auto store = GraphStore::Open(dir, no_compaction.store, &error);
      if (!store) {
        std::fprintf(stderr, "open failed: %s\n", error.c_str());
        return 1;
      }
      const DetectOptions oracle{.workers = 4};
      std::vector<Violation> current;
      if (trial == 0) {
        current = step_engine.Detect(store->view(), oracle).violations;
      }
      double s = 0;
      matches = 0;
      for (size_t b = 0; b < trickle.size(); ++b) {
        WallTimer t;
        auto diff =
            store->AppendAndDiff(step_engine, trickle[b], {}, nullptr, &error);
        s += t.Seconds();
        if (!diff) {
          std::fprintf(stderr, "append failed: %s\n", error.c_str());
          return 1;
        }
        matches += diff->stats.matches_seen;
        if (trial > 0) {
          ok = ok && diff->added == first[b].added &&
               diff->removed == first[b].removed;
          continue;
        }
        std::vector<Violation> next =
            step_engine.Detect(store->view(), oracle).violations;
        std::vector<Violation> added, removed;
        std::set_difference(next.begin(), next.end(), current.begin(),
                            current.end(), std::back_inserter(added));
        std::set_difference(current.begin(), current.end(), next.begin(),
                            next.end(), std::back_inserter(removed));
        ok = ok && diff->added == added && diff->removed == removed;
        current = std::move(next);
        first.push_back(std::move(*diff));
      }
      best = std::min(best, s);
    }
    verified = verified && ok;
    const double per_batch = double(matches) / double(kTrickleBatches);
    std::printf("%-24s %8.3fs  %zu batches x %zu ops, %.0f matches per "
                "batch, diffs %s\n",
                name.c_str(), best, kTrickleBatches, kTrickleOps, per_batch,
                ok ? "identical to full detect" : "DIVERGED");
    rows.push_back({name,
                    best,
                    {{"batches", double(kTrickleBatches)},
                     {"batch_ops", double(kTrickleOps)},
                     {"matches_per_batch", per_batch},
                     {"verified", ok ? 1.0 : 0.0}}});
  }

  // Open after the bulk stream (Append only), so Open recovers the
  // whole stream from the log. Open writes nothing, so one directory
  // serves every repetition; the row is the fastest of kOpenRounds
  // rounds of kOpens opens (~35 ms a round).
  {
    constexpr int kOpens = 4;
    constexpr int kOpenRounds = 15;
    const std::string dir = root + "/open";
    std::string error;
    if (!Coordinator::Init(dir, serve, /*fragments=*/4, /*halo_radius=*/3,
                           &error)) {
      std::fprintf(stderr, "init failed: %s\n", error.c_str());
      return 1;
    }
    {
      auto coord = Coordinator::Open(dir, no_compaction, &error);
      for (size_t b = 0; coord && b < stream.size(); ++b) {
        if (!coord->Append(stream[b], &error)) coord.reset();
      }
      if (!coord) {
        std::fprintf(stderr, "stream failed: %s\n", error.c_str());
        return 1;
      }
    }
    double best = 1e9;
    bool ok = true;
    for (int round = 0; round < kOpenRounds; ++round) {
      WallTimer t;
      for (int i = 0; i < kOpens; ++i) {
        auto coord = Coordinator::Open(dir, no_compaction, &error);
        ok = ok && coord && coord->last_seq() == kBulkBatches;
      }
      best = std::min(best, t.Seconds());
    }
    verified = verified && ok;
    std::printf("%-24s %8.3fs  %d opens after %zu batches x %zu ops, %s\n",
                "open_104x75_f4_x4", best, kOpens, kBulkBatches, kBulkOps,
                ok ? "recovered" : "FAILED");
    rows.push_back({"open_104x75_f4_x4",
                    best,
                    {{"opens", double(kOpens)},
                     {"batches", double(kBulkBatches)},
                     {"batch_ops", double(kBulkOps)},
                     {"verified", ok ? 1.0 : 0.0}}});
  }

  rows.push_back({"summary", 0, {{"verified", verified ? 1.0 : 0.0}}});
  std::printf("merged diffs vs single-node: %s\n",
              verified ? "identical" : "DIVERGED");

  fs::remove_all(root);
  WriteJson(out, rows);
  std::printf("wrote %s\n", out);
  return verified ? 0 : 1;
}
