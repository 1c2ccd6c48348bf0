// Delta-log durability smoke bench, run as a ctest entry on every CI
// build next to bench_incremental: times the serving-side persistence
// primitives of serve/ -- append throughput (fsync'd, growing overlay),
// startup replay vs. log length (and on an overlay concentrated on the
// highest-degree nodes), and snapshot compaction cost vs. overlay size
// -- against a YAGO2-shaped graph at scale 300. Replay rows time the
// fastest of kReplayRounds rounds of enough repetitions to read >= 20 ms,
// and compaction rows the fastest of three rounds of kCompactReps, so
// they clear the perf gate's jitter floor. Each append
// serializes its batch to the delta TSV a store takes, inside the timed
// loop. Every restart is verified byte-identical: the reopened
// store's materialized graph must equal the in-process one. Timings
// land in BENCH_delta_log.json.
//
// Usage: bench_delta_log [output.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
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
  std::fprintf(f, "{\n  \"schema\": \"gfd-bench-delta-log-v1\",\n");
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

// A stateful update-stream generator over a fixed base graph: 50% edge
// inserts (label-plausible endpoints), 25% deletes of still-alive base
// edges, 25% attribute sets (some introducing brand-new values). State
// carries across batches so a later batch never deletes an edge an
// earlier one already removed.
class StreamGen {
 public:
  StreamGen(const PropertyGraph& g, uint64_t seed)
      : g_(g), rng_(seed), gone_(g.NumEdges(), false) {}

  GraphDelta NextBatch(size_t ops) {
    GraphDelta d;
    for (size_t i = 0; i < ops; ++i) {
      double roll = rng_.NextDouble();
      if (roll < 0.5) {
        EdgeId e = static_cast<EdgeId>(rng_.Below(g_.NumEdges()));
        EdgeId e2 = static_cast<EdgeId>(rng_.Below(g_.NumEdges()));
        d.InsertEdge(g_.EdgeSrc(e), g_.EdgeDst(e2), g_.EdgeLabel(e));
      } else if (roll < 0.75) {
        EdgeId e = static_cast<EdgeId>(rng_.Below(g_.NumEdges()));
        if (gone_[e]) continue;
        gone_[e] = true;
        d.DeleteEdge(g_.EdgeSrc(e), g_.EdgeDst(e), g_.EdgeLabel(e));
      } else {
        NodeId v = static_cast<NodeId>(rng_.Below(g_.NumNodes()));
        auto attrs = g_.NodeAttrs(v);
        if (attrs.empty()) continue;
        AttrId key = attrs[rng_.Below(attrs.size())].key;
        ValueId val =
            rng_.Chance(0.25)
                ? d.InternValue(g_,
                                "patched_" + std::to_string(rng_.Below(8)))
                : static_cast<ValueId>(rng_.Below(g_.values().size()));
        d.SetAttr(v, key, val);
      }
    }
    return d;
  }

 private:
  const PropertyGraph& g_;
  Rng rng_;
  std::vector<bool> gone_;
};

std::string GraphBytes(const PropertyGraph& g) {
  std::ostringstream os;
  SaveGraphTsv(g, os);
  return std::move(os).str();
}

// `batch`, expressed over `base`, as the delta TSV GraphStore::Append
// takes.
std::string DeltaBytes(const PropertyGraph& base, const GraphDelta& batch) {
  std::ostringstream os;
  SaveGraphDeltaTsv(base, batch, os);
  return std::move(os).str();
}

// Batches that insert and delete only edges at the `hubs` highest-degree
// nodes: half inserts from a hub to a random node under one of the hub's
// labels, half deletes of a still-alive hub edge (base or inserted).
// Absorbing them re-sorts the longest adjacency lists in the graph.
class HubGen {
 public:
  HubGen(const PropertyGraph& g, uint64_t seed, size_t hubs = 4)
      : g_(g), rng_(seed) {
    std::vector<NodeId> by_degree(g.NumNodes());
    for (NodeId v = 0; v < g.NumNodes(); ++v) by_degree[v] = v;
    std::partial_sort(
        by_degree.begin(), by_degree.begin() + hubs, by_degree.end(),
        [&](NodeId a, NodeId b) { return g.Degree(a) > g.Degree(b); });
    hubs_.assign(by_degree.begin(), by_degree.begin() + hubs);
    for (NodeId h : hubs_) {
      for (EdgeId e : g.OutEdges(h)) alive_.push_back(Key(e));
      for (EdgeId e : g.InEdges(h)) alive_.push_back(Key(e));
    }
  }

  GraphDelta NextBatch(size_t ops) {
    GraphDelta d;
    for (size_t i = 0; i < ops; ++i) {
      if (rng_.Chance(0.5) && !alive_.empty()) {
        std::swap(alive_[rng_.Below(alive_.size())], alive_.back());
        const auto [src, dst, label] = alive_.back();
        alive_.pop_back();
        d.DeleteEdge(src, dst, label);
        continue;
      }
      const NodeId hub = hubs_[rng_.Below(hubs_.size())];
      const auto out = g_.OutEdges(hub);
      const LabelId label = out.empty()
                                ? g_.EdgeLabel(0)
                                : g_.EdgeLabel(out[rng_.Below(out.size())]);
      const NodeId dst = static_cast<NodeId>(rng_.Below(g_.NumNodes()));
      d.InsertEdge(hub, dst, label);
      alive_.push_back({hub, dst, label});
    }
    return d;
  }

 private:
  std::tuple<NodeId, NodeId, LabelId> Key(EdgeId e) const {
    return {g_.EdgeSrc(e), g_.EdgeDst(e), g_.EdgeLabel(e)};
  }

  const PropertyGraph& g_;
  Rng rng_;
  std::vector<NodeId> hubs_;
  std::vector<std::tuple<NodeId, NodeId, LabelId>> alive_;
};

// A fresh store under the system temp dir holding `g`, with `batches`
// batches of `ops_per_batch` ops from a `Gen` appended (no compaction).
// Returns the directory.
template <typename Gen = StreamGen>
std::string BuildStore(const PropertyGraph& g, size_t batches,
                       size_t ops_per_batch, uint64_t seed) {
  std::string dir =
      (fs::temp_directory_path() / "gfd_bench_delta_log").string();
  fs::remove_all(dir);
  std::string error;
  if (!GraphStore::Init(dir, g, &error)) {
    std::fprintf(stderr, "init failed: %s\n", error.c_str());
    std::exit(1);
  }
  auto store = GraphStore::Open(dir, {}, &error);
  if (!store) {
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    std::exit(1);
  }
  // Batches are expressed over the store's own base (vocab-preserving
  // snapshots make it id-identical to `g` here, but that is the store's
  // guarantee to rely on, not the bench's).
  Gen gen(store->base(), seed);
  for (size_t b = 0; b < batches; ++b) {
    if (!store->Append(DeltaBytes(store->base(), gen.NextBatch(ops_per_batch)),
                       &error)) {
      std::fprintf(stderr, "append failed: %s\n", error.c_str());
      std::exit(1);
    }
  }
  return dir;
}

// Repetitions per replay row: one replay of these stores takes 1.5-2 ms,
// under the perf gate's 10 ms floor. The 32-batch store's, the shortest,
// repeats kShortReplayReps times so that its row reads >= 20 ms. Each
// row is the fastest of kReplayRounds rounds.
constexpr int kReps = 8;
constexpr int kShortReplayReps = 24;
constexpr int kReplayRounds = 15;
// Compactions per round of a compaction row: one takes ~2 ms, and the
// fastest of three rounds must read at least 20 ms.
constexpr int kCompactReps = 16;

// Min of `trials` timed runs of `reps` calls of `fn` each.
template <typename Fn>
double TimedMin(int trials, int reps, const Fn& fn) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    WallTimer timer;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

// The replay row `name`: `reps` opens of `dir` per round, each of which
// must land on the bytes an in-process open of the same directory holds.
Row ReplayRow(const std::string& name, const std::string& dir,
              size_t batches, int reps, bool* verified) {
  std::string error;
  std::string expect;
  {
    auto ref = GraphStore::Open(dir, {}, &error);
    expect = GraphBytes(ref->MaterializeCurrent());
  }
  double s = TimedMin(kReplayRounds, reps, [&] {
    auto store = GraphStore::Open(dir, {}, &error);
    if (!store) std::exit(1);
  });
  auto reopened = GraphStore::Open(dir, {}, &error);
  bool ok = GraphBytes(reopened->MaterializeCurrent()) == expect;
  *verified = *verified && ok;
  std::printf("%-28s %8.3fs  %d x %zu ops replayed, restart %s\n",
              name.c_str(), s, reps, reopened->overlay().ops.size(),
              ok ? "byte-identical" : "DIVERGED");
  return {name,
          s,
          {{"batches", double(batches)},
           {"reps", double(reps)},
           {"overlay_ops", double(reopened->overlay().ops.size())},
           {"verified", ok ? 1.0 : 0.0}}};
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_delta_log.json";
  auto g = Yago2Like(300);
  std::printf("base graph: |V|=%zu |E|=%zu\n", g.NumNodes(), g.NumEdges());

  std::vector<Row> rows;
  bool verified = true;

  // --- Append throughput (durable, fsync per batch, growing overlay) ----
  {
    const size_t kBatches = 128, kOps = 8;
    std::string dir = BuildStore(g, 0, 0, /*seed=*/11);
    std::string error;
    auto store = GraphStore::Open(dir, {}, &error);
    if (!store) {
      std::fprintf(stderr, "open failed: %s\n", error.c_str());
      return 1;
    }
    StreamGen gen(store->base(), /*seed=*/11);
    WallTimer t;
    for (size_t b = 0; b < kBatches; ++b) {
      if (!store->Append(DeltaBytes(store->base(), gen.NextBatch(kOps)),
                         &error)) {
        std::fprintf(stderr, "append failed: %s\n", error.c_str());
        return 1;
      }
    }
    double s = t.Seconds();
    double log_bytes = static_cast<double>(
        fs::file_size(fs::path(dir) / "deltas.log"));
    std::printf("%-28s %8.3fs  %zu batches x %zu ops, %.0f bytes logged\n",
                "append_128x8", s, kBatches, kOps, log_bytes);
    rows.push_back({"append_128x8",
                    s,
                    {{"batches", double(kBatches)},
                     {"batch_ops", double(kOps)},
                     {"batches_per_sec", s > 0 ? kBatches / s : 0},
                     {"log_bytes", log_bytes}}});
  }

  // --- Hot-overlay append: cost must stay O(batch), not O(overlay) ------
  // Appends onto a store already carrying a deep overlay (512 batches
  // x 8 ops, uncompacted). The in-place absorb keeps each append
  // proportional to the batch; re-applying the whole overlay per append
  // would make this section ~50x the fresh-store appends above.
  {
    const size_t kHot = 64, kOps = 8;
    std::string dir = BuildStore(g, 512, 8, /*seed=*/29);
    std::string error;
    auto store = GraphStore::Open(dir, {}, &error);
    if (!store) {
      std::fprintf(stderr, "open failed: %s\n", error.c_str());
      return 1;
    }
    size_t overlay_start = store->overlay().ops.size();
    // Re-synchronize with BuildStore's deterministic stream (same seed,
    // same prefix) so the generator's delete bookkeeping matches the
    // store state and later deletes target still-alive edges.
    StreamGen gen(store->base(), /*seed=*/29);
    for (size_t b = 0; b < 512; ++b) gen.NextBatch(8);
    WallTimer t;
    for (size_t b = 0; b < kHot; ++b) {
      if (!store->Append(DeltaBytes(store->base(), gen.NextBatch(kOps)),
                         &error)) {
        std::fprintf(stderr, "hot append failed: %s\n", error.c_str());
        return 1;
      }
    }
    double s = t.Seconds();
    auto reopened = GraphStore::Open(dir, {}, &error);
    bool ok = reopened &&
              GraphBytes(reopened->MaterializeCurrent()) ==
                  GraphBytes(store->MaterializeCurrent());
    verified = verified && ok;
    std::printf("%-28s %8.3fs  %zu appends onto %zu overlay op(s), "
                "restart %s\n",
                "append_hot_overlay", s, kHot, overlay_start,
                ok ? "byte-identical" : "DIVERGED");
    rows.push_back({"append_hot_overlay",
                    s,
                    {{"batches", double(kHot)},
                     {"batch_ops", double(kOps)},
                     {"overlay_ops_start", double(overlay_start)},
                     {"batches_per_sec", s > 0 ? kHot / s : 0},
                     {"verified", ok ? 1.0 : 0.0}}});
  }

  // --- Replay time vs. log length --------------------------------------
  for (size_t batches : {32UL, 128UL}) {
    const int reps = batches == 32 ? kShortReplayReps : kReps;
    std::string dir = BuildStore(g, batches, 8, /*seed=*/23);
    rows.push_back(ReplayRow("replay_" + std::to_string(batches) +
                                 "batches_x" + std::to_string(reps),
                             dir, batches, reps, &verified));
  }
  // Replay of an overlay whose 1,024 ops all insert or delete edges at
  // the four highest-degree nodes: where absorbing in place pays a sorted
  // insert into the longest adjacency lists per op.
  {
    std::string dir = BuildStore<HubGen>(g, 128, 8, /*seed=*/31);
    rows.push_back(ReplayRow("replay_hub_1024ops_x" + std::to_string(kReps),
                             dir, 128, kReps, &verified));
  }

  // --- Compaction cost vs. overlay size --------------------------------
  // Compaction consumes its overlay, so each repetition compacts its own
  // copy of the store; only the Compact calls are timed, and a round's
  // time is the sum of its kCompactReps calls.
  for (size_t batches : {32UL, 128UL}) {
    std::string dir = BuildStore(g, batches, 8, /*seed=*/37);
    std::string error;
    size_t overlay_ops = 0;
    double best = 1e100;
    bool ok = true;
    double snap_bytes = 0;
    for (int round = 0; round < 3; ++round) {
      double s = 0;
      for (int r = 0; r < kCompactReps; ++r) {
        std::string copy = dir + "_copy";
        fs::remove_all(copy);
        fs::copy(dir, copy, fs::copy_options::recursive);
        auto store = GraphStore::Open(copy, {}, &error);
        overlay_ops = store->overlay().ops.size();
        WallTimer t;
        if (!store->Compact(&error)) {
          std::fprintf(stderr, "compact failed: %s\n", error.c_str());
          return 1;
        }
        s += t.Seconds();
        // Restart after the compaction boundary must land on the same
        // bytes.
        auto reopened = GraphStore::Open(copy, {}, &error);
        ok = ok && reopened &&
             GraphBytes(reopened->MaterializeCurrent()) ==
                 GraphBytes(store->MaterializeCurrent());
        const std::string snapshot =
            "snapshot-" + std::to_string(store->last_seq()) + ".tsv";
        snap_bytes =
            static_cast<double>(fs::file_size(fs::path(copy) / snapshot));
        fs::remove_all(copy);
      }
      best = std::min(best, s);
    }
    verified = verified && ok;
    std::string name = "compact_" + std::to_string(overlay_ops) + "ops_x" +
                       std::to_string(kCompactReps);
    std::printf("%-28s %8.3fs  snapshot %.0f bytes, restart %s\n",
                name.c_str(), best, snap_bytes,
                ok ? "byte-identical" : "DIVERGED");
    rows.push_back({name,
                    best,
                    {{"overlay_ops", double(overlay_ops)},
                     {"reps", double(kCompactReps)},
                     {"snapshot_bytes", snap_bytes},
                     {"verified", ok ? 1.0 : 0.0}}});
  }

  rows.push_back({"summary", 0, {{"verified", verified ? 1.0 : 0.0}}});
  std::printf("restart determinism: %s\n",
              verified ? "byte-identical" : "DIVERGED");

  fs::remove_all(fs::temp_directory_path() / "gfd_bench_delta_log");
  WriteJson(out, rows);
  std::printf("wrote %s\n", out);
  return verified ? 0 : 1;
}
