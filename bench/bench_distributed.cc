// Distributed serving smoke bench, run as a ctest entry on every CI
// build next to bench_delta_log: times the coordinator's merged-diff
// serving step (validation + routed shipping + per-fragment incremental
// detection + master-side merge) against fragment counts {1, 2, 4, 8} on
// a YAGO2-shaped graph at scale 300, and the coordinator's Open after a
// bulk stream (open_104x75_f4_x4). Records, per fragment count, the
// bytes shipped per batch through the Cluster ledger split into routed
// owned-op traffic vs border-halo maintenance, and the storage footprint
// of vertex-cut sharding: resident edges per fragment and the measured
// replication factor (sum of fragment edges / |E|), which stays a small
// constant instead of the fragment count. Every per-batch merged diff is
// verified byte-identical to single-node GraphStore AppendAndDiff over
// the same payload stream. Timings land in BENCH_distributed.json.
//
// Usage: bench_distributed [output.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "datagen/kb.h"
#include "datagen/noise.h"
#include "detect/engine.h"
#include "detect/metrics.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "pattern/canonical.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "util/hash.h"
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

// Same serving-shaped workload as bench_incremental: the largest pattern
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

  const size_t kBatches = 6;
  const size_t kOps = std::max<size_t>(4, g0.NumEdges() / 200);
  auto payloads = MakeStream(g0, kBatches, kOps, /*seed=*/17);
  std::string root =
      (fs::temp_directory_path() / "gfd_bench_distributed").string();
  fs::remove_all(root);

  std::vector<Row> rows;
  bool verified = true;

  // Single-node reference: the same stream through one GraphStore.
  std::vector<IncrementalDiff> want;
  double single_s = 0;
  {
    std::string dir = root + "/single";
    std::string error;
    if (!GraphStore::Init(dir, g0, &error)) {
      std::fprintf(stderr, "init failed: %s\n", error.c_str());
      return 1;
    }
    auto store = GraphStore::Open(dir, {}, &error);
    if (!store) {
      std::fprintf(stderr, "open failed: %s\n", error.c_str());
      return 1;
    }
    WallTimer t;
    for (const std::string& p : payloads) {
      auto diff = store->AppendAndDiff(engine, p, {}, nullptr, &error);
      if (!diff) {
        std::fprintf(stderr, "append failed: %s\n", error.c_str());
        return 1;
      }
      want.push_back(std::move(*diff));
    }
    single_s = t.Seconds();
    size_t added = 0, removed = 0;
    for (const auto& d : want) {
      added += d.added.size();
      removed += d.removed.size();
    }
    std::printf("%-24s %8.3fs  %zu batches x %zu ops, +%zu -%zu\n",
                "single_node", single_s, kBatches, kOps, added, removed);
    rows.push_back({"single_node",
                    single_s,
                    {{"batches", double(kBatches)},
                     {"batch_ops", double(kOps)},
                     {"added", double(added)},
                     {"removed", double(removed)}}});
  }

  // Distributed: merged-diff latency and shipped bytes vs. fragment count.
  for (size_t fragments : {1UL, 2UL, 4UL, 8UL}) {
    // Provision the smallest halo the workload can be served with: the
    // widest rule pattern's radius. A larger halo only inflates the
    // replication factor without changing any result.
    const uint32_t radius = std::max<uint32_t>(1, engine.MaxPatternRadius());
    std::string dir = root + "/f" + std::to_string(fragments);
    std::string error;
    if (!Coordinator::Init(dir, g0, fragments, radius, &error)) {
      std::fprintf(stderr, "init failed: %s\n", error.c_str());
      return 1;
    }
    auto coord = Coordinator::Open(dir, {}, &error);
    if (!coord) {
      std::fprintf(stderr, "open failed: %s\n", error.c_str());
      return 1;
    }
    bool ok = true;
    // Deterministic-work counters for the warn-only perf-gate class:
    // routed/maintenance op deltas come off CoordinatorStats, enumerated
    // matches off the process metrics registry.
    uint64_t matches_before = DetectMatchesEnumerated().Value();
    WallTimer t;
    for (size_t b = 0; b < payloads.size(); ++b) {
      auto diff =
          coord->AppendAndDiff(engine, payloads[b], {}, nullptr, &error);
      if (!diff) {
        std::fprintf(stderr, "append failed: %s\n", error.c_str());
        return 1;
      }
      ok = ok && diff->added == want[b].added &&
           diff->removed == want[b].removed;
    }
    double s = t.Seconds();
    verified = verified && ok;
    uint64_t matches_enumerated =
        DetectMatchesEnumerated().Value() - matches_before;
    CoordinatorStats st = coord->stats();
    double bytes_per_batch =
        static_cast<double>(st.bytes_shipped) / double(kBatches);
    double owned_per_batch =
        static_cast<double>(st.bytes_owned_shipped) / double(kBatches);
    double halo_per_batch =
        static_cast<double>(st.bytes_halo_shipped) / double(kBatches);
    uint64_t resident_total = 0, resident_max = 0;
    for (size_t f = 0; f < fragments; ++f) {
      uint64_t r = coord->resident_edges(f);
      resident_total += r;
      resident_max = std::max(resident_max, r);
    }
    PropertyGraph current = coord->MaterializeCurrent();
    double replication =
        static_cast<double>(resident_total) / double(current.NumEdges());
    std::string name = "distributed_f" + std::to_string(fragments);
    std::printf("%-24s %8.3fs  %.0f bytes/batch shipped (%.0f owned-op + "
                "%.0f border-halo), %llu messages, %llu resident edges "
                "(replication %.2f), diffs %s\n",
                name.c_str(), s, bytes_per_batch, owned_per_batch,
                halo_per_batch, static_cast<unsigned long long>(st.messages),
                static_cast<unsigned long long>(resident_total), replication,
                ok ? "identical" : "DIVERGED");
    rows.push_back({name,
                    s,
                    {{"fragments", double(fragments)},
                     {"halo_radius", double(radius)},
                     {"batches", double(kBatches)},
                     {"shipped_bytes_per_batch", bytes_per_batch},
                     {"owned_bytes_per_batch", owned_per_batch},
                     {"halo_bytes_per_batch", halo_per_batch},
                     {"resident_edges_total", double(resident_total)},
                     {"resident_edges_max", double(resident_max)},
                     {"replication_measured", replication},
                     {"messages", double(st.messages)},
                     {"ops_routed_total", double(st.ops_routed)},
                     {"ops_maintenance_total", double(st.ops_maintenance)},
                     {"matches_enumerated", double(matches_enumerated)},
                     {"verified", ok ? 1.0 : 0.0}}});
  }

  // Open after a bulk stream, in perfbench's ingest_bulk shape: 104
  // batches of 75 ops into a 4-fragment, radius-3 coordinator over the
  // graph `gfdtool gen --scale 1000 --seed 42 --noise 0.05` makes, with
  // compaction off, so Open recovers the whole stream from the journal.
  // Open writes nothing, so one directory serves every repetition; the
  // row is the fastest of 3 trials of kOpens opens.
  {
    constexpr size_t kOpenBatches = 104;
    constexpr size_t kOpenOps = 75;
    constexpr int kOpens = 4;
    auto serve_clean = MakeYago2Like({.scale = 1000, .seed = 42});
    auto serve_noisy = InjectNoise(serve_clean, {.alpha = 0.05, .seed = 43});
    const PropertyGraph& serve = serve_noisy.graph;
    const auto stream = MakeStream(serve, kOpenBatches, kOpenOps, /*seed=*/29);
    const std::string dir = root + "/open";
    CoordinatorOptions no_compaction;
    no_compaction.store.compact_min_ops = 0;
    no_compaction.store.compact_min_fraction = 0;
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
    for (int trial = 0; trial < 3; ++trial) {
      WallTimer t;
      for (int i = 0; i < kOpens; ++i) {
        auto coord = Coordinator::Open(dir, no_compaction, &error);
        ok = ok && coord && coord->last_seq() == kOpenBatches;
      }
      best = std::min(best, t.Seconds());
    }
    verified = verified && ok;
    std::printf("%-24s %8.3fs  %d opens after %zu batches x %zu ops, %s\n",
                "open_104x75_f4_x4", best, kOpens, kOpenBatches, kOpenOps,
                ok ? "recovered" : "FAILED");
    rows.push_back({"open_104x75_f4_x4",
                    best,
                    {{"opens", double(kOpens)},
                     {"batches", double(kOpenBatches)},
                     {"batch_ops", double(kOpenOps)},
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
