// gfdtool: the production-facing command line over the library -- mine
// rules from a TSV graph, persist them, and serve them back as
// data-quality checks through the batched violation engine.
//
//   gfdtool gen <out.tsv> [--kind yago2|dbpedia|imdb] [--scale N]
//           [--seed S] [--noise ALPHA]
//       Generate a knowledge-graph-shaped TSV (optionally corrupted).
//   gfdtool discover <graph.tsv> [-k K] [-s SIGMA] [-w WORKERS]
//           [-o rules.gfd]
//       Mine a cover of minimum sigma-frequent GFDs and save/print it.
//   gfdtool detect <graph.tsv>|--log <dir> <rules.gfd> [-w WORKERS]
//           [--max-per-gfd N] [--max-total N]
//           [--delta <delta.tsv>] [--compact-ops N]
//       Batched violation detection: group rules by pattern, one match
//       plan per group, structured violation records. Exit 3 when
//       violations were found. With --delta, runs *incrementally*: the
//       delta (E+/E-/A records) is applied as an overlay view and only
//       matches near the updated vertices are re-evaluated, reporting
//       the violations the update added (+) and removed (-). Exit codes
//       distinguish the post-update states: 0 the updated graph is
//       violation-free, 3 the update added violations, 4 the update
//       added none but pre-existing violations remain. With --log the
//       graph comes from a durable store (replayed on open) and the
//       --delta batch is appended to its log before detection.
//   gfdtool log init <dir> <graph.tsv>
//       Create a durable graph store: snapshot + empty delta log.
//   gfdtool log append <dir> <delta.tsv> [--compact-ops N]
//       Durably append one update batch and apply it (auto-compacts per
//       policy; --compact-ops overrides the ops threshold).
//   gfdtool log replay <dir> [-o graph.tsv]
//       Replay the log onto the snapshot, report recovery stats, and
//       optionally dump the materialized current graph.
//   gfdtool log compact <dir>
//       Roll the snapshot forward over the overlay and re-anchor the log.
//   gfdtool serve init <dir> <graph.tsv> --fragments N [--radius R]
//       Create a distributed serving directory: a coordinator over N
//       vertex-cut fragments (each holding only its owned edge partition
//       plus a radius-R border halo, in memory) with persisted node
//       ownership, a global snapshot and a routing journal.
//   gfdtool serve append <dir> <rules.gfd> <delta.tsv> [-w W]
//           [--compact-ops N]
//       The distributed serving step: the coordinator assigns the batch
//       the next global sequence number, routes each op to exactly the
//       fragments whose resident set covers it (plus halo-maintenance
//       traffic), runs owned-scope incremental detection on every
//       fragment, and merges the per-fragment diffs -- printed as +/-
//       records with the same 0/3/4 verdict exit codes as detect
//       --delta, read off the running violation counter. Open rebuilds
//       every fragment from the global snapshot and the routing journal,
//       whatever state a kill left.
//   gfdtool serve rebalance <dir> <node> <fragment> [--compact-ops N]
//       Move ownership of one node to another fragment online: the new
//       owner table is persisted, then halo maintenance ships the newly
//       resident edges under one sequence number.
//   gfdtool serve status <dir>
//       Sequence/anchor/overlay report plus per-fragment ownership and
//       footprint.
//   gfdtool metrics <dir> [-o FILE]
//       Open the store or coordinator at <dir> (replaying its logs, so
//       recovery metrics are populated) and render the full metrics
//       registry in Prometheus text format to stdout or FILE.
//   gfdtool validate <graph.tsv> <rules.gfd>
//       Boolean check G |= Sigma, rule by rule. Exit 3 on violation.
//   gfdtool cover <graph.tsv> <rules.gfd> [-w WORKERS] [-o cover.gfd]
//       Reduce a rule file to a minimal equivalent cover.
//
// The serving verbs (`detect --log`, `serve append`) additionally accept
//   --metrics-out FILE   atomically write the Prometheus exposition of
//                        everything this invocation did on exit
//   --trace FILE         append one JSON-lines trace event per serving
//                        stage (validate/route/ship/detect/merge/compact)
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "datagen/kb.h"
#include "datagen/noise.h"
#include "net/feed_service.h"
#include "net/http_server.h"
#include "serve/changefeed.h"
#include "detect/engine.h"
#include "detect/metrics.h"
#include "gfd/serialize.h"
#include "gfd/validation.h"
#include "graph/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/fragment.h"
#include "parallel/parcover.h"
#include "parallel/pardis.h"
#include "serve/coordinator.h"
#include "serve/durable_io.h"
#include "serve/graph_store.h"
#include "serve/metrics.h"
#include "serve/serving_store.h"
#include "util/timer.h"

using namespace gfd;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gfdtool gen <out.tsv> [--kind yago2|dbpedia|imdb] "
      "[--scale N] [--seed S] [--noise ALPHA]\n"
      "       gfdtool discover <graph.tsv> [-k K] [-s SIGMA] [-w WORKERS] "
      "[-o rules.gfd]\n"
      "       gfdtool detect <graph.tsv>|--log <dir> <rules.gfd> "
      "[-w WORKERS] [--max-per-gfd N] [--max-total N] "
      "[--delta FILE] [--compact-ops N] [--metrics-out FILE] "
      "[--trace FILE]\n"
      "       gfdtool log init <dir> <graph.tsv>\n"
      "       gfdtool log append <dir> <delta.tsv> [--compact-ops N]\n"
      "       gfdtool log replay <dir> [-o graph.tsv]\n"
      "       gfdtool log compact <dir>\n"
      "       gfdtool serve init <dir> <graph.tsv> --fragments N "
      "[--radius R]\n"
      "       gfdtool serve append <dir> <rules.gfd> <delta.tsv> "
      "[-w WORKERS] [--compact-ops N] [--metrics-out FILE] "
      "[--trace FILE]\n"
      "       gfdtool serve rebalance <dir> <node> <fragment> "
      "[--compact-ops N]\n"
      "       gfdtool serve status <dir>\n"
      "       gfdtool serve run <dir> <rules.gfd> [--port P] "
      "[--bind ADDR] [-w WORKERS] [--http-workers N] [--queue-cap N] "
      "[--heartbeat-ms MS] [--ingest-rps R] [--ingest-burst B] "
      "[--compact-ops N] [--metrics-out FILE] [--trace FILE]\n"
      "       gfdtool metrics <dir> [-o FILE]\n"
      "       gfdtool validate <graph.tsv> <rules.gfd>\n"
      "       gfdtool cover <graph.tsv> <rules.gfd> [-w WORKERS] "
      "[-o cover.gfd]\n"
      "       gfdtool help [verb]       (or: gfdtool <verb> --help)\n");
  return 2;
}

// Per-verb help: one entry per dispatch-table verb, printed by
// `gfdtool help <verb>` / `gfdtool <verb> --help` and mirrored verbatim
// in docs/CLI.md (CI greps that every verb here appears there).
struct VerbHelp {
  const char* verb;
  const char* text;
};

constexpr VerbHelp kVerbHelp[] = {
    {"gen",
     "gfdtool gen <out.tsv> [--kind yago2|dbpedia|imdb] [--scale N]\n"
     "        [--seed S] [--noise ALPHA]\n"
     "\n"
     "Generate a knowledge-graph-shaped TSV graph.\n"
     "  --kind    schema family to imitate (default yago2)\n"
     "  --scale   size multiplier (default 1)\n"
     "  --seed    RNG seed (default 42); same seed -> same graph\n"
     "  --noise   corrupt attribute values with probability ALPHA,\n"
     "            planting detectable violations (default 0: clean)\n"},
    {"discover",
     "gfdtool discover <graph.tsv> [-k K] [-s SIGMA] [-w WORKERS]\n"
     "        [-o rules.gfd]\n"
     "\n"
     "Mine a cover of minimal sigma-frequent GFDs from the graph.\n"
     "  -k   max pattern size in edges (default 2)\n"
     "  -s   support threshold sigma (default 10)\n"
     "  -w   worker threads (default 1)\n"
     "  -o   write rules to FILE instead of stdout\n"},
    {"detect",
     "gfdtool detect <graph.tsv>|--log <dir> <rules.gfd> [-w WORKERS]\n"
     "        [--max-per-gfd N] [--max-total N]\n"
     "        [--delta FILE] [--compact-ops N] [--metrics-out FILE]\n"
     "        [--trace FILE]\n"
     "\n"
     "Batched violation detection: rules are grouped by pattern\n"
     "isomorphism and each group shares one match plan.\n"
     "  --log <dir>     check the durable store at <dir> (replayed on\n"
     "                  open) instead of a TSV file\n"
     "  --delta FILE    incremental mode: apply the TSV delta batch and\n"
     "                  report only the violations it added (+) and\n"
     "                  removed (-); with --log the batch is durably\n"
     "                  appended first\n"
     "  --max-per-gfd/--max-total   violation budgets (0 = unlimited)\n"
     "  --compact-ops N             store compaction threshold override\n"
     "  -w WORKERS      detection threads\n"
     "\n"
     "Exit codes: 0 clean, 3 violations found (or added by the delta),\n"
     "4 the delta added none but pre-existing violations remain.\n"},
    {"log",
     "gfdtool log init <dir> <graph.tsv>\n"
     "gfdtool log append <dir> <delta.tsv> [--compact-ops N]\n"
     "gfdtool log replay <dir> [-o graph.tsv]\n"
     "gfdtool log compact <dir>\n"
     "\n"
     "Single-node durable graph store: snapshot + sequenced delta log\n"
     "(see docs/WIRE.md for the on-disk formats).\n"
     "  init      create the store from a TSV graph\n"
     "  append    durably append one TSV delta batch and apply it\n"
     "            (auto-compacts per policy)\n"
     "  replay    recover the store, report recovery stats, optionally\n"
     "            dump the materialized graph with -o\n"
     "  compact   roll the snapshot over the overlay, re-anchor the log\n"},
    {"serve",
     "gfdtool serve init <dir> <graph.tsv> --fragments N [--radius R]\n"
     "gfdtool serve append <dir> <rules.gfd> <delta.tsv> [-w W]\n"
     "        [--compact-ops N] [--metrics-out FILE] [--trace FILE]\n"
     "gfdtool serve rebalance <dir> <node> <fragment> [--compact-ops N]\n"
     "gfdtool serve status <dir>\n"
     "gfdtool serve run <dir> <rules.gfd> [--port P] [--bind ADDR]\n"
     "        [-w WORKERS] [--http-workers N] [--queue-cap N]\n"
     "        [--heartbeat-ms MS] [--ingest-rps R] [--ingest-burst B]\n"
     "        [--compact-ops N] [--metrics-out FILE] [--trace FILE]\n"
     "\n"
     "Serving verbs. init/append/rebalance/status drive a distributed\n"
     "vertex-cut coordinator; run serves EITHER backend (a `log init`\n"
     "store or a `serve init` coordinator, sniffed from the directory)\n"
     "over HTTP as one long-lived process:\n"
     "  POST /ingest    one TSV delta batch -> seq + violation diff\n"
     "                  summary (422 on invalid input, 429 when rate\n"
     "                  limited)\n"
     "  GET  /feed      SSE stream of per-batch violation diffs;\n"
     "                  ?cursor=SEQ replays missed batches from the\n"
     "                  durable feed log; ?rule= ?label= ?pivot= filter;\n"
     "                  ?max_events=N closes after N events\n"
     "  GET  /metrics   live Prometheus text\n"
     "  GET  /status    JSON summary (seq, backend, counters)\n"
     "status prints `coordinator: seq S anchor A, N overlay op(s)`, one\n"
     "`fragment F: N owned node(s), E resident edge(s)` line per\n"
     "fragment, then the halo radius and replication factor. rebalance\n"
     "persists <node>'s (numeric id) new owner, then ships the halo\n"
     "maintenance the move implies under one sequence number.\n"
     "Flags of run:\n"
     "  --port P            listen port (default 8080; 0 = ephemeral,\n"
     "                      the chosen port is printed)\n"
     "  --bind ADDR         bind address (default 127.0.0.1)\n"
     "  -w WORKERS          detection threads per batch (default 1)\n"
     "  --http-workers N    connection handler threads (default 8)\n"
     "  --queue-cap N       per-subscriber event queue bound; a slow\n"
     "                      consumer overflowing it is disconnected\n"
     "                      (default 256)\n"
     "  --heartbeat-ms MS   SSE keepalive period (default 5000)\n"
     "  --ingest-rps R      per-client ingest rate limit (default 0:\n"
     "                      unlimited), --ingest-burst B tokens burst\n"
     "Shutdown: SIGINT/SIGTERM close subscriber streams and stop\n"
     "accepting, then exit 0; durable state needs no cleanup (kill -9\n"
     "recovers on the next open). See docs/WIRE.md for the wire format.\n"},
    {"metrics",
     "gfdtool metrics <dir> [-o FILE]\n"
     "\n"
     "Open the store or coordinator at <dir> (replaying its logs, so\n"
     "recovery metrics are populated) and render the full metrics\n"
     "registry in Prometheus text format to stdout, or atomically to\n"
     "FILE with -o.\n"},
    {"validate",
     "gfdtool validate <graph.tsv> <rules.gfd>\n"
     "\n"
     "Boolean check G |= Sigma, rule by rule; prints each violated\n"
     "rule. Exit 0 when all hold, 3 otherwise.\n"},
    {"cover",
     "gfdtool cover <graph.tsv> <rules.gfd> [-w WORKERS] [-o cover.gfd]\n"
     "\n"
     "Reduce a rule file to a minimal equivalent cover by pairwise\n"
     "implication testing. -o writes the cover to FILE (default:\n"
     "stdout).\n"},
    {"help",
     "gfdtool help [verb]\n"
     "\n"
     "Print the per-verb reference (also: gfdtool <verb> --help). The\n"
     "same text lives in docs/CLI.md.\n"},
};

int HelpVerb(const char* verb) {
  for (const VerbHelp& h : kVerbHelp) {
    if (!std::strcmp(h.verb, verb)) {
      std::fputs(h.text, stdout);
      return 0;
    }
  }
  std::fprintf(stderr, "no such verb '%s'\n", verb);
  return Usage();
}

int HelpAll() {
  for (const VerbHelp& h : kVerbHelp) {
    std::fputs(h.text, stdout);
    std::fputs("\n", stdout);
  }
  return 0;
}

// Exit codes of `detect` (documented in the README): 0 clean, 3 the run /
// the update found or added violations, 4 an update added none but
// pre-existing violations remain.
constexpr int kExitViolations = 3;
constexpr int kExitPreexistingOnly = 4;

int VerdictExit(DeltaVerdict v) {
  switch (v) {
    case DeltaVerdict::kClean:
      return 0;
    case DeltaVerdict::kAddedViolations:
      return kExitViolations;
    case DeltaVerdict::kPreexistingOnly:
      return kExitPreexistingOnly;
  }
  return 1;
}

const char* VerdictName(DeltaVerdict v) {
  switch (v) {
    case DeltaVerdict::kClean:
      return "clean";
    case DeltaVerdict::kAddedViolations:
      return "added-violations";
    case DeltaVerdict::kPreexistingOnly:
      return "pre-existing-only";
  }
  return "?";
}

// Where `serve run` found the running violation count (its banner).
const char* CountSourceName(net::CountSource s) {
  switch (s) {
    case net::CountSource::kMeta:
      return "persisted";
    case net::CountSource::kFeed:
      return "from the feed";
    case net::CountSource::kScan:
      return "seeded by full scan";
  }
  return "?";
}

std::optional<std::string> ReadFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// Loader errors carry line numbers as "line N: msg"; render them in the
// editor-clickable "path:N: msg" form.
std::string FileLineError(const char* path, const std::string& error) {
  std::string_view e = error;
  if (e.starts_with("line ")) {
    size_t colon = e.find(": ");
    if (colon != std::string_view::npos) {
      return std::string(path) + ":" + std::string(e.substr(5, colon - 5)) +
             ": " + std::string(e.substr(colon + 2));
    }
  }
  return std::string(path) + ": " + error;
}

std::optional<PropertyGraph> LoadGraph(const char* path) {
  std::string error;
  auto g = LoadGraphTsvFile(path, &error);
  if (!g) {
    std::fprintf(stderr, "error loading %s\n",
                 FileLineError(path, error).c_str());
  }
  return g;
}

std::optional<std::vector<Gfd>> LoadRules(const char* path,
                                          const PropertyGraph& g) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  // Lenient: serving tolerates vocabulary drift between the mining and
  // the checked graph (a TSV round trip only keeps in-use vocabulary).
  size_t skipped = 0;
  auto rules = LoadGfdsLenient(in, g, &skipped);
  if (skipped) {
    std::fprintf(stderr,
                 "%s: skipped %zu rule(s) referencing vocabulary this "
                 "graph does not intern\n",
                 path, skipped);
  }
  if (rules.empty()) {
    std::fprintf(stderr, "%s: no loadable rules\n", path);
    return std::nullopt;
  }
  return rules;
}

// Writes `gfds` to `path`, or stdout when path is null.
void EmitRules(std::span<const Gfd> gfds, const PropertyGraph& g,
               const char* path) {
  if (path) {
    std::ofstream out(path);
    SaveGfds(gfds, g, out);
    std::fprintf(stderr, "wrote %zu rules to %s\n", gfds.size(), path);
  } else {
    std::ostringstream os;
    SaveGfds(gfds, g, os);
    std::fputs(os.str().c_str(), stdout);
  }
}

// Shared flag scanning: returns the value after `flag` or null.
const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], flag)) return argv[i + 1];
  }
  return nullptr;
}

// Count-valued flag ("-w 4", "--fragments 3"). Rejects "-w -1" / "-w x"
// instead of letting a negative wrap to a 2^64-sized thread pool.
// Returns false (after complaining) on a malformed value; `min` is 0 for
// budget flags where 0 means "unlimited".
bool CountFlag(int argc, char** argv, const char* flag, size_t* out,
               long long min = 1) {
  const char* v = FlagValue(argc, argv, flag);
  if (!v) return true;
  char* end = nullptr;
  long long n = std::strtoll(v, &end, 10);
  if (!end || *end != '\0' || n < min || n > 1 << 30) {
    std::fprintf(stderr, "%s expects a count >= %lld, got '%s'\n", flag, min,
                 v);
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

// Wires the optional --trace / --metrics-out flags of the serving
// verbs. Construct it before the store opens so replay and recovery
// spans land in the trace; on scope exit (after the whole invocation)
// it renders the default registry atomically to the metrics file.
struct ObsSetup {
  std::unique_ptr<obs::TraceLog> trace;
  const char* metrics_out = nullptr;
  bool ok = true;

  ObsSetup(int argc, char** argv) {
    metrics_out = FlagValue(argc, argv, "--metrics-out");
    if (const char* path = FlagValue(argc, argv, "--trace")) {
      std::string error;
      trace = obs::TraceLog::Open(path, &error);
      if (!trace) {
        std::fprintf(stderr, "cannot open trace file %s: %s\n", path,
                     error.c_str());
        ok = false;
        return;
      }
      obs::SetActiveTrace(trace.get());
    }
  }

  ~ObsSetup() {
    obs::SetActiveTrace(nullptr);
    if (!metrics_out) return;
    // Touch every family first so the exposition is the full catalog
    // (zero-valued where this invocation did not exercise a path).
    TouchServeMetrics();
    TouchDetectMetrics();
    std::string error;
    if (!AtomicWriteFile(metrics_out,
                         obs::MetricsRegistry::Default().RenderPrometheusText(),
                         &error)) {
      std::fprintf(stderr, "cannot write metrics to %s: %s\n", metrics_out,
                   error.c_str());
    }
  }
};

int Gen(int argc, char** argv) {
  if (argc < 1) return Usage();
  const char* out_path = argv[0];
  KbConfig cfg;
  if (!CountFlag(argc, argv, "--scale", &cfg.scale)) return Usage();
  if (const char* v = FlagValue(argc, argv, "--seed")) {
    cfg.seed = std::strtoull(v, nullptr, 10);
  }
  const char* kind = FlagValue(argc, argv, "--kind");
  PropertyGraph g;
  if (!kind || !std::strcmp(kind, "yago2")) {
    g = MakeYago2Like(cfg);
  } else if (!std::strcmp(kind, "dbpedia")) {
    g = MakeDbpediaLike(cfg);
  } else if (!std::strcmp(kind, "imdb")) {
    g = MakeImdbLike(cfg);
  } else {
    std::fprintf(stderr, "unknown --kind %s\n", kind);
    return Usage();
  }
  if (const char* v = FlagValue(argc, argv, "--noise")) {
    NoiseConfig ncfg;
    ncfg.alpha = std::strtod(v, nullptr);
    ncfg.seed = cfg.seed + 1;
    auto noisy = InjectNoise(g, ncfg);
    std::fprintf(stderr, "corrupted %zu of %zu nodes\n",
                 noisy.corrupted.size(), g.NumNodes());
    g = std::move(noisy.graph);
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  SaveGraphTsv(g, out);
  std::fprintf(stderr, "wrote %s: %zu nodes, %zu edges\n", out_path,
               g.NumNodes(), g.NumEdges());
  return 0;
}

int Discover(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto g = LoadGraph(argv[0]);
  if (!g) return 1;
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = std::max<uint64_t>(10, g->NumNodes() / 100);
  ParallelRunConfig pcfg;
  size_t k = cfg.k, sigma = cfg.support_threshold;
  if (!CountFlag(argc, argv, "-k", &k) ||
      !CountFlag(argc, argv, "-s", &sigma) ||
      !CountFlag(argc, argv, "-w", &pcfg.workers)) {
    return Usage();
  }
  cfg.k = static_cast<uint32_t>(k);
  cfg.support_threshold = sigma;
  WallTimer t;
  auto result = ParDis(*g, cfg, pcfg);
  size_t positives = result.positives.size();
  size_t negatives = result.negatives.size();
  auto cover = ParCover(std::move(result).AllGfds(), pcfg);
  std::fprintf(stderr,
               "discovered %zu GFDs (%zu positive, %zu negative) in %.2fs; "
               "cover has %zu\n",
               positives + negatives, positives, negatives, t.Seconds(),
               cover.size());
  EmitRules(cover, *g, FlagValue(argc, argv, "-o"));
  return 0;
}

// Opens a graph store, reporting recovery context on stderr.
std::optional<GraphStore> OpenStore(const char* dir,
                                    const GraphStoreOptions& opts) {
  std::string error;
  auto store = GraphStore::Open(dir, opts, &error);
  if (!store) {
    std::fprintf(stderr, "error opening store %s: %s\n", dir, error.c_str());
    return std::nullopt;
  }
  // Both backends report recovery through the same unified snapshot;
  // mirroring it into the gauges keeps `--metrics-out` current even for
  // verbs that never append.
  ServingMetricsSnapshot snap = store->MetricsSnapshot();
  ExportSnapshotMetrics(snap);
  std::fprintf(stderr,
               "store %s: snapshot@%llu + %zu replayed batch(es) -> seq "
               "%llu, overlay %zu op(s)%s%s\n",
               dir, static_cast<unsigned long long>(snap.anchor_seq),
               snap.replayed_batches,
               static_cast<unsigned long long>(snap.last_seq),
               snap.overlay_ops,
               snap.truncated_bytes ? " [corrupt tail cut]" : "",
               snap.skipped_batches ? " [pre-anchor records dropped]" : "");
  return store;
}

// Acknowledges a durable append on stderr and runs the compaction
// policy, reporting a snapshot roll when it fires.
bool AppendFollowUp(GraphStore& store, uint64_t seq) {
  std::fprintf(stderr, "appended batch seq %llu (%zu overlay ops)\n",
               static_cast<unsigned long long>(seq),
               store.overlay().ops.size());
  std::string error;
  if (!store.MaybeCompact(&error)) {
    std::fprintf(stderr, "compaction failed: %s\n", error.c_str());
    return false;
  }
  if (store.stats().compactions > 0) {
    std::fprintf(stderr, "compacted: snapshot rolled to seq %llu\n",
                 static_cast<unsigned long long>(store.stats().anchor_seq));
  }
  return true;
}

// Prints an incremental diff (+ added against `view`, - removed against
// `removed_graph`, which holds the pre-update state), classifies the
// post-update state by `post_count` (the violation count after the
// batch), and returns the documented exit code.
int ReportDiff(const ViolationEngine& engine, const GraphView& view,
               const PropertyGraph& removed_graph, const IncrementalDiff& diff,
               double seconds, uint64_t post_count) {
  for (const Violation& v : diff.added) {
    std::printf("+ %s\n", DescribeViolation(view, engine.rules(), v).c_str());
  }
  for (const Violation& v : diff.removed) {
    std::printf("- %s\n",
                DescribeViolation(removed_graph, engine.rules(), v).c_str());
  }
  std::fprintf(stderr,
               "incremental: +%zu -%zu violation(s) in %.3fs: %lu anchor "
               "enumerations over %zu plans, %lu touched matches\n",
               diff.added.size(), diff.removed.size(), seconds,
               static_cast<unsigned long>(diff.stats.anchors_scanned),
               diff.stats.anchor_plans,
               static_cast<unsigned long>(diff.stats.matches_seen));
  DeltaVerdict verdict = ClassifyDelta(diff, post_count);
  std::fprintf(stderr, "verdict: %s (%llu violation(s) by counter)\n",
               VerdictName(verdict),
               static_cast<unsigned long long>(post_count));
  return VerdictExit(verdict);
}

// The counter a serving step starts from: the persisted running count
// when it is current, else one full (uncapped) startup scan that seeds
// it. `g` must be the PRE-append state.
uint64_t PreBatchCount(const ViolationEngine& engine, const PropertyGraph& g,
                       std::optional<uint64_t> persisted, size_t workers) {
  if (persisted) return *persisted;
  WallTimer t;
  DetectOptions full;
  full.workers = workers;
  uint64_t count = engine.Detect(g, full).violations.size();
  std::fprintf(stderr,
               "seeded violation counter with a full scan: %llu "
               "violation(s) in %.3fs\n",
               static_cast<unsigned long long>(count), t.Seconds());
  return count;
}

// One serving step: read/seed the running counter, run the shared
// ServeStep (durable append with its per-batch diff, counter update,
// verdict), persist the new count in the meta, print +/- records, and
// return the documented verdict exit code (nullopt when the append was
// rejected). `detect --log --delta` (single GraphStore) and `serve
// append` (coordinator over vertex-cut fragments) both come through here.
// `before` is the store's pre-batch graph, which the verb materialized to
// load its rules: `-` records render against it, `+` records against the
// store's live view, which absorbed the batch in place (ids preserved by
// both backends).
template <typename Store>
std::optional<int> ServeBatch(Store& store, const PropertyGraph& before,
                              const ViolationEngine& engine,
                              const std::string& payload,
                              const char* payload_path, size_t workers,
                              uint64_t* seq_out = nullptr) {
  uint64_t fp = RuleSetFingerprint(engine.rules(), before);
  uint64_t pre_count =
      PreBatchCount(engine, before, store.violation_count(fp), workers);
  IncrementalOptions iopts;
  iopts.workers = workers;
  std::string error;
  WallTimer t;
  auto step = ServeStep(store, engine, payload, pre_count, iopts, &error);
  if (!step) {
    std::fprintf(stderr, "error appending %s\n",
                 FileLineError(payload_path, error).c_str());
    return std::nullopt;
  }
  double seconds = t.Seconds();
  if (!store.SetViolationCount(step->count, fp, &error)) {
    std::fprintf(stderr, "warning: could not persist counter: %s\n",
                 error.c_str());
  }
  int code = ReportDiff(engine, store.view(), before, step->diff, seconds,
                        step->count);
  // Refresh the snapshot gauges so a metrics export reflects the
  // post-batch sequence and overlay state.
  ExportSnapshotMetrics(store.MetricsSnapshot());
  if (seq_out) *seq_out = step->seq;
  return code;
}

int Detect(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* log_dir = nullptr;
  int pos = 0;
  if (!std::strcmp(argv[0], "--log")) {
    if (argc < 3) return Usage();
    log_dir = argv[1];
    pos = 2;
  }

  DetectOptions opts;
  opts.workers = 4;
  GraphStoreOptions sopts;
  if (!CountFlag(argc, argv, "-w", &opts.workers) ||
      !CountFlag(argc, argv, "--max-per-gfd", &opts.max_violations_per_gfd,
                 /*min=*/0) ||
      !CountFlag(argc, argv, "--max-total", &opts.max_total_violations,
                 /*min=*/0) ||
      !CountFlag(argc, argv, "--compact-ops", &sopts.compact_min_ops,
                 /*min=*/0)) {
    return Usage();
  }

  // Observability first: the trace must be live before the store opens
  // so replay / torn-tail recovery events are captured. Destroyed last,
  // after everything below ran, which is when the metrics render.
  ObsSetup obs(argc, argv);
  if (!obs.ok) return 1;

  std::optional<PropertyGraph> g;
  std::optional<GraphStore> store;
  const char* rules_path = nullptr;
  if (log_dir) {
    store = OpenStore(log_dir, sopts);
    if (!store) return 1;
    // The store's current graph, overlay vocabulary included, as `serve
    // run` and `serve append` resolve rules: the same rules file then
    // fingerprints the same on every verb.
    g = store->MaterializeCurrent();
    rules_path = argv[pos];
  } else {
    g = LoadGraph(argv[pos]);
    if (!g) return 1;
    if (pos + 1 >= argc) return Usage();
    rules_path = argv[pos + 1];
  }
  auto rules = LoadRules(rules_path, *g);
  if (!rules) return 1;

  WallTimer build;
  ViolationEngine engine(std::move(*rules));
  std::fprintf(stderr,
               "compiled %zu rules into %zu pattern groups (%.1fms)\n",
               engine.NumRules(), engine.NumGroups(),
               build.Seconds() * 1e3);

  if (const char* delta_path = FlagValue(argc, argv, "--delta")) {
    // Caps would make the added/removed diff ill-defined (a budget could
    // cut off one side of the comparison), so refuse rather than silently
    // ignore them.
    for (const char* flag : {"--max-per-gfd", "--max-total"}) {
      if (FlagValue(argc, argv, flag)) {
        std::fprintf(stderr, "%s is not supported with --delta\n", flag);
        return Usage();
      }
    }
    if (log_dir) {
      // Serving step: durably append the batch, then diff exactly it --
      // the same ServingStore-driven loop `serve append` runs over the
      // coordinator backend.
      auto payload = ReadFile(delta_path);
      if (!payload) return 1;
      uint64_t seq = 0;
      auto code = ServeBatch(*store, *g, engine, *payload, delta_path,
                             opts.workers, &seq);
      if (!code) return 1;
      if (!AppendFollowUp(*store, seq)) return 1;
      ExportSnapshotMetrics(store->MetricsSnapshot());
      return *code;
    }
    std::string error;
    auto delta = LoadGraphDeltaTsvFile(delta_path, *g, &error);
    if (!delta) {
      std::fprintf(stderr, "error loading %s\n",
                   FileLineError(delta_path, error).c_str());
      return 1;
    }
    IncrementalOptions iopts;
    iopts.workers = opts.workers;
    WallTimer t;
    auto diff = engine.DetectIncremental(*g, *delta, iopts, &error);
    double seconds = t.Seconds();
    if (!diff) {
      std::fprintf(stderr, "error applying %s: %s\n", delta_path,
                   error.c_str());
      return 1;
    }
    // The batch applies: DetectIncremental validated it.
    auto view = GraphView::Apply(*g, *delta);
    std::fprintf(stderr,
                 "delta: %zu ops (%zu+ %zu- edges, %zu attr sets) touching "
                 "%zu nodes\n",
                 view->NumDeltaOps(), view->NumInsertedEdges(),
                 view->NumDeletedEdges(), view->NumAttrSets(),
                 diff->stats.affected_nodes);
    // Counted the way a serving step counts: one full scan before the
    // batch, composed with the diff after it.
    const uint64_t post_count =
        PreBatchCount(engine, *g, std::nullopt, opts.workers) +
        diff->added.size() - diff->removed.size();
    // Added violations render against the view (post-update values),
    // removed ones against the base graph they existed in.
    return ReportDiff(engine, *view, *g, *diff, seconds, post_count);
  }

  WallTimer t;
  const DetectionResult result = engine.Detect(*g, opts);
  for (const Violation& v : result.violations) {
    std::printf("%s\n", DescribeViolation(*g, engine.rules(), v).c_str());
  }
  std::fprintf(stderr,
               "%zu violation(s) in %.2fs%s: %lu pivots scanned, %lu "
               "matches, %lu literal evals\n",
               result.violations.size(), t.Seconds(),
               result.stats.truncated ? " (truncated by budget)" : "",
               static_cast<unsigned long>(result.stats.pivots_scanned),
               static_cast<unsigned long>(result.stats.matches_seen),
               static_cast<unsigned long>(result.stats.literal_evals));
  // A complete scan over a store doubles as the counter's seed: later
  // detect --log --delta runs read their verdicts off it scan-free.
  if (log_dir && !result.stats.truncated) {
    uint64_t fp = RuleSetFingerprint(engine.rules(), *g);
    std::string error;
    if (!store->SetViolationCount(result.violations.size(), fp, &error)) {
      std::fprintf(stderr, "warning: could not persist counter: %s\n",
                   error.c_str());
    }
  }
  return result.violations.empty() ? 0 : kExitViolations;
}

int Log(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* verb = argv[0];
  const char* dir = argv[1];
  GraphStoreOptions sopts;
  if (!CountFlag(argc, argv, "--compact-ops", &sopts.compact_min_ops,
                 /*min=*/0)) {
    return Usage();
  }

  if (!std::strcmp(verb, "init")) {
    if (argc < 3) return Usage();
    auto g = LoadGraph(argv[2]);
    if (!g) return 1;
    std::string error;
    if (!GraphStore::Init(dir, *g, &error)) {
      std::fprintf(stderr, "error initializing %s: %s\n", dir, error.c_str());
      return 1;
    }
    std::fprintf(stderr, "initialized store %s: %zu nodes, %zu edges\n", dir,
                 g->NumNodes(), g->NumEdges());
    return 0;
  }

  auto store = OpenStore(dir, sopts);
  if (!store) return 1;

  if (!std::strcmp(verb, "append")) {
    if (argc < 3) return Usage();
    auto payload = ReadFile(argv[2]);
    if (!payload) return 1;
    std::string error;
    auto seq = store->Append(*payload, &error);
    if (!seq) {
      std::fprintf(stderr, "error appending %s\n",
                   FileLineError(argv[2], error).c_str());
      return 1;
    }
    return AppendFollowUp(*store, *seq) ? 0 : 1;
  }

  if (!std::strcmp(verb, "replay")) {
    const GraphView& view = store->view();
    std::fprintf(stderr, "current graph: %zu nodes, %zu edges\n",
                 view.NumNodes(), view.NumEdges());
    if (const char* out_path = FlagValue(argc, argv, "-o")) {
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", out_path);
        return 1;
      }
      SaveGraphTsv(store->MaterializeCurrent(), out);
      std::fprintf(stderr, "wrote %s\n", out_path);
    }
    return 0;
  }

  if (!std::strcmp(verb, "compact")) {
    std::string error;
    if (!store->Compact(&error)) {
      std::fprintf(stderr, "compaction failed: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "snapshot anchored at seq %llu, log re-anchored\n",
                 static_cast<unsigned long long>(store->stats().anchor_seq));
    return 0;
  }

  return Usage();
}

// Opens a coordinator, reporting recovery context on stderr.
std::optional<Coordinator> OpenCoordinator(const char* dir,
                                           const CoordinatorOptions& opts) {
  std::string error;
  auto coord = Coordinator::Open(dir, opts, &error);
  if (!coord) {
    std::fprintf(stderr, "error opening coordinator %s: %s\n", dir,
                 error.c_str());
    return std::nullopt;
  }
  ServingMetricsSnapshot snap = coord->MetricsSnapshot();
  ExportSnapshotMetrics(snap);
  std::fprintf(stderr,
               "coordinator %s: %zu fragment(s) at seq %llu (snapshot@%llu "
               "+ %zu replayed batch(es))%s\n",
               dir, snap.fragments,
               static_cast<unsigned long long>(snap.last_seq),
               static_cast<unsigned long long>(snap.anchor_seq),
               snap.replayed_batches,
               snap.truncated_bytes ? " [corrupt journal tail cut]" : "");
  return coord;
}

// SIGINT/SIGTERM flag of `serve run`: the handler only sets this; the
// main thread notices and runs the orderly shutdown (close subscriber
// streams, stop accepting) outside signal context.
volatile std::sig_atomic_t g_stop_serving = 0;

void HandleStopSignal(int) { g_stop_serving = 1; }

// `gfdtool serve run <dir> <rules.gfd> ...`: the long-lived changefeed
// server. One process opens the store (either backend, sniffed from the
// directory) and owns it for its lifetime; ingest, feed fan-out,
// metrics, and status all answer over HTTP (see docs/WIRE.md).
int ServeRun(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* dir = argv[0];

  size_t port = 8080;
  size_t workers = 1;
  size_t http_workers = 8;
  size_t queue_cap = 256;
  size_t heartbeat_ms = 5000;
  size_t ingest_rps = 0;
  size_t ingest_burst = 8;
  if (!CountFlag(argc, argv, "--port", &port, /*min=*/0)) return Usage();
  if (!CountFlag(argc, argv, "-w", &workers)) return Usage();
  if (!CountFlag(argc, argv, "--http-workers", &http_workers)) return Usage();
  if (!CountFlag(argc, argv, "--queue-cap", &queue_cap)) return Usage();
  if (!CountFlag(argc, argv, "--heartbeat-ms", &heartbeat_ms)) return Usage();
  if (!CountFlag(argc, argv, "--ingest-rps", &ingest_rps, /*min=*/0)) {
    return Usage();
  }
  if (!CountFlag(argc, argv, "--ingest-burst", &ingest_burst)) return Usage();
  const char* bind = FlagValue(argc, argv, "--bind");
  if (!bind) bind = "127.0.0.1";
  if (port > 65535) {
    std::fprintf(stderr, "--port expects 0..65535\n");
    return Usage();
  }

  // Trace before the store opens (recovery events fire during replay);
  // --metrics-out renders the final registry state on exit.
  ObsSetup obs(argc, argv);
  if (!obs.ok) return 1;

  GraphStoreOptions sopts;
  if (!CountFlag(argc, argv, "--compact-ops", &sopts.compact_min_ops,
                 /*min=*/0)) {
    return Usage();
  }
  std::optional<GraphStore> store;
  std::optional<Coordinator> coord;
  ServingStore* serving = nullptr;
  const char* backend = nullptr;
  if (std::ifstream(std::string(dir) + "/coordinator.meta").good()) {
    CoordinatorOptions copts;
    copts.store = sopts;
    coord = OpenCoordinator(dir, copts);
    if (!coord) return 1;
    serving = &*coord;
    backend = "distributed";
  } else {
    store = OpenStore(dir, sopts);
    if (!store) return 1;
    serving = &*store;
    backend = "single";
  }

  // Rules resolve against the current graph (overlay vocabulary
  // included); the materialization is a temporary, freed before Prime
  // builds its own.
  auto rules = LoadRules(argv[1], serving->MaterializeCurrent());
  if (!rules) return 1;
  ViolationEngine engine(std::move(*rules));

  std::string error;
  auto feed = ViolationChangefeed::Open(dir, serving->last_seq(), &error);
  if (!feed) {
    std::fprintf(stderr, "error opening feed log: %s\n", error.c_str());
    return 1;
  }
  if (feed->reset_on_open()) {
    std::fprintf(stderr,
                 "feed log out of step with the store; reset -- "
                 "subscribers will see a sequence gap\n");
  }

  net::FeedServiceOptions fopts;
  fopts.detect_workers = workers;
  fopts.subscriber_queue_cap = queue_cap;
  fopts.heartbeat_ms = static_cast<int64_t>(heartbeat_ms);
  fopts.ingest_rate_per_sec = static_cast<double>(ingest_rps);
  fopts.ingest_burst = static_cast<double>(ingest_burst);
  fopts.backend = backend;
  net::FeedService service(*serving, engine, *feed, fopts);
  net::CountSource source = net::CountSource::kScan;
  uint64_t count = service.Prime(&source);
  std::fprintf(stderr, "violation counter: %llu (%s)\n",
               static_cast<unsigned long long>(count), CountSourceName(source));

  net::HttpServerOptions hopts;
  hopts.bind_address = bind;
  hopts.port = static_cast<uint16_t>(port);
  hopts.workers = http_workers;
  auto server = net::HttpServer::Start(
      hopts,
      [&service](const net::HttpRequest& req, net::ResponseWriter& w) {
        service.Handle(req, w);
      },
      &error);
  if (!server) {
    std::fprintf(stderr, "error starting server: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::fprintf(stderr,
               "serving %s (%s backend, %zu rule(s), seq %llu) on "
               "http://%s:%u\n"
               "endpoints: POST /ingest, GET /feed /metrics /status; "
               "SIGINT/SIGTERM to stop\n",
               dir, backend, engine.NumRules(),
               static_cast<unsigned long long>(serving->last_seq()), bind,
               static_cast<unsigned>(server->port()));

  while (!g_stop_serving) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "signal received; shutting down\n");
  feed->Shutdown();  // closes subscriber streams -> handlers drain
  server->Stop();
  // Ingest has stopped: checkpoint the count so later CLI runs skip the
  // seeding scan.
  if (!service.Checkpoint(&error)) {
    std::fprintf(stderr, "warning: could not persist counter: %s\n",
                 error.c_str());
  }
  std::fprintf(stderr, "stopped at seq %llu\n",
               static_cast<unsigned long long>(serving->last_seq()));
  return 0;
}

int Serve(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* verb = argv[0];
  const char* dir = argv[1];

  if (!std::strcmp(verb, "run")) return ServeRun(argc - 1, argv + 1);

  if (!std::strcmp(verb, "init")) {
    if (argc < 3) return Usage();
    size_t fragments = 2;
    size_t radius = 3;
    if (!CountFlag(argc, argv, "--fragments", &fragments)) return Usage();
    if (!CountFlag(argc, argv, "--radius", &radius)) return Usage();
    auto g = LoadGraph(argv[2]);
    if (!g) return 1;
    std::string error;
    if (!Coordinator::Init(dir, *g, fragments,
                           static_cast<uint32_t>(radius), &error)) {
      std::fprintf(stderr, "error initializing %s: %s\n", dir, error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "initialized coordinator %s: %zu vertex-cut fragment(s) of "
                 "%zu nodes, %zu edges (halo radius %zu)\n",
                 dir, fragments, g->NumNodes(), g->NumEdges(), radius);
    return 0;
  }

  CoordinatorOptions copts;
  if (!CountFlag(argc, argv, "--compact-ops", &copts.store.compact_min_ops,
                 /*min=*/0)) {
    return Usage();
  }

  if (!std::strcmp(verb, "status")) {
    auto coord = OpenCoordinator(dir, copts);
    if (!coord) return 1;
    const ServingMetricsSnapshot snap = coord->MetricsSnapshot();
    std::printf("coordinator: seq %llu anchor %llu, %zu overlay op(s)\n",
                static_cast<unsigned long long>(snap.last_seq),
                static_cast<unsigned long long>(snap.anchor_seq),
                snap.overlay_ops);
    uint64_t resident_total = 0;
    for (size_t f = 0; f < coord->num_fragments(); ++f) {
      size_t owned = 0;
      for (uint32_t o : coord->node_owner()) owned += o == f ? 1 : 0;
      uint64_t resident = coord->resident_edges(f);
      resident_total += resident;
      std::printf("fragment %zu: %zu owned node(s), %llu resident edge(s)\n",
                  f, owned, static_cast<unsigned long long>(resident));
    }
    std::printf("partition: halo radius %u, replication %.2f, "
                "%llu resident edge(s) total\n",
                coord->partition().halo_radius,
                coord->partition().replication,
                static_cast<unsigned long long>(resident_total));
    return 0;
  }

  if (!std::strcmp(verb, "rebalance")) {
    if (argc < 4) return Usage();
    char* end = nullptr;
    unsigned long long node = std::strtoull(argv[2], &end, 10);
    if (!end || *end != '\0') {
      std::fprintf(stderr, "bad node id '%s'\n", argv[2]);
      return Usage();
    }
    end = nullptr;
    unsigned long long to = std::strtoull(argv[3], &end, 10);
    if (!end || *end != '\0') {
      std::fprintf(stderr, "bad fragment id '%s'\n", argv[3]);
      return Usage();
    }
    auto coord = OpenCoordinator(dir, copts);
    if (!coord) return 1;
    std::string error;
    auto seq = coord->Rebalance(static_cast<NodeId>(node),
                                static_cast<uint32_t>(to), &error);
    if (!seq) {
      std::fprintf(stderr, "rebalance failed: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "rebalanced node %llu to fragment %llu at seq %llu; halo "
                 "maintenance shipped under the new ownership\n",
                 node, to, static_cast<unsigned long long>(*seq));
    return 0;
  }

  if (!std::strcmp(verb, "append")) {
    if (argc < 4) return Usage();
    size_t workers = 1;
    if (!CountFlag(argc, argv, "-w", &workers)) return Usage();
    // Trace must be live before the coordinator opens (the journal's
    // replay event fires during Open); metrics render on scope exit,
    // after the compaction policy ran.
    ObsSetup obs(argc, argv);
    if (!obs.ok) return 1;
    auto coord = OpenCoordinator(dir, copts);
    if (!coord) return 1;
    PropertyGraph current = coord->MaterializeCurrent();
    auto rules = LoadRules(argv[2], current);
    if (!rules) return 1;
    ViolationEngine engine(std::move(*rules));
    auto payload = ReadFile(argv[3]);
    if (!payload) return 1;

    // Routing report: which fragments' resident sets receive batch ops.
    {
      std::istringstream in(*payload);
      std::string error;
      auto d = LoadGraphDeltaTsv(in, current, &error);
      if (!d) {
        std::fprintf(stderr, "error loading %s\n",
                     FileLineError(argv[3], error).c_str());
        return 1;
      }
      auto route = RouteDelta(*d, coord->residency());
      std::fprintf(stderr, "batch: %zu op(s) routed to %zu fragment(s)\n",
                   d->ops.size(), route.affected_fragments.size());
    }

    CoordinatorStats pre = coord->stats();
    uint64_t seq = 0;
    auto code =
        ServeBatch(*coord, current, engine, *payload, argv[3], workers, &seq);
    if (!code) return 1;
    CoordinatorStats post = coord->stats();
    std::fprintf(stderr,
                 "batch seq %llu: %llu byte(s) shipped across %zu "
                 "fragment(s) (%llu owned-op, %llu border-halo)\n",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(post.bytes_shipped -
                                                 pre.bytes_shipped),
                 coord->num_fragments(),
                 static_cast<unsigned long long>(post.bytes_owned_shipped -
                                                 pre.bytes_owned_shipped),
                 static_cast<unsigned long long>(post.bytes_halo_shipped -
                                                 pre.bytes_halo_shipped));

    std::string error;
    if (!coord->MaybeCompactAll(&error)) {
      std::fprintf(stderr, "compaction failed: %s\n", error.c_str());
      return 1;
    }
    if (coord->stats().compactions > 0) {
      std::fprintf(stderr, "compacted: global snapshot rolled to seq %llu\n",
                   static_cast<unsigned long long>(coord->stats().anchor_seq));
    }
    ExportSnapshotMetrics(coord->MetricsSnapshot());
    return *code;
  }

  return Usage();
}

// `gfdtool metrics <dir> [-o FILE]`: open whichever backend lives at
// <dir> (the replay populates recovery metrics -- torn tails, replayed
// batches), mirror its unified snapshot into the gauges, and
// render the complete registry in Prometheus text format.
int Metrics(int argc, char** argv) {
  if (argc < 1) return Usage();
  const char* dir = argv[0];
  std::optional<GraphStore> store;
  std::optional<Coordinator> coord;
  if (std::ifstream(std::string(dir) + "/coordinator.meta").good()) {
    coord = OpenCoordinator(dir, CoordinatorOptions{});
    if (!coord) return 1;
  } else {
    store = OpenStore(dir, GraphStoreOptions{});
    if (!store) return 1;
  }
  TouchServeMetrics();
  TouchDetectMetrics();
  std::string text = obs::MetricsRegistry::Default().RenderPrometheusText();
  if (const char* out_path = FlagValue(argc, argv, "-o")) {
    std::string error;
    if (!AtomicWriteFile(out_path, text, &error)) {
      std::fprintf(stderr, "cannot write metrics to %s: %s\n", out_path,
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote metrics to %s\n", out_path);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}

int Validate(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto g = LoadGraph(argv[0]);
  if (!g) return 1;
  auto rules = LoadRules(argv[1], *g);
  if (!rules) return 1;
  size_t violated = 0;
  for (const auto& phi : *rules) {
    CompiledPattern plan(phi.pattern);
    auto check = EvaluateGfd(*g, plan, phi, {}, /*abort_on_violation=*/true);
    if (!check.satisfied) {
      ++violated;
      std::printf("VIOLATED: %s\n", phi.ToString(*g).c_str());
    }
  }
  std::printf("%zu/%zu rules violated\n", violated, rules->size());
  return violated == 0 ? 0 : 3;
}

int Cover(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto g = LoadGraph(argv[0]);
  if (!g) return 1;
  auto rules = LoadRules(argv[1], *g);
  if (!rules) return 1;
  ParallelRunConfig pcfg;
  if (!CountFlag(argc, argv, "-w", &pcfg.workers)) return Usage();
  size_t before = rules->size();
  CoverStats stats;
  auto cover = ParCover(std::move(*rules), pcfg, &stats);
  std::fprintf(stderr, "cover: %zu -> %zu rules (%lu implication tests)\n",
               before, cover.size(),
               static_cast<unsigned long>(stats.implication_tests));
  EmitRules(cover, *g, FlagValue(argc, argv, "-o"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (!std::strcmp(argv[1], "help")) {
    return argc > 2 ? HelpVerb(argv[2]) : HelpAll();
  }
  if (!std::strcmp(argv[1], "--help") || !std::strcmp(argv[1], "-h")) {
    return HelpAll();
  }
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help")) return HelpVerb(argv[1]);
  }
  if (!std::strcmp(argv[1], "gen")) return Gen(argc - 2, argv + 2);
  if (!std::strcmp(argv[1], "discover")) return Discover(argc - 2, argv + 2);
  if (!std::strcmp(argv[1], "detect")) return Detect(argc - 2, argv + 2);
  if (!std::strcmp(argv[1], "log")) return Log(argc - 2, argv + 2);
  if (!std::strcmp(argv[1], "serve")) return Serve(argc - 2, argv + 2);
  if (!std::strcmp(argv[1], "metrics")) return Metrics(argc - 2, argv + 2);
  if (!std::strcmp(argv[1], "validate")) return Validate(argc - 2, argv + 2);
  if (!std::strcmp(argv[1], "cover")) return Cover(argc - 2, argv + 2);
  return Usage();
}
