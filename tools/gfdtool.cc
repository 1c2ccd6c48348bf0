// gfdtool: the production-facing command line over the library -- mine
// rules from a TSV graph, persist them, and serve them back as
// data-quality checks through the batched violation engine. Every verb's
// synopsis and reference is its kVerbHelp entry below, printed by
// `gfdtool help [verb]` and mirrored in docs/CLI.md.
#include <charconv>
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
#include <string_view>
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
#include "util/tsv.h"

using namespace gfd;

namespace {

// Per-verb help: one entry per dispatch-table verb, printed by
// `gfdtool help <verb>` / `gfdtool <verb> --help` and mirrored verbatim
// in docs/CLI.md (CI checks that every verb here has a section there,
// and tools/check_cli_doc.py that each section's block is this text).
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
     "  --log <dir>     check the store or coordinator at <dir>\n"
     "                  (replayed on open) instead of a TSV file; rules\n"
     "                  resolve against its current graph, as under serve\n"
     "  --delta FILE    incremental mode: apply the TSV delta batch and\n"
     "                  report only the violations it added (+) and\n"
     "                  removed (-); with --log the batch is served as\n"
     "                  serve append serves it\n"
     "  --max-per-gfd/--max-total   violation budgets (0 = unlimited)\n"
     "  --compact-ops N             store compaction threshold override\n"
     "  -w WORKERS      detection threads\n"
     "One line per violation, its description escaped as the feed\n"
     "escapes it (\\\\ \\t \\n \\r \\=), whatever a name holds.\n"
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
     "(see docs/WIRE.md for the on-disk formats). append, replay and\n"
     "compact open a coordinator's directory too.\n"
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
     "gfdtool serve rebalance <dir> <node> <fragment>\n"
     "gfdtool serve status <dir>\n"
     "gfdtool serve run <dir> <rules.gfd> [--port P] [--bind ADDR]\n"
     "        [-w WORKERS] [--http-workers N] [--queue-cap N]\n"
     "        [--heartbeat-ms MS] [--ingest-rps R] [--ingest-burst B]\n"
     "        [--compact-ops N] [--metrics-out FILE] [--trace FILE]\n"
     "\n"
     "Serving verbs. init, rebalance and status drive a coordinator (a\n"
     "store plus a vertex-cut owner table); append and run take EITHER\n"
     "backend (a `log init` store or a `serve init` coordinator, sniffed\n"
     "from the directory) and run the single store's step, on a\n"
     "coordinator once the rules fit its halo radius. append serves one\n"
     "batch, as detect --log --delta does; run serves over HTTP as one\n"
     "long-lived process:\n"
     "  POST /ingest    one TSV delta batch -> seq + violation diff\n"
     "                  summary (422 on invalid input, 500 when a\n"
     "                  valid batch could not be made durable, 429\n"
     "                  when rate limited)\n"
     "  GET  /feed      SSE stream of per-batch violation diffs;\n"
     "                  ?cursor=SEQ replays missed batches from the\n"
     "                  feed log; ?rule= ?label= ?pivot= filter;\n"
     "                  ?max_events=N closes after N events\n"
     "  GET  /metrics   live Prometheus text\n"
     "  GET  /status    JSON summary (seq, backend, counters)\n"
     "init writes the owner table and a master store of the graph, and\n"
     "refuses a directory that already holds a store or a coordinator.\n"
     "status prints `coordinator: seq S anchor A, N overlay op(s)`, one\n"
     "`fragment F: N owned node(s), E resident edge(s)` line per\n"
     "fragment (edges inside its residency mask), then the halo radius,\n"
     "the vertex-cut replication and the resident-edge factor. rebalance\n"
     "rewrites the owner table with <node>'s new owner and writes nothing\n"
     "else (no sequence number is consumed); <node> and <fragment> are\n"
     "decimal 32-bit ids (`5`, not `n5`), anything else exits 2. Both\n"
     "exit 1 on a single store, and every verb that opens a directory\n"
     "an older build wrote (routing.log present) exits 1 naming it.\n"
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
     "The startup banner says where the running violation count came\n"
     "from: \"persisted\" (the meta), \"from the feed\" (the count line of\n"
     "the feed's last record) or \"seeded by full scan\". Feed records are\n"
     "written unsynced; the store's log holds every batch past the feed's\n"
     "last fsync, so on start the records the feed lacks (a tail a machine\n"
     "crash lost, or batches `serve append` took) are re-derived first:\n"
     "\"feed caught up K batch(es) from the log\". A gap the log cannot\n"
     "bridge resets the feed instead: \"feed log out of step with the\n"
     "store; reset -- subscribers will see a sequence gap\".\n"
     "Shutdown: SIGINT/SIGTERM close subscriber streams, sync the feed,\n"
     "stop accepting, checkpoint the count into the meta, then exit 0;\n"
     "durable state needs no cleanup (kill -9 recovers on the next open,\n"
     "taking the count from the feed). See docs/WIRE.md for the wire\n"
     "format.\n"},
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
     "Reduce a rule file to a minimal equivalent cover by the grouped\n"
     "(Lemma 6) elimination: rules are grouped by pattern, and each is\n"
     "tested, most specific first, only against the live rules whose\n"
     "patterns embed into its own. The cover, in order, is the same at\n"
     "every -w. -o writes the cover to FILE (default: stdout).\n"},
    {"help",
     "gfdtool help [verb]\n"
     "\n"
     "Print the per-verb reference (also: gfdtool <verb> --help). The\n"
     "same text lives in docs/CLI.md.\n"},
};

// Every verb's synopsis -- its kVerbHelp text up to the first blank
// line -- on stderr; returns the usage exit code.
int Usage() {
  std::fputs("usage:\n", stderr);
  for (const VerbHelp& h : kVerbHelp) {
    const std::string_view text = h.text;
    std::string_view synopsis = text.substr(0, text.find("\n\n") + 1);
    while (!synopsis.empty()) {
      const size_t eol = synopsis.find('\n');
      std::fprintf(stderr, "  %.*s\n", static_cast<int>(eol), synopsis.data());
      synopsis.remove_prefix(eol + 1);
    }
  }
  return 2;
}

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
                 "%s: skipped %zu rule(s) that do not parse against this "
                 "graph (vocabulary it does not intern, or a malformed or "
                 "disconnected pattern)\n",
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

// A whole-string decimal uint32_t ("5", not "", "+5", "-1", "n5" or
// 4294967296).
bool ParseId(const char* text, uint32_t* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return text != end && ec == std::errc() && ptr == end;
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

// Opens whichever backend lives at `dir` -- a coordinator when it holds
// coordinator.meta, else a single store -- reporting its recovery on
// stderr. Every verb that opens a directory opens it here.
std::unique_ptr<GraphStore> OpenBackend(const char* dir,
                                        const GraphStoreOptions& opts) {
  const bool coordinator =
      std::ifstream(std::string(dir) + "/coordinator.meta").good();
  std::string error;
  std::unique_ptr<GraphStore> store;
  if (coordinator) {
    auto coord = Coordinator::Open(dir, {.store = opts}, &error);
    if (coord) store = std::make_unique<Coordinator>(std::move(*coord));
  } else {
    auto single = GraphStore::Open(dir, opts, &error);
    if (single) store = std::make_unique<GraphStore>(std::move(*single));
  }
  if (!store) {
    std::fprintf(stderr, "error opening %s %s: %s\n",
                 coordinator ? "coordinator" : "store", dir, error.c_str());
    return nullptr;
  }
  // Both backends report recovery through the same unified snapshot;
  // mirroring it into the gauges keeps `--metrics-out` current even for
  // verbs that never append.
  const ServingMetricsSnapshot snap = store->MetricsSnapshot();
  ExportSnapshotMetrics(snap);
  if (coordinator) {
    std::fprintf(stderr,
                 "coordinator %s: %zu fragment(s) at seq %llu (snapshot@%llu "
                 "+ %zu replayed batch(es))%s\n",
                 dir, snap.fragments,
                 static_cast<unsigned long long>(snap.last_seq),
                 static_cast<unsigned long long>(snap.anchor_seq),
                 snap.replayed_batches,
                 snap.truncated_bytes ? " [corrupt log tail cut]" : "");
  } else {
    std::fprintf(stderr,
                 "store %s: snapshot@%llu + %zu replayed batch(es) -> seq "
                 "%llu, overlay %zu op(s)%s%s\n",
                 dir, static_cast<unsigned long long>(snap.anchor_seq),
                 snap.replayed_batches,
                 static_cast<unsigned long long>(snap.last_seq),
                 snap.overlay_ops,
                 snap.truncated_bytes ? " [corrupt tail cut]" : "",
                 snap.skipped_batches ? " [pre-anchor records dropped]" : "");
  }
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
    std::printf(
        "+ %s\n",
        EscapeField(DescribeViolation(view, engine.rules(), v)).c_str());
  }
  for (const Violation& v : diff.removed) {
    std::printf(
        "- %s\n",
        EscapeField(DescribeViolation(removed_graph, engine.rules(), v))
            .c_str());
  }
  std::fprintf(stderr,
               "incremental: +%zu -%zu violation(s) in %.3fs: %zu write "
               "unit(s) + %zu edge unit(s) over %lu root(s), %lu touched "
               "matches\n",
               diff.added.size(), diff.removed.size(), seconds,
               diff.stats.write_units, diff.stats.edge_units,
               static_cast<unsigned long>(diff.stats.roots_scanned),
               static_cast<unsigned long>(diff.stats.matches_seen));
  DeltaVerdict verdict = ClassifyDelta(diff, post_count);
  std::fprintf(stderr, "verdict: %s (%llu violation(s) by counter)\n",
               VerdictName(verdict),
               static_cast<unsigned long long>(post_count));
  return VerdictExit(verdict);
}

// One full (uncapped) scan of `g`, the PRE-batch state, that seeds the
// running violation counter a batch's diff is composed with.
uint64_t PreBatchCount(const ViolationEngine& engine, const PropertyGraph& g,
                       size_t workers) {
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

// One serving step from the command line, the body `detect --log
// --delta` and `serve append` share on either backend: the store's step
// (ServeStep; a coordinator checks the rules' radius against its halo
// first) on the batch in `delta_path` from the persisted running count,
// the new count persisted in the meta, the +/- records and verdict
// printed, then the compaction policy. Returns the documented verdict
// exit code, or 1 when the batch was rejected or the follow-up failed. A
// store with no current count is seeded by PreBatchCount over `before`,
// once the store has accepted the batch, so a rejected batch costs no
// scan. `before` is the store's pre-batch graph, which the verb
// materialized to load its rules: `-` records render against it, `+`
// records against the store's live view, which absorbed the batch in
// place (ids preserved).
int ServeBatch(GraphStore& store, const PropertyGraph& before,
               const ViolationEngine& engine, const char* delta_path,
               size_t workers) {
  auto payload = ReadFile(delta_path);
  if (!payload) return 1;
  uint64_t fp = RuleSetFingerprint(engine.rules(), before);
  const std::optional<uint64_t> persisted = store.violation_count(fp);
  IncrementalOptions iopts;
  iopts.workers = workers;
  std::string error;
  WallTimer t;
  auto step = ServeStep(store, engine, *payload, persisted.value_or(0), iopts,
                        &error);
  if (!step) {
    std::fprintf(stderr, "error appending %s\n",
                 FileLineError(delta_path, error).c_str());
    return 1;
  }
  double seconds = t.Seconds();
  if (!persisted) {
    // The step counted from 0; unsigned arithmetic makes the sum exact.
    step->count += PreBatchCount(engine, before, workers);
    step->verdict = ClassifyDelta(step->diff, step->count);
  }
  if (!store.SetViolationCount(step->count, fp, &error)) {
    std::fprintf(stderr, "warning: could not persist counter: %s\n",
                 error.c_str());
  }
  const int code = ReportDiff(engine, store.view(), before, step->diff,
                              seconds, step->count);
  const bool followed_up = AppendFollowUp(store, step->seq);
  // Refresh the snapshot gauges so a metrics export reflects the
  // post-batch sequence, overlay and compaction state.
  ExportSnapshotMetrics(store.MetricsSnapshot());
  return followed_up ? code : 1;
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
  std::unique_ptr<GraphStore> store;
  const char* rules_path = nullptr;
  if (log_dir) {
    store = OpenBackend(log_dir, sopts);
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
      return ServeBatch(*store, *g, engine, delta_path, opts.workers);
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
                 "delta: %zu ops (%zu+ %zu- edges, %zu attr sets)\n",
                 view->NumDeltaOps(), view->NumInsertedEdges(),
                 view->NumDeletedEdges(), view->NumAttrSets());
    // Counted the way a serving step counts: one full scan before the
    // batch, composed with the diff after it.
    const uint64_t post_count =
        PreBatchCount(engine, *g, opts.workers) +
        diff->added.size() - diff->removed.size();
    // Added violations render against the view (post-update values),
    // removed ones against the base graph they existed in.
    return ReportDiff(engine, *view, *g, *diff, seconds, post_count);
  }

  WallTimer t;
  const DetectionResult result = engine.Detect(*g, opts);
  for (const Violation& v : result.violations) {
    std::printf("%s\n",
                EscapeField(DescribeViolation(*g, engine.rules(), v)).c_str());
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

  const std::unique_ptr<GraphStore> store = OpenBackend(dir, sopts);
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
  const std::unique_ptr<GraphStore> serving = OpenBackend(dir, sopts);
  if (!serving) return 1;
  const bool distributed = dynamic_cast<const Coordinator*>(serving.get());
  const char* backend = distributed ? "distributed" : "single";

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

  net::FeedServiceOptions fopts;
  fopts.detect_workers = workers;
  fopts.subscriber_queue_cap = queue_cap;
  fopts.heartbeat_ms = static_cast<int64_t>(heartbeat_ms);
  fopts.ingest_rate_per_sec = static_cast<double>(ingest_rps);
  fopts.ingest_burst = static_cast<double>(ingest_burst);
  fopts.backend = backend;
  net::FeedService service(*serving, engine, *feed, fopts);
  net::PrimeReport primed;
  uint64_t count = service.Prime(&primed);
  if (primed.caught_up > 0) {
    std::fprintf(stderr, "feed caught up %llu batch(es) from the log\n",
                 static_cast<unsigned long long>(primed.caught_up));
  }
  if (primed.feed_reset) {
    std::fprintf(stderr,
                 "feed log out of step with the store; reset -- "
                 "subscribers will see a sequence gap\n");
  }
  std::fprintf(stderr, "violation counter: %llu (%s)\n",
               static_cast<unsigned long long>(count),
               CountSourceName(primed.source));

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
  // Closes subscriber streams (handlers drain) and syncs the feed.
  if (!feed->Shutdown(&error)) {
    std::fprintf(stderr, "warning: could not sync the feed log: %s\n",
                 error.c_str());
  }
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

  GraphStoreOptions sopts;
  if (!CountFlag(argc, argv, "--compact-ops", &sopts.compact_min_ops,
                 /*min=*/0)) {
    return Usage();
  }

  if (!std::strcmp(verb, "append")) {
    if (argc < 4) return Usage();
    size_t workers = 1;
    if (!CountFlag(argc, argv, "-w", &workers)) return Usage();
    // Trace must be live before the store opens (its replay event fires
    // during Open); metrics render on scope exit, after the compaction
    // policy ran.
    ObsSetup obs(argc, argv);
    if (!obs.ok) return 1;
    const std::unique_ptr<GraphStore> store = OpenBackend(dir, sopts);
    if (!store) return 1;
    PropertyGraph current = store->MaterializeCurrent();
    auto rules = LoadRules(argv[2], current);
    if (!rules) return 1;
    ViolationEngine engine(std::move(*rules));
    return ServeBatch(*store, current, engine, argv[3], workers);
  }

  // status and rebalance read and move the owner table: a coordinator's.
  const bool rebalance = !std::strcmp(verb, "rebalance");
  if (!rebalance && std::strcmp(verb, "status")) return Usage();
  uint32_t node = 0;
  uint32_t to = 0;
  if (rebalance) {
    if (argc < 4) return Usage();
    if (!ParseId(argv[2], &node)) {
      std::fprintf(stderr, "bad node id '%s'\n", argv[2]);
      return Usage();
    }
    if (!ParseId(argv[3], &to)) {
      std::fprintf(stderr, "bad fragment id '%s'\n", argv[3]);
      return Usage();
    }
  }
  const std::unique_ptr<GraphStore> store = OpenBackend(dir, sopts);
  if (!store) return 1;
  auto* coord = dynamic_cast<Coordinator*>(store.get());
  if (!coord) {
    std::fprintf(stderr,
                 "%s holds a single store; serve %s needs a coordinator\n",
                 dir, verb);
    return 1;
  }

  if (rebalance) {
    std::string error;
    if (!coord->Rebalance(node, to, &error)) {
      std::fprintf(stderr, "rebalance failed: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "rebalanced node %u to fragment %u\n", node, to);
    return 0;
  }

  const ServingMetricsSnapshot snap = coord->MetricsSnapshot();
  std::printf("coordinator: seq %llu anchor %llu, %zu overlay op(s)\n",
              static_cast<unsigned long long>(snap.last_seq),
              static_cast<unsigned long long>(snap.anchor_seq),
              snap.overlay_ops);
  const FragmentResidency residency = coord->residency();
  uint64_t resident_total = 0;
  for (size_t f = 0; f < coord->num_fragments(); ++f) {
    size_t owned = 0;
    for (uint32_t o : coord->node_owner()) owned += o == f ? 1 : 0;
    const uint64_t resident = ResidentEdges(coord->view(), residency[f]);
    resident_total += resident;
    std::printf("fragment %zu: %zu owned node(s), %llu resident edge(s)\n", f,
                owned, static_cast<unsigned long long>(resident));
  }
  // Two factors: the vertex-cut's node replication, and how many copies
  // of the graph the residency masks span -- what fragments holding their
  // residency would store. The process stores one.
  const size_t edges = coord->view().NumEdges();
  std::printf("partition: halo radius %u, vertex-cut replication %.2f, "
              "resident-edge factor %.2f (%llu resident edge(s) over %zu "
              "edge(s), stored once)\n",
              coord->partition().halo_radius, coord->partition().replication,
              edges ? static_cast<double>(resident_total) /
                          static_cast<double>(edges)
                    : 0.0,
              static_cast<unsigned long long>(resident_total), edges);
  return 0;
}

// `gfdtool metrics <dir> [-o FILE]`: open whichever backend lives at
// <dir> (the replay populates recovery metrics -- torn tails, replayed
// batches), mirror its unified snapshot into the gauges, and
// render the complete registry in Prometheus text format.
int Metrics(int argc, char** argv) {
  if (argc < 1) return Usage();
  const char* dir = argv[0];
  const std::unique_ptr<GraphStore> store = OpenBackend(dir, {});
  if (!store) return 1;
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
