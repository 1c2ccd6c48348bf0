// pbtool: the benchmark's own binary. It links the repository's
// layer libraries and times calls into their public functions from
// outside, so the benchmark measures the layers without changing them.
//
//   pbtool buildinfo
//       One JSON line: build type, sanitizer, compiler.
//   pbtool discover <graph.tsv> <out_dir> [--seconds S] [--min-reps N]
//           [--stats] [--reference DIR]
//       Loads the graph, runs ParDis + ParCover at 4 workers (the
//       computation `gfdtool discover -w 4` runs) once untimed, then
//       repeats it timed until S seconds have passed and at least N
//       repetitions ran, then runs SeqDis + SeqCover once as the
//       correctness reference. Writes rules.gfd (the cover), the rendered
//       ParDis/SeqDis/ParCover/SeqCover outputs and seqcover.gfd to
//       out_dir and prints one JSON line of timings and checks. --stats
//       passes the stats out-params (the traced run); --reference DIR
//       takes the SeqCover from an earlier process's out_dir instead of
//       running SeqDis + SeqCover (a further timing process of the same
//       run) and still judges this process's ParCover against it.
//   pbtool serve <dir> <rules.gfd> --graph G [--fragments N]
//           --spans FILE --trace FILE
//       The traced server. Initializes the store at <dir> from G
//       (GraphStore::Init, or Coordinator::Init with --fragments at
//       `gfdtool serve init`'s default halo radius), then wires it
//       exactly as `gfdtool serve run` does with its default options,
//       through a recording ServingStore and a span around each /ingest
//       Handle. Installs the program's TraceLog at FILE. Serves until
//       SIGTERM, then writes the spans it kept in memory to the --spans
//       file.
//   pbtool count <dir> <rules.gfd>
//       Full ViolationEngine::Detect on the store's materialized graph.
//   pbtool replay <graph.tsv> <dir> <batch.tsv>...
//       GraphStore::Init, then Append every batch in order; exits 1 at
//       the first rejected batch.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cover.h"
#include "core/seqdis.h"
#include "detect/engine.h"
#include "gfd/problems.h"
#include "gfd/serialize.h"
#include "graph/loader.h"
#include "net/feed_service.h"
#include "net/http_server.h"
#include "obs/trace.h"
#include "parallel/parcover.h"
#include "parallel/pardis.h"
#include "serve/changefeed.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "serve/metrics.h"
#include "serve/serving_store.h"
#include "util/timer.h"

using namespace gfd;

namespace {

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], flag)) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], flag)) return true;
  }
  return false;
}

size_t CountFlag(int argc, char** argv, const char* flag, size_t dflt) {
  const char* v = FlagValue(argc, argv, flag);
  return v ? std::strtoull(v, nullptr, 10) : dflt;
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

long PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += Num(v[i]);
  }
  return out + "]";
}

int BuildInfo() {
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  const char* sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
#else
  const char* sanitizer = "none";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "{\"build_type\":\"%s\",\"sanitizer\":\"%s\",\"ndebug\":%s,"
      "\"compiler\":\"%s\"}\n",
      PB_BUILD_TYPE, sanitizer, ndebug ? "true" : "false", __VERSION__);
  return 0;
}

// --- discover ---------------------------------------------------------------

// One GFD per line, sorted, with its support: the form in which ParDis
// and SeqDis outputs are compared (the test suite compares the same
// rendered multisets).
std::vector<std::string> RenderDiscovery(const DiscoveryResult& r,
                                         const PropertyGraph& g) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < r.positives.size(); ++i) {
    lines.push_back("P\t" + std::to_string(r.positive_supports[i]) + "\t" +
                    r.positives[i].ToString(g));
  }
  for (size_t i = 0; i < r.negatives.size(); ++i) {
    lines.push_back("N\t" + std::to_string(r.negative_supports[i]) + "\t" +
                    r.negatives[i].ToString(g));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> RenderCover(const std::vector<Gfd>& cover,
                                     const PropertyGraph& g) {
  std::vector<std::string> lines;
  for (const Gfd& phi : cover) lines.push_back(phi.ToString(g));
  std::sort(lines.begin(), lines.end());
  return lines;
}

bool WriteLines(const std::filesystem::path& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& l : lines) out << l << '\n';
  return static_cast<bool>(out);
}

// Mutual implication: each cover is implied by the other, the relation
// the ParCover tests assert.
bool CoversEquivalent(const std::vector<Gfd>& a, const std::vector<Gfd>& b) {
  for (const Gfd& phi : a) {
    if (!Implies(b, phi)) return false;
  }
  for (const Gfd& phi : b) {
    if (!Implies(a, phi)) return false;
  }
  return true;
}

int Discover(int argc, char** argv) {
  if (argc < 2) return 2;
  const std::filesystem::path out_dir = argv[1];
  const char* seconds = FlagValue(argc, argv, "--seconds");
  const double budget_s = seconds ? std::strtod(seconds, nullptr) : 0;
  const size_t min_reps = CountFlag(argc, argv, "--min-reps", 1);
  const bool with_stats = HasFlag(argc, argv, "--stats");
  const char* reference_dir = FlagValue(argc, argv, "--reference");

  WallTimer load_timer;
  std::string error;
  auto g = LoadGraphTsvFile(argv[0], &error);
  const double load_s = load_timer.Seconds();
  if (!g) {
    std::fprintf(stderr, "error loading %s: %s\n", argv[0], error.c_str());
    return 1;
  }
  // gfdtool discover's configuration at -w 4.
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = std::max<uint64_t>(10, g->NumNodes() / 100);
  ParallelRunConfig pcfg;
  pcfg.workers = 4;

  std::vector<double> total_s, pardis_s, parcover_s;
  std::vector<std::string> first_render, first_cover_render;
  std::vector<Gfd> first_cover;
  size_t rep_mismatches = 0;
  ClusterStats cluster;
  CoverStats cover_stats;
  DiscoveryStats dstats;
  size_t found = 0;
  // Repetition 0 warms caches and the allocator up and is not timed; its
  // outputs are the ones checked and written.
  WallTimer budget;
  while (first_render.empty() || total_s.size() < min_reps ||
         budget.Seconds() < budget_s) {
    ClusterStats cs;
    CoverStats cvs;
    WallTimer t;
    DiscoveryResult result =
        with_stats ? ParDis(*g, cfg, pcfg, &cs) : ParDis(*g, cfg, pcfg);
    const double dis = t.Seconds();
    std::vector<std::string> render = RenderDiscovery(result, *g);
    const DiscoveryStats rstats = result.stats;
    const size_t rfound = result.NumGfds();
    WallTimer c;
    std::vector<Gfd> cover =
        with_stats ? ParCover(std::move(result).AllGfds(), pcfg, &cvs)
                   : ParCover(std::move(result).AllGfds(), pcfg);
    const double cov = c.Seconds();
    std::vector<std::string> cover_render = RenderCover(cover, *g);
    if (first_render.empty()) {
      first_render = std::move(render);
      first_cover = std::move(cover);
      first_cover_render = std::move(cover_render);
      found = rfound;
      budget.Reset();
      continue;
    }
    if (render != first_render || cover_render != first_cover_render) {
      ++rep_mismatches;
    }
    pardis_s.push_back(dis);
    parcover_s.push_back(cov);
    total_s.push_back(dis + cov);
    if (total_s.size() == 1) {
      cluster = cs;
      cover_stats = cvs;
      dstats = rstats;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  bool ok = WriteLines(out_dir / "pardis.txt", first_render) &&
            WriteLines(out_dir / "parcover.txt", first_cover_render);

  // The sequential reference: run once per run, or read back from the
  // process that ran it.
  double seqdis_s = 0;
  double seqcover_s = 0;
  std::vector<Gfd> seq_cover;
  if (reference_dir) {
    const std::filesystem::path path =
        std::filesystem::path(reference_dir) / "seqcover.gfd";
    std::ifstream in(path);
    auto loaded = LoadGfds(in, *g, &error);
    if (!loaded) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    seq_cover = std::move(*loaded);
  } else {
    WallTimer s;
    DiscoveryResult seq = SeqDis(*g, cfg);
    seqdis_s = s.Seconds();
    ok = ok && WriteLines(out_dir / "seqdis.txt", RenderDiscovery(seq, *g));
    WallTimer sc;
    seq_cover = SeqCover(std::move(seq).AllGfds());
    seqcover_s = sc.Seconds();
    std::ofstream gfds(out_dir / "seqcover.gfd");
    SaveGfds(seq_cover, *g, gfds);
    ok = ok && static_cast<bool>(gfds) &&
         WriteLines(out_dir / "seqcover.txt", RenderCover(seq_cover, *g));
  }
  const bool cover_equivalent =
      first_cover_render == RenderCover(seq_cover, *g) ||
      CoversEquivalent(first_cover, seq_cover);
  {
    std::ofstream rules(out_dir / "rules.gfd");
    SaveGfds(first_cover, *g, rules);
    ok = ok && static_cast<bool>(rules);
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write discovery outputs to %s\n",
                 out_dir.c_str());
    return 1;
  }

  std::printf(
      "{\"load_s\":%s,\"discover_s\":%s,\"pardis_s\":%s,\"parcover_s\":%s,"
      "\"seqdis_s\":%s,\"seqcover_s\":%s,\"gfds\":%zu,\"cover\":%zu,"
      "\"rep_mismatches\":%zu,\"cover_equivalent\":%s,"
      "\"match_s\":%s,\"validate_s\":%s,\"max_skew\":%s,"
      "\"bytes_shipped\":%llu,\"candidates_validated\":%llu,"
      "\"positives\":%llu,\"negatives\":%llu,\"implication_tests\":%llu,"
      "\"peak_rss_kb\":%ld}\n",
      Num(load_s).c_str(), NumList(total_s).c_str(),
      NumList(pardis_s).c_str(), NumList(parcover_s).c_str(),
      Num(seqdis_s).c_str(), Num(seqcover_s).c_str(), found,
      first_cover.size(), rep_mismatches,
      cover_equivalent ? "true" : "false", Num(cluster.match_seconds).c_str(),
      Num(cluster.validate_seconds).c_str(), Num(cluster.max_skew).c_str(),
      static_cast<unsigned long long>(cluster.bytes_shipped),
      static_cast<unsigned long long>(dstats.candidates_validated),
      static_cast<unsigned long long>(dstats.positives_found),
      static_cast<unsigned long long>(dstats.negatives_found),
      static_cast<unsigned long long>(cover_stats.implication_tests),
      PeakRssKb());
  return 0;
}

// --- serve (traced) ---------------------------------------------------------

/// One recorded interval on the steady clock. `seq` is the batch the
/// span belongs to (0 = unknown); `value` carries a per-span count.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t seq;
  uint64_t value;
};

/// In-memory span sink; written out once when the run ends.
class SpanLog {
 public:
  void Add(Span s) {
    std::lock_guard lock(mu_);
    spans_.push_back(s);
  }

  bool WriteTo(const std::string& path, uint64_t trace_offset_ns) {
    std::lock_guard lock(mu_);
    std::ofstream out(path);
    out << "{\"name\":\"clock\",\"trace_offset_ns\":" << trace_offset_ns
        << "}\n";
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"seq\":" << s.seq
          << ",\"value\":" << s.value << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::mutex mu_;  // guards: spans_
  std::vector<Span> spans_;
};

// The batch the current thread's /ingest request is serving: set by the
// Handle span around an /ingest request and by AppendAndDiff once the
// seq is assigned, so the store spans after it carry that seq.
thread_local bool t_in_ingest = false;
thread_local uint64_t t_seq = 0;

/// Forwards every call to the real store and records a span around each
/// call the /ingest handler makes.
class RecordingStore final : public ServingStore {
 public:
  RecordingStore(ServingStore& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  std::optional<uint64_t> Append(std::string_view delta_tsv,
                                 std::string* error) override {
    return inner_.Append(delta_tsv, error);
  }

  std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts, uint64_t* seq_out,
      std::string* error) override {
    const uint64_t overlay_ops = inner_.MetricsSnapshot().overlay_ops;
    const uint64_t t0 = SteadyNowNs();
    uint64_t seq = 0;
    auto diff = inner_.AppendAndDiff(engine, delta_tsv, opts, &seq, error);
    if (seq_out) *seq_out = seq;
    if (t_in_ingest && diff) {
      t_seq = seq;
      log_.Add({"append_and_diff", t0, SteadyNowNs(), seq, overlay_ops});
    }
    return diff;
  }

  uint64_t last_seq() const override { return inner_.last_seq(); }

  ServingMetricsSnapshot MetricsSnapshot() const override {
    return inner_.MetricsSnapshot();
  }

  std::optional<uint64_t> violation_count(
      uint64_t fingerprint) const override {
    return inner_.violation_count(fingerprint);
  }

  bool SetViolationCount(uint64_t count, uint64_t fingerprint,
                         std::string* error) override {
    const uint64_t t0 = SteadyNowNs();
    bool ok = inner_.SetViolationCount(count, fingerprint, error);
    Record("meta_write", t0);
    return ok;
  }

  bool ShouldCompact() const override { return inner_.ShouldCompact(); }

  bool Compact(std::string* error) override { return inner_.Compact(error); }

  bool MaybeCompact(std::string* error) override {
    const uint64_t t0 = SteadyNowNs();
    bool ok = inner_.MaybeCompact(error);
    Record("maybe_compact", t0);
    return ok;
  }

  PropertyGraph MaterializeCurrent() const override {
    const uint64_t t0 = SteadyNowNs();
    PropertyGraph g = inner_.MaterializeCurrent();
    Record("materialize", t0);
    return g;
  }

 private:
  void Record(const char* name, uint64_t t0) const {
    if (t_in_ingest) log_.Add({name, t0, SteadyNowNs(), t_seq, 0});
  }

  ServingStore& inner_;
  SpanLog& log_;
};

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

int Serve(int argc, char** argv) {
  if (argc < 2) return 2;
  const std::string dir = argv[0];
  const char* graph_path = FlagValue(argc, argv, "--graph");
  const char* spans_path = FlagValue(argc, argv, "--spans");
  const char* trace_path = FlagValue(argc, argv, "--trace");
  if (!graph_path || !spans_path || !trace_path) return 2;
  const size_t fragments = CountFlag(argc, argv, "--fragments", 0);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);

  // The program's own trace, installed before the store opens exactly as
  // `serve run --trace` does. Its ts_ns count from the first
  // MonotonicNowNs call; the offset maps them onto the steady clock.
  std::string error;
  auto trace = obs::TraceLog::Open(trace_path, &error);
  if (!trace) {
    std::fprintf(stderr, "cannot open trace %s: %s\n", trace_path,
                 error.c_str());
    return 1;
  }
  const uint64_t trace_offset_ns = SteadyNowNs() - obs::MonotonicNowNs();
  obs::SetActiveTrace(trace.get());

  auto g = LoadGraphTsvFile(graph_path, &error);
  if (!g) {
    std::fprintf(stderr, "error loading %s: %s\n", graph_path, error.c_str());
    return 1;
  }
  WallTimer init_timer;
  const bool inited =
      fragments ? Coordinator::Init(dir, *g, fragments, /*radius=*/3, &error)
                : GraphStore::Init(dir, *g, &error);
  const double init_s = init_timer.Seconds();
  if (!inited) {
    std::fprintf(stderr, "init failed: %s\n", error.c_str());
    return 1;
  }
  g.reset();

  // From here on: gfdtool serve run's wiring, default options.
  GraphStoreOptions sopts;
  std::optional<GraphStore> store;
  std::optional<Coordinator> coord;
  ServingStore* serving = nullptr;
  const char* backend = nullptr;
  if (fragments) {
    CoordinatorOptions copts;
    copts.store = sopts;
    coord = Coordinator::Open(dir, copts, &error);
    serving = coord ? &*coord : nullptr;
    backend = "distributed";
  } else {
    store = GraphStore::Open(dir, sopts, &error);
    serving = store ? &*store : nullptr;
    backend = "single";
  }
  if (!serving) {
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    return 1;
  }
  ExportSnapshotMetrics(serving->MetricsSnapshot());

  PropertyGraph current = serving->MaterializeCurrent();
  std::ifstream rules_in(argv[1]);
  size_t skipped = 0;
  auto rules = LoadGfdsLenient(rules_in, current, &skipped);
  if (rules.empty()) {
    std::fprintf(stderr, "%s: no loadable rules\n", argv[1]);
    return 1;
  }
  ViolationEngine engine(std::move(rules));
  auto feed = ViolationChangefeed::Open(dir, serving->last_seq(), &error);
  if (!feed) {
    std::fprintf(stderr, "error opening feed log: %s\n", error.c_str());
    return 1;
  }

  SpanLog spans;
  RecordingStore recording(*serving, spans);
  net::FeedServiceOptions fopts;
  fopts.backend = backend;
  net::FeedService service(recording, engine, *feed, fopts);
  WallTimer prime_timer;
  uint64_t count = service.Prime();
  const double prime_s = prime_timer.Seconds();

  net::HttpServerOptions hopts;
  hopts.bind_address = "127.0.0.1";
  hopts.port = 0;
  auto server = net::HttpServer::Start(
      hopts,
      [&service, &spans](const net::HttpRequest& req, net::ResponseWriter& w) {
        if (req.path != "/ingest") {
          service.Handle(req, w);
          return;
        }
        t_in_ingest = true;
        t_seq = 0;
        const uint64_t t0 = SteadyNowNs();
        service.Handle(req, w);
        spans.Add({"handle", t0, SteadyNowNs(), t_seq, 0});
        t_in_ingest = false;
      },
      &error);
  if (!server) {
    std::fprintf(stderr, "error starting server: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "init_s %s prime_s %s violations %llu\n"
               "serving %s (%s backend, %zu rule(s)) on http://127.0.0.1:%u\n",
               Num(init_s).c_str(), Num(prime_s).c_str(),
               static_cast<unsigned long long>(count), dir.c_str(), backend,
               engine.NumRules(), static_cast<unsigned>(server->port()));

  while (!g_stop) std::this_thread::sleep_for(std::chrono::milliseconds(50));

  feed->Shutdown();
  server->Stop();
  obs::SetActiveTrace(nullptr);
  if (!spans.WriteTo(spans_path, trace_offset_ns)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path);
    return 1;
  }
  std::fprintf(stderr, "stopped at seq %llu\n",
               static_cast<unsigned long long>(serving->last_seq()));
  return 0;
}

// --- count / replay ---------------------------------------------------------

int Count(int argc, char** argv) {
  if (argc < 2) return 2;
  std::string error;
  std::optional<GraphStore> store;
  std::optional<Coordinator> coord;
  ServingStore* serving = nullptr;
  if (std::filesystem::exists(std::string(argv[0]) + "/coordinator.meta")) {
    coord = Coordinator::Open(argv[0], {}, &error);
    serving = coord ? &*coord : nullptr;
  } else {
    store = GraphStore::Open(argv[0], {}, &error);
    serving = store ? &*store : nullptr;
  }
  if (!serving) {
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    return 1;
  }
  PropertyGraph current = serving->MaterializeCurrent();
  std::ifstream rules_in(argv[1]);
  size_t skipped = 0;
  ViolationEngine engine(LoadGfdsLenient(rules_in, current, &skipped));
  DetectOptions full;
  full.workers = 4;
  std::printf("{\"seq\":%llu,\"violations\":%zu}\n",
              static_cast<unsigned long long>(serving->last_seq()),
              engine.Detect(current, full).violations.size());
  return 0;
}

int Replay(int argc, char** argv) {
  if (argc < 2) return 2;
  std::string error;
  auto g = LoadGraphTsvFile(argv[0], &error);
  if (!g || !GraphStore::Init(argv[1], *g, &error)) {
    std::fprintf(stderr, "init failed: %s\n", error.c_str());
    return 1;
  }
  auto store = GraphStore::Open(argv[1], {}, &error);
  if (!store) {
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    return 1;
  }
  for (int i = 2; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    std::ostringstream batch;
    batch << in.rdbuf();
    if (!in || !store->Append(batch.str(), &error)) {
      std::fprintf(stderr, "%s: rejected: %s\n", argv[i], error.c_str());
      return 1;
    }
  }
  std::printf("{\"appended\":%d}\n", argc - 2);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbtool buildinfo|discover|serve|count|replay"
                         " ...\n");
    return 2;
  }
  const std::string verb = argv[1];
  int rc = 2;
  if (verb == "buildinfo") rc = BuildInfo();
  if (verb == "discover") rc = Discover(argc - 2, argv + 2);
  if (verb == "serve") rc = Serve(argc - 2, argv + 2);
  if (verb == "count") rc = Count(argc - 2, argv + 2);
  if (verb == "replay") rc = Replay(argc - 2, argv + 2);
  if (rc == 2) std::fprintf(stderr, "pbtool: bad arguments for %s\n", argv[1]);
  return rc;
}
