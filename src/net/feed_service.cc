#include "net/feed_service.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string_view>
#include <vector>

#include "gfd/serialize.h"
#include "net/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "util/tsv.h"

namespace gfd::net {

namespace {

const char* VerdictName(DeltaVerdict v) {
  switch (v) {
    case DeltaVerdict::kClean:
      return "clean";
    case DeltaVerdict::kAddedViolations:
      return "added-violations";
    case DeltaVerdict::kPreexistingOnly:
      return "preexisting-only";
  }
  return "?";
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename T>
std::optional<T> ParseNumber(std::string_view s) {
  T value{};
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

HttpResponse Plain(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

HttpResponse Json(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

/// The ?rule= / ?label= / ?pivot= selection of one /feed stream.
struct FeedFilter {
  std::optional<uint32_t> rule;
  std::optional<uint64_t> pivot;
  std::optional<std::string> label;

  bool active() const { return rule || pivot || label; }
  bool Matches(const FeedLine& line) const {
    if (rule && line.rule != *rule) return false;
    if (pivot && line.pivot != *pivot) return false;
    if (label && line.pivot_label != *label) return false;
    return true;
  }
};

void AppendLineJson(const FeedLine& line, std::string* out) {
  *out += "{\"rule\":" + std::to_string(line.rule) +
          ",\"pivot\":" + std::to_string(line.pivot) + ",\"node\":\"" +
          JsonEscape(line.pivot_name) + "\",\"label\":\"" +
          JsonEscape(line.pivot_label) + "\",\"desc\":\"" +
          JsonEscape(line.description) + "\"}";
}

/// Renders one feed event as an SSE frame, applying `filter` per line.
/// Returns nullopt when every line was filtered out (the caller skips
/// the event entirely rather than emitting an empty diff).
std::optional<std::string> RenderEvent(const FeedEvent& ev,
                                       const FeedFilter& filter) {
  std::string added, removed;
  size_t kept = 0;
  size_t begin = 0;
  while (begin < ev.payload.size()) {
    size_t end = ev.payload.find('\n', begin);
    if (end == std::string::npos) end = ev.payload.size();
    std::string_view raw(ev.payload.data() + begin, end - begin);
    begin = end + 1;
    auto line = ParseFeedLine(raw);
    if (!line || !filter.Matches(*line)) continue;
    std::string* side = line->added ? &added : &removed;
    if (!side->empty()) *side += ",";
    AppendLineJson(*line, side);
    ++kept;
  }
  if (filter.active() && kept == 0) return std::nullopt;
  std::string frame = "event: diff\nid: " + std::to_string(ev.seq) +
                      "\ndata: {\"seq\":" + std::to_string(ev.seq) +
                      ",\"added\":[" + added + "],\"removed\":[" + removed +
                      "]}\n\n";
  return frame;
}

}  // namespace

FeedService::FeedService(ServingStore& store, const ViolationEngine& engine,
                         ViolationChangefeed& feed, FeedServiceOptions opts)
    : store_(store),
      engine_(engine),
      feed_(feed),
      opts_(std::move(opts)),
      limiter_({.rate_per_sec = opts_.ingest_rate_per_sec,
                .burst = opts_.ingest_burst}) {}

uint64_t FeedService::Prime(PrimeReport* report) {
  std::lock_guard lock(store_mu_);
  TouchServeMetrics();
  TouchNetMetrics();
  PropertyGraph g = store_.MaterializeCurrent();
  fingerprint_ = RuleSetFingerprint(engine_.rules(), g);
  PrimeReport out;
  LevelFeed(&out);
  if (auto persisted = store_.violation_count(fingerprint_)) {
    count_ = *persisted;
    out.source = CountSource::kMeta;
  } else if (auto fed = feed_.last_count();
             fed && fed->seq == store_.last_seq() &&
             fed->fingerprint == fingerprint_) {
    count_ = fed->count;
    out.source = CountSource::kFeed;
  } else {
    DetectOptions full;
    full.workers = opts_.detect_workers;
    count_ = engine_.Detect(g, full).violations.size();
    std::string err;
    if (!store_.SetViolationCount(count_, fingerprint_, &err)) {
      std::fprintf(stderr, "warning: could not persist counter: %s\n",
                   err.c_str());
    }
  }
  ViolationsRunning().Set(static_cast<double>(count_));
  if (report) *report = out;
  primed_ = true;
  return count_;
}

void FeedService::LevelFeed(PrimeReport* report) {
  const uint64_t s = store_.last_seq();
  const bool empty = feed_.empty();
  // Where the feed ends and the running count there, which a catch-up
  // carries forward.
  const std::optional<MetaCount> from =
      empty ? store_.persisted_count() : feed_.last_count();
  const uint64_t f = empty ? (from ? from->seq : s) : feed_.last_seq();
  if (f == s && feed_.last_seq() == s) return;
  std::string error;
  const bool bridged = f < s && from && from->seq == f &&
                       from->fingerprint == fingerprint_ &&
                       store_.MetricsSnapshot().anchor_seq <= f;
  if (bridged) {
    obs::ScopedTimer timer(nullptr, "feed_catchup", {{"from", f}, {"to", s}});
    IncrementalOptions iopts;
    iopts.workers = opts_.detect_workers;
    uint64_t count = from->count;
    auto publish = [&](uint64_t seq, IncrementalDiff diff) {
      count = count + diff.added.size() - diff.removed.size();
      if (!feed_.Publish(seq, std::move(diff.payload),
                         MetaCount{count, seq, fingerprint_}, &error)) {
        return false;
      }
      FeedRederivedTotal().Inc();
      ++report->caught_up;
      return true;
    };
    if ((!empty || feed_.Reset(f, &error)) &&
        store_.Restep(engine_, f, publish, iopts, &error)) {
      return;
    }
    timer.Discard();
    report->caught_up = 0;  // the reset below drops what it published
    std::fprintf(stderr, "warning: feed catch-up failed: %s\n", error.c_str());
  }
  // The log cannot bridge the gap, or the feed is ahead of the store:
  // restart the feed at the store's seq. A feed that held no record
  // drops nothing.
  if (feed_.empty() && feed_.last_seq() == s) return;
  const bool drops = !feed_.empty();
  if (!feed_.Reset(s, &error)) {
    std::fprintf(stderr, "warning: feed reset failed: %s\n", error.c_str());
    return;
  }
  report->feed_reset = drops;
}

bool FeedService::Checkpoint(std::string* error) {
  std::lock_guard lock(store_mu_);
  return !primed_ || store_.SetViolationCount(count_, fingerprint_, error);
}

uint64_t FeedService::violation_count() const {
  std::lock_guard lock(store_mu_);
  return count_;
}

void FeedService::Handle(const HttpRequest& req, ResponseWriter& w) {
  auto t0 = std::chrono::steady_clock::now();
  if (req.path == "/ingest") {
    HttpRequestsTotal("/ingest").Inc();
    Ingest(req, w);
  } else if (req.path == "/feed") {
    HttpRequestsTotal("/feed").Inc();
    Feed(req, w);
    return;  // open-ended stream: excluded from the latency histogram
  } else if (req.path == "/metrics") {
    HttpRequestsTotal("/metrics").Inc();
    if (req.method != "GET") {
      w.Respond(Plain(405, "method not allowed\n"));
    } else {
      Metrics(w);
    }
  } else if (req.path == "/status") {
    HttpRequestsTotal("/status").Inc();
    if (req.method != "GET") {
      w.Respond(Plain(405, "method not allowed\n"));
    } else {
      Status(w);
    }
  } else {
    HttpRequestsTotal("other").Inc();
    w.Respond(Plain(404, "no such endpoint (have: /ingest /feed /metrics "
                         "/status)\n"));
  }
  HttpRequestLatency().Observe(SecondsSince(t0));
}

void FeedService::Ingest(const HttpRequest& req, ResponseWriter& w) {
  if (req.method != "POST") {
    w.Respond(Plain(405, "POST a TSV delta batch to /ingest\n"));
    return;
  }
  if (!limiter_.Admit(w.client_host())) {
    IngestRateLimitedTotal().Inc();
    w.Respond(Plain(429, "rate limited\n"));
    return;
  }
  if (req.body.empty()) {
    w.Respond(Plain(400, "empty delta batch\n"));
    return;
  }

  std::lock_guard lock(store_mu_);
  if (!primed_) {
    w.Respond(Plain(503, "server not primed\n"));
    return;
  }
  // A feed that a failed publish left behind the store is levelled
  // first, as Prime levels it, so this batch's record follows on. A feed
  // shut down for a graceful stop stays as it is, for the restart to
  // catch up.
  if (feed_.last_seq() < store_.last_seq() && !feed_.shut_down()) {
    PrimeReport level;
    LevelFeed(&level);
    if (level.feed_reset) {
      std::fprintf(stderr, "warning: feed reset to seq %llu\n",
                   static_cast<unsigned long long>(feed_.last_seq()));
    }
  }
  IncrementalOptions iopts;
  iopts.workers = opts_.detect_workers;
  std::string error;
  auto step = ServeStep(store_, engine_, req.body, count_, iopts, &error);
  if (!step) {
    // Either the store rejected the batch (422), or it was valid but its
    // record's write or fsync failed, a server fault (500). Either way
    // nothing of it is in the log: a failed record is retracted.
    const int status = error.starts_with(kNotDurableError) ? 500 : 422;
    w.Respond(Json(status, "{\"error\":\"" + JsonEscape(error) + "\"}\n"));
    return;
  }
  const IncrementalDiff& diff = step->diff;
  count_ = step->count;
  groups_scanned_ += diff.stats.groups_scanned;

  // The serving step rendered the payload against the post-batch state,
  // so feed replay never needs historical graph state. The record also
  // carries the new count. It is not fsync'd: the store's log append
  // above is the ack's durable write, and Prime re-derives a lost record
  // from it; a record that failed here, the next batch's levelling. Such
  // a batch does not compact, which would drop it from the log that
  // levelling reads; the next batch compacts instead.
  if (!feed_.Publish(step->seq, std::move(step->diff.payload),
                     MetaCount{count_, step->seq, fingerprint_}, &error)) {
    std::fprintf(stderr, "warning: feed publish failed: %s\n", error.c_str());
  } else if (!store_.MaybeCompact(&error)) {
    std::fprintf(stderr, "warning: compaction failed: %s\n", error.c_str());
  }

  w.Respond(Json(
      200, "{\"seq\":" + std::to_string(step->seq) +
               ",\"added\":" + std::to_string(diff.added.size()) +
               ",\"removed\":" + std::to_string(diff.removed.size()) +
               ",\"violations\":" + std::to_string(count_) +
               ",\"verdict\":\"" + VerdictName(step->verdict) + "\"}\n"));
}

void FeedService::Feed(const HttpRequest& req, ResponseWriter& w) {
  if (req.method != "GET") {
    w.Respond(Plain(405, "method not allowed\n"));
    return;
  }
  uint64_t cursor = 0;
  FeedFilter filter;
  size_t max_events = 0;
  if (auto v = req.QueryParam("cursor")) {
    auto parsed = ParseNumber<uint64_t>(*v);
    if (!parsed) {
      w.Respond(Plain(400, "bad cursor\n"));
      return;
    }
    cursor = *parsed;
  }
  if (auto v = req.QueryParam("rule")) {
    auto parsed = ParseNumber<uint32_t>(*v);
    if (!parsed) {
      w.Respond(Plain(400, "bad rule\n"));
      return;
    }
    filter.rule = *parsed;
  }
  if (auto v = req.QueryParam("pivot")) {
    auto parsed = ParseNumber<uint64_t>(*v);
    if (!parsed) {
      w.Respond(Plain(400, "bad pivot\n"));
      return;
    }
    filter.pivot = *parsed;
  }
  if (auto v = req.QueryParam("label")) filter.label = *v;
  if (auto v = req.QueryParam("max_events")) {
    auto parsed = ParseNumber<size_t>(*v);
    if (!parsed) {
      w.Respond(Plain(400, "bad max_events\n"));
      return;
    }
    if (*parsed == 0) {
      // 0 used to silently mean "unlimited" (the no-param default); an
      // explicit cap of zero events is a client bug, not a request.
      w.Respond(Plain(400, "max_events must be >= 1 (omit for an "
                           "unbounded stream)\n"));
      return;
    }
    max_events = *parsed;
  }

  std::vector<FeedEvent> replay;
  auto sub = feed_.Subscribe(cursor, opts_.subscriber_queue_cap, &replay);
  if (!w.BeginStream(200, "text/event-stream")) {
    feed_.Unsubscribe(sub);
    return;
  }
  FeedSubscribers().Add(1);

  size_t emitted = 0;
  bool alive = true;
  auto emit = [&](const FeedEvent& ev) {
    auto frame = RenderEvent(ev, filter);
    if (!frame) return;  // fully filtered out
    if (!w.Write(*frame)) {
      alive = false;
      return;
    }
    FeedEventsTotal().Inc();
    ++emitted;
  };

  for (const FeedEvent& ev : replay) {
    if (!alive || (max_events && emitted >= max_events)) break;
    emit(ev);
  }
  FeedEvent ev;
  while (alive && !(max_events && emitted >= max_events)) {
    switch (sub->Next(&ev, opts_.heartbeat_ms)) {
      case FeedSubscription::Wait::kEvent:
        emit(ev);
        break;
      case FeedSubscription::Wait::kTimeout:
        // Heartbeat: keeps the stream warm and surfaces dead clients.
        alive = w.Write(": keepalive\n\n");
        break;
      case FeedSubscription::Wait::kEvicted:
        w.Write("event: evicted\ndata: {\"reason\":\"slow consumer\"}\n\n");
        alive = false;
        break;
      case FeedSubscription::Wait::kClosed:
        alive = false;
        break;
    }
  }
  FeedSubscribers().Add(-1);
  feed_.Unsubscribe(sub);
}

void FeedService::Metrics(ResponseWriter& w) {
  {
    std::lock_guard lock(store_mu_);
    ExportSnapshotMetrics(store_.MetricsSnapshot());
  }
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4";
  resp.body = obs::MetricsRegistry::Default().RenderPrometheusText();
  w.Respond(resp);
}

void FeedService::Status(ResponseWriter& w) {
  ServingMetricsSnapshot snap;
  uint64_t count;
  uint64_t scanned;
  {
    std::lock_guard lock(store_mu_);
    snap = store_.MetricsSnapshot();
    count = count_;
    scanned = groups_scanned_;
  }
  std::string body =
      "{\"seq\":" + std::to_string(snap.last_seq) +
      ",\"backend\":\"" + JsonEscape(opts_.backend) + "\"" +
      ",\"fragments\":" + std::to_string(snap.fragments) +
      ",\"anchor_seq\":" + std::to_string(snap.anchor_seq) +
      ",\"overlay_ops\":" + std::to_string(snap.overlay_ops) +
      ",\"compactions\":" + std::to_string(snap.compactions) +
      ",\"violations\":" + std::to_string(count) +
      ",\"groups_scanned\":" + std::to_string(scanned) +
      ",\"feed_seq\":" + std::to_string(feed_.last_seq()) +
      ",\"subscribers\":" + std::to_string(feed_.subscriber_count()) +
      ",\"evictions\":" + std::to_string(feed_.evictions()) + "}\n";
  w.Respond(Json(200, std::move(body)));
}

}  // namespace gfd::net
