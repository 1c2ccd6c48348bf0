// The HTTP surface of the violation changefeed server: routes the four
// endpoints of `gfdtool serve run` onto one ServingStore plus one
// ViolationChangefeed.
//
//   POST /ingest   one TSV delta batch -> AppendAndDiff -> publish the
//                  diff, with the running violation count, to the feed;
//                  responds with seq + diff summary.
//                  Validation failures are 4xx and nothing reaches the
//                  log. Per-client token-bucket rate limiting (429).
//   GET  /feed     SSE stream of per-batch violation diffs. ?cursor=<seq>
//                  replays every durable record after <seq> before going
//                  live; ?rule= / ?label= / ?pivot= filter; ?max_events=
//                  closes the stream after N events (scripting aid).
//   GET  /metrics  live Prometheus text (obs registry + store snapshot).
//   GET  /status   JSON summary: seq, backend, fragments, counters.
//
// Concurrency: ServingStore is not thread-safe, so every store touch --
// ingest, and the snapshot reads of /status and /metrics -- serializes
// through one mutex; that same mutex makes this process the single
// writer and keeps feed publishes in batch order. Feed subscribers never
// take it: they read the durable feed log and their own bounded queues.
#ifndef GFD_NET_FEED_SERVICE_H_
#define GFD_NET_FEED_SERVICE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "detect/engine.h"
#include "net/http_server.h"
#include "net/rate_limiter.h"
#include "serve/changefeed.h"
#include "serve/serving_store.h"

namespace gfd::net {

struct FeedServiceOptions {
  /// Worker threads handed to detection (AppendAndDiff, seeding scan).
  size_t detect_workers = 1;
  /// Live-queue bound per subscriber; a publish that overflows it
  /// evicts the subscriber (slow-consumer disconnect).
  size_t subscriber_queue_cap = 256;
  /// Heartbeat period for idle feed streams (an SSE comment line; also
  /// how fast a dead client is noticed).
  int64_t heartbeat_ms = 5000;
  /// /ingest token bucket per client host. 0 = unlimited.
  double ingest_rate_per_sec = 0;
  double ingest_burst = 8;
  /// Reported by /status ("single" | "distributed").
  std::string backend = "single";
};

/// Where Prime found the running violation count.
enum class CountSource {
  kMeta,  ///< the store's meta, current at its seq
  kFeed,  ///< the count line of the feed's last record
  kScan,  ///< one full Detect (then persisted in the meta)
};

class FeedService {
 public:
  /// Does not take ownership; `store`, `engine`, and `feed` must outlive
  /// the service (and the HttpServer dispatching into it).
  FeedService(ServingStore& store, const ViolationEngine& engine,
              ViolationChangefeed& feed, FeedServiceOptions opts);

  /// Seeds the running violation counter under the served rules: the
  /// meta's count when current, else the feed's last record's when that
  /// record is at exactly the store's seq, else one full startup scan
  /// (`*source` reports which). Must be called once before serving.
  uint64_t Prime(CountSource* source = nullptr);

  /// Persists the running count in the store's meta at the store's seq,
  /// so one-shot CLI runs after a graceful stop need no scan. Call once
  /// ingest has stopped; a no-op before Prime.
  bool Checkpoint(std::string* error = nullptr);

  /// The HttpHandler: dispatches one request to its endpoint.
  void Handle(const HttpRequest& req, ResponseWriter& w);

  uint64_t violation_count() const;

 private:
  void Ingest(const HttpRequest& req, ResponseWriter& w);
  void Feed(const HttpRequest& req, ResponseWriter& w);
  void Metrics(ResponseWriter& w);
  void Status(ResponseWriter& w);

  ServingStore& store_;
  const ViolationEngine& engine_;
  ViolationChangefeed& feed_;
  FeedServiceOptions opts_;
  TokenBucketLimiter limiter_;

  /// Single-writer enforcement. guards: every ServingStore call on
  /// store_, plus fingerprint_, count_, primed_, groups_scanned_,
  /// groups_skipped_. Publish happens inside it so feed order == batch
  /// order.
  mutable std::mutex store_mu_;
  uint64_t fingerprint_ = 0;
  uint64_t count_ = 0;
  bool primed_ = false;
  /// Running footprint-gate totals across batches, for /status.
  uint64_t groups_scanned_ = 0;
  uint64_t groups_skipped_ = 0;
};

}  // namespace gfd::net

#endif  // GFD_NET_FEED_SERVICE_H_
