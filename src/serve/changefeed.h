// Durable, subscribable violation changefeed -- the fan-out half of the
// serving loop (the HTTP surface over it lives in src/net/, which this
// layer knows nothing about).
//
// Every accepted batch produces one feed record whose sequence number IS
// the store's batch sequence number and whose payload is the batch's
// violation diff, serialized against the post-batch state (so replay
// never needs historical graph state). The serving step renders it: the
// last thing ServingStore::AppendAndDiff does is SerializeDiffPayload
// over the store's live post-batch view (the master's global view on a
// coordinator) into IncrementalDiff::payload, and the publisher appends
// that string. That is the state a materialization taken just before
// publish would hold, so the bytes equal what rendering against
// MaterializeCurrent() gives, without the per-batch O(|G|) copy.
// Records live in a second DeltaLog, `<dir>/feed.log`, so a
// subscriber cursor is a durable, replayable position: reconnecting at
// cursor C first replays every record with seq > C straight out of the
// log, then switches to the live stream -- registration and the replay
// snapshot happen under one mutex, so no event is missed or duplicated
// in between.
//
// Backpressure: each subscription owns a bounded queue. A publish that
// finds the queue full marks the subscription evicted and drops it --
// a slow consumer is disconnected rather than allowed to stall ingest
// or buffer unboundedly; it reconnects with its last seen cursor and
// replays from durable state.
//
// Payload format (one TSV line per violation, util/tsv.h escaping):
//
//   <A|R> \t <rule-index> \t <pivot-id> \t <pivot-name> \t
//   <pivot-label> \t <description>
//
// "A" = violation added by the batch, "R" = removed. An empty payload is
// a batch that changed no violation.
#ifndef GFD_SERVE_CHANGEFEED_H_
#define GFD_SERVE_CHANGEFEED_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "detect/engine.h"
#include "graph/graph_view.h"
#include "serve/delta_log.h"

namespace gfd {

/// One feed record: the violation diff of batch `seq`.
struct FeedEvent {
  uint64_t seq = 0;
  std::string payload;

  friend bool operator==(const FeedEvent&, const FeedEvent&) = default;
};

/// Serializes one batch's diff into the feed payload format above.
/// Everything resolves through `view` (the post-batch state): evidence
/// names post-update attribute values, and rule text may name
/// vocabulary that exists only in the view's overlay.
std::string SerializeDiffPayload(const GraphView& view,
                                 std::span<const Gfd> rules,
                                 const IncrementalDiff& diff);

/// One parsed payload line (the unit the net layer filters on).
struct FeedLine {
  bool added = false;  ///< true for "A", false for "R"
  uint32_t rule = 0;
  uint64_t pivot = 0;
  std::string pivot_name;
  std::string pivot_label;
  std::string description;
};

/// Parses one line of a feed payload. Returns nullopt on malformed
/// input (a foreign feed.log; callers skip the line).
std::optional<FeedLine> ParseFeedLine(std::string_view line);

/// A subscriber's end of the feed: a bounded queue of live events.
/// Handed out as shared_ptr; thread-safe against the publisher.
class FeedSubscription {
 public:
  enum class Wait {
    kEvent,    ///< *out holds the next event
    kTimeout,  ///< nothing arrived within the deadline (heartbeat tick)
    kEvicted,  ///< queue overflowed; reconnect with the last seen cursor
    kClosed,   ///< feed shut down
  };

  /// Blocks up to `timeout_ms` for the next live event.
  Wait Next(FeedEvent* out, int64_t timeout_ms);

 private:
  friend class ViolationChangefeed;

  std::mutex mu_;  // guards: queue_, cursor_, evicted_, closed_
  std::condition_variable cv_;
  std::deque<FeedEvent> queue_;
  size_t cap_ = 0;  ///< set once before the subscription is shared
  uint64_t cursor_ = 0;  ///< live events at or below this are skipped
  bool evicted_ = false;
  bool closed_ = false;
};

/// The process-wide feed: one durable log + the live subscriber set.
/// Single publisher (the ingest path, already serialized through the
/// store mutex); any number of subscriber threads.
class ViolationChangefeed {
 public:
  /// Opens (or creates) `<dir>/feed.log`. The feed must continue exactly
  /// at the store's sequence: when an existing log would not assign
  /// store_last_seq+1 next -- a batch was accepted while the feed was
  /// not recording, so its diff is unrecoverable -- the log is reset and
  /// restarted at store_last_seq+1. The gap is client-visible (event
  /// seqs jump), never silently misnumbered.
  static std::unique_ptr<ViolationChangefeed> Open(
      const std::string& dir, uint64_t store_last_seq,
      std::string* error = nullptr);

  /// Highest published (or recovered) sequence; 0 when empty.
  uint64_t last_seq() const;

  /// True when the log was reset on Open (see above).
  bool reset_on_open() const { return reset_on_open_; }

  /// Durably appends the diff payload of batch `seq` (which must be the
  /// next sequence), then fans it out to every live subscription.
  /// Subscriptions whose queue is full are evicted here.
  bool Publish(uint64_t seq, std::string payload,
               std::string* error = nullptr);

  /// Registers a subscriber at `cursor`: `replay` receives every durable
  /// record with seq > cursor (in order), and the returned subscription
  /// sees every event published afterwards -- the two are contiguous
  /// because both happen under the feed mutex. `queue_cap` bounds the
  /// live queue (the backpressure knob); replay is not subject to it,
  /// the caller drains it at its own pace.
  std::shared_ptr<FeedSubscription> Subscribe(uint64_t cursor,
                                              size_t queue_cap,
                                              std::vector<FeedEvent>* replay);

  /// Drops one subscription (idempotent; evicted ones drop themselves).
  void Unsubscribe(const std::shared_ptr<FeedSubscription>& sub);

  /// Closes every subscription and wakes all waiters; further publishes
  /// are rejected. Called by the server on graceful shutdown.
  void Shutdown();

  size_t subscriber_count() const;
  uint64_t evictions() const;
  const std::string& path() const { return log_->path(); }

 private:
  ViolationChangefeed() = default;

  // guards: log_, subs_, shutdown_, evictions_ (reset_on_open_ is set
  // once in Open before the feed is shared)
  mutable std::mutex mu_;
  std::optional<DeltaLog> log_;
  std::vector<std::shared_ptr<FeedSubscription>> subs_;
  bool reset_on_open_ = false;
  bool shutdown_ = false;
  uint64_t evictions_ = 0;
};

}  // namespace gfd

#endif  // GFD_SERVE_CHANGEFEED_H_
