// Violation changefeed server: HTTP/1.1 parser table tests (truncated,
// oversized, bad chunking), the per-client token bucket under a manual
// clock, durable cursor semantics -- a reconnecting subscriber's replay
// must equal the uninterrupted live stream, both matching the diffs
// AppendAndDiff reports directly -- slow-consumer eviction, concurrent
// ingest+subscribe, and a socket-level end-to-end pass over every
// endpoint of the FeedService.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "gfd/serialize.h"
#include "graph/loader.h"
#include "net/feed_service.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/rate_limiter.h"
#include "serve/changefeed.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "testlib.h"
#include "util/rng.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;
using net::HttpLimits;
using net::HttpParser;
using net::HttpRequest;
using net::ParseStatus;
using testing::DeltaBytes;
using testing::RandomBatch;

std::string Scratch(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gfd_" + name;
  fs::remove_all(dir);
  return dir;
}

// --- HTTP parser -----------------------------------------------------------

TEST(HttpParser, SimpleGetRequest) {
  HttpParser p{HttpLimits{}};
  ASSERT_EQ(p.Consume("GET /status HTTP/1.1\r\nHost: x\r\n\r\n"),
            ParseStatus::kOk);
  HttpRequest req = p.TakeRequest();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/status");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.Header("host"), nullptr);
  EXPECT_EQ(*req.Header("host"), "x");
}

TEST(HttpParser, QueryStringAndPercentDecoding) {
  HttpParser p{HttpLimits{}};
  ASSERT_EQ(
      p.Consume("GET /feed?cursor=7&label=a%20b+c&flag HTTP/1.1\r\n\r\n"),
      ParseStatus::kOk);
  HttpRequest req = p.TakeRequest();
  EXPECT_EQ(req.path, "/feed");
  ASSERT_NE(req.QueryParam("cursor"), nullptr);
  EXPECT_EQ(*req.QueryParam("cursor"), "7");
  ASSERT_NE(req.QueryParam("label"), nullptr);
  EXPECT_EQ(*req.QueryParam("label"), "a b c");
  ASSERT_NE(req.QueryParam("flag"), nullptr);
  EXPECT_EQ(*req.QueryParam("flag"), "");
  EXPECT_EQ(req.QueryParam("missing"), nullptr);
}

TEST(HttpParser, BodyArrivingByteByByte) {
  HttpParser p{HttpLimits{}};
  std::string raw =
      "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  ParseStatus st = ParseStatus::kIncomplete;
  for (char c : raw) st = p.Consume(std::string_view(&c, 1));
  ASSERT_EQ(st, ParseStatus::kOk);
  EXPECT_EQ(p.TakeRequest().body, "hello");
}

TEST(HttpParser, ChunkedBody) {
  HttpParser p{HttpLimits{}};
  ASSERT_EQ(p.Consume("POST /ingest HTTP/1.1\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n"
                      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"),
            ParseStatus::kOk);
  EXPECT_EQ(p.TakeRequest().body, "Wikipedia");
}

TEST(HttpParser, PipelinedRequestsCompleteInTurn) {
  HttpParser p{HttpLimits{}};
  ASSERT_EQ(p.Consume("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            ParseStatus::kOk);
  EXPECT_EQ(p.TakeRequest().path, "/a");
  ASSERT_EQ(p.Consume({}), ParseStatus::kOk);
  EXPECT_EQ(p.TakeRequest().path, "/b");
  EXPECT_EQ(p.Consume({}), ParseStatus::kIncomplete);
}

TEST(HttpParser, KeepAliveNegotiation) {
  struct Case {
    const char* raw;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    HttpParser p{HttpLimits{}};
    ASSERT_EQ(p.Consume(c.raw), ParseStatus::kOk) << c.raw;
    EXPECT_EQ(p.TakeRequest().keep_alive, c.keep_alive) << c.raw;
  }
}

TEST(HttpParser, EveryTruncationStaysIncomplete) {
  // No prefix of a valid request may be rejected: a slow client is not
  // a protocol error.
  const std::string raw =
      "POST /ingest?cursor=3 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  for (size_t cut = 0; cut < raw.size(); ++cut) {
    HttpParser p{HttpLimits{}};
    EXPECT_EQ(p.Consume(raw.substr(0, cut)), ParseStatus::kIncomplete)
        << "prefix of " << cut << " bytes";
  }
  HttpParser p{HttpLimits{}};
  EXPECT_EQ(p.Consume(raw), ParseStatus::kOk);
}

TEST(HttpParser, MalformedRequestsAreBad) {
  const char* cases[] = {
      "GARBAGE\r\n\r\n",
      "GET /x SPDY/3\r\n\r\n",
      "GET  HTTP/1.1\r\n\r\n",
      "GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
      "GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
      "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
  };
  for (const char* raw : cases) {
    HttpParser p{HttpLimits{}};
    EXPECT_EQ(p.Consume(raw), ParseStatus::kBad) << raw;
    EXPECT_FALSE(p.error().empty()) << raw;
  }
}

TEST(HttpParser, OversizedHeaderAndBodyAreTooLarge) {
  HttpLimits tight;
  tight.max_header_bytes = 64;
  tight.max_body_bytes = 8;
  {
    HttpParser p(tight);
    std::string raw = "GET /x HTTP/1.1\r\nPadding: " +
                      std::string(200, 'a') + "\r\n\r\n";
    EXPECT_EQ(p.Consume(raw), ParseStatus::kTooLarge);
  }
  {
    HttpParser p(tight);
    EXPECT_EQ(p.Consume("POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
              ParseStatus::kTooLarge);
  }
  {
    HttpParser p(tight);
    EXPECT_EQ(p.Consume("POST /x HTTP/1.1\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n"
                        "9\r\nwwwwwwwww\r\n"),
              ParseStatus::kTooLarge);
  }
}

// --- Token bucket ----------------------------------------------------------

TEST(TokenBucketLimiter, BurstRefillAndPerKeyIsolation) {
  uint64_t now = 0;
  net::TokenBucketLimiter limiter({.rate_per_sec = 1, .burst = 2},
                                  [&now] { return now; });
  EXPECT_TRUE(limiter.Admit("a"));
  EXPECT_TRUE(limiter.Admit("a"));
  EXPECT_FALSE(limiter.Admit("a"));  // burst spent
  EXPECT_TRUE(limiter.Admit("b"));   // other clients unaffected
  now += 1'000'000'000;              // +1s -> one token back
  EXPECT_TRUE(limiter.Admit("a"));
  EXPECT_FALSE(limiter.Admit("a"));
  now += 10'000'000'000ull;  // refill caps at burst, not 10 tokens
  EXPECT_TRUE(limiter.Admit("a"));
  EXPECT_TRUE(limiter.Admit("a"));
  EXPECT_FALSE(limiter.Admit("a"));
}

TEST(TokenBucketLimiter, ZeroRateDisablesLimiting) {
  net::TokenBucketLimiter limiter({.rate_per_sec = 0, .burst = 1});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(limiter.Admit("a"));
}

// --- Feed payload serialization --------------------------------------------

TEST(Changefeed, PayloadLinesRoundTripThroughParse) {
  auto g = MakeSynthetic({.nodes = 60,
                          .edges = 180,
                          .node_labels = 4,
                          .edge_labels = 3,
                          .attrs = 3,
                          .values = 8,
                          .value_correlation = 0.9,
                          .seed = 5});
  auto rules = GenerateGfdSet(g, {.count = 8, .k = 2, .seed = 3});
  ViolationEngine engine(rules);
  Rng rng(17);
  GraphDelta no_delta;

  // Find a batch that actually changes violations.
  std::string dir = Scratch("feed_roundtrip");
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  for (int attempt = 0; attempt < 20; ++attempt) {
    PropertyGraph cur = store->MaterializeCurrent();
    GraphDelta d = RandomBatch(cur, rng, 6);
    auto diff = store->AppendAndDiff(engine, DeltaBytes(cur, d));
    ASSERT_TRUE(diff.has_value());
    if (diff->added.empty() && diff->removed.empty()) continue;
    PropertyGraph after = store->MaterializeCurrent();
    auto view = GraphView::Apply(after, no_delta);
    std::string payload =
        SerializeDiffPayload(*view, engine.rules(), *diff);
    size_t lines = 0;
    std::istringstream in(payload);
    std::string line;
    while (std::getline(in, line)) {
      auto parsed = ParseFeedLine(line);
      ASSERT_TRUE(parsed.has_value()) << line;
      const auto& all = parsed->added ? diff->added : diff->removed;
      ASSERT_LT(lines, diff->added.size() + diff->removed.size());
      bool found = false;
      for (const Violation& v : all) {
        if (v.gfd_index == parsed->rule && v.pivot == parsed->pivot) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << line;
      EXPECT_EQ(parsed->pivot_name, after.NodeName(parsed->pivot));
      EXPECT_FALSE(parsed->description.empty());
      ++lines;
    }
    EXPECT_EQ(lines, diff->added.size() + diff->removed.size());
    return;
  }
  FAIL() << "no batch changed any violation in 20 attempts";
}

// A rule whose constant exists only in the un-compacted overlay: the
// server loads rules against the materialized current graph, so the
// constant's id is past the store's base interner. The payload the step
// renders on its live view must still name it, byte-identical to
// rendering against a materialization, on both backends.
TEST(Changefeed, PayloadNamesAnOverlayOnlyRuleConstant) {
  std::istringstream tsv(
      "N\ta\tperson\ttype=x\tkind=vip\n"
      "N\tb\tperson\ttype=y\tkind=regular\n"
      "N\tc\tperson\ttype=y\tkind=regular\n"
      "E\ta\tb\tknows\n"
      "E\tb\tc\tknows\n");
  auto g = LoadGraphTsv(tsv);
  ASSERT_TRUE(g.has_value());
  ASSERT_FALSE(g->FindValue("zzz").has_value());

  auto serve = [&](ServingStore& store) {
    // Every vip is of type 'zzz' -- a value only the overlay holds.
    std::string error;
    auto rule =
        ParseGfd("nodes=person;edges=;pivot=0;lhs=0.kind='vip';"
                 "rhs=0.type='zzz'",
                 store.MaterializeCurrent(), &error);
    ASSERT_TRUE(rule.has_value()) << error;
    ViolationEngine engine(std::vector<Gfd>{*rule});
    auto diff = store.AppendAndDiff(engine, "A\tb\tkind=vip\n", {}, nullptr,
                                    &error);
    ASSERT_TRUE(diff.has_value()) << error;
    ASSERT_EQ(diff->added.size(), 1u);
    const PropertyGraph current = store.MaterializeCurrent();
    EXPECT_EQ(diff->payload,
              SerializeDiffPayload(*GraphView::Apply(current, {}),
                                   engine.rules(), *diff));
    EXPECT_NE(diff->payload.find("'zzz'"), std::string::npos)
        << diff->payload;
  };

  // Both stores take 'zzz' into their overlay, then restart without
  // compacting.
  const std::string single_dir = Scratch("feed_overlay_const_single");
  ASSERT_TRUE(GraphStore::Init(single_dir, *g));
  {
    auto store = GraphStore::Open(single_dir);
    ASSERT_TRUE(store.has_value());
    ASSERT_TRUE(store->Append("A\ta\ttype=zzz\n").has_value());
  }
  auto store = GraphStore::Open(single_dir);
  ASSERT_TRUE(store.has_value());
  ASSERT_EQ(store->stats().anchor_seq, 0u);
  ASSERT_FALSE(store->base().FindValue("zzz").has_value());
  serve(*store);

  const std::string coord_dir = Scratch("feed_overlay_const_coord");
  ASSERT_TRUE(Coordinator::Init(coord_dir, *g, /*fragments=*/2));
  {
    auto coord = Coordinator::Open(coord_dir);
    ASSERT_TRUE(coord.has_value());
    ASSERT_TRUE(coord->Append("A\ta\ttype=zzz\n").has_value());
  }
  auto coord = Coordinator::Open(coord_dir);
  ASSERT_TRUE(coord.has_value());
  ASSERT_EQ(coord->stats().anchor_seq, 0u);
  serve(*coord);
}

TEST(Changefeed, ParseFeedLineRejectsGarbage) {
  EXPECT_FALSE(ParseFeedLine("").has_value());
  EXPECT_FALSE(ParseFeedLine("X\t1\t2\tn\tl\td").has_value());
  EXPECT_FALSE(ParseFeedLine("A\tnotanumber\t2\tn\tl\td").has_value());
  EXPECT_FALSE(ParseFeedLine("A\t1\t2").has_value());
  EXPECT_TRUE(ParseFeedLine("A\t1\t2\tn\tl\td").has_value());
  EXPECT_TRUE(ParseFeedLine("R\t0\t0\t\t\t").has_value());
}

// --- Changefeed: durable cursors -------------------------------------------

// The tentpole oracle: a subscriber that reconnects with its last-seen
// cursor must observe exactly the events an uninterrupted subscriber
// observed, and both must equal the diffs AppendAndDiff reported.
TEST(Changefeed, CursorReplayEqualsUninterruptedStream) {
  auto g = MakeSynthetic({.nodes = 80,
                          .edges = 240,
                          .node_labels = 4,
                          .edge_labels = 3,
                          .attrs = 3,
                          .values = 10,
                          .value_correlation = 0.9,
                          .seed = 11});
  auto rules = GenerateGfdSet(g, {.count = 10, .k = 2, .seed = 4});
  ViolationEngine engine(rules);
  std::string dir = Scratch("feed_cursor");
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  auto feed = ViolationChangefeed::Open(dir, store->last_seq());
  ASSERT_NE(feed, nullptr);

  // The uninterrupted subscriber, connected before anything happened.
  std::vector<FeedEvent> live_replay;
  auto live = feed->Subscribe(0, 64, &live_replay);
  ASSERT_TRUE(live_replay.empty());

  constexpr size_t kBatches = 12;
  constexpr size_t kReconnectAt = 5;
  Rng rng(23);
  GraphDelta no_delta;
  std::vector<FeedEvent> expected;
  std::shared_ptr<FeedSubscription> late;
  std::vector<FeedEvent> late_events;
  for (size_t b = 0; b < kBatches; ++b) {
    if (b == kReconnectAt) {
      // "Reconnect": a subscriber that saw the first kReconnectAt
      // batches before disappearing comes back with that cursor.
      std::vector<FeedEvent> replay;
      late = feed->Subscribe(expected.back().seq, 64, &replay);
      late_events = std::move(replay);
    }
    PropertyGraph cur = store->MaterializeCurrent();
    GraphDelta d = RandomBatch(cur, rng, 5);
    uint64_t seq = 0;
    auto diff =
        store->AppendAndDiff(engine, DeltaBytes(cur, d), {}, &seq);
    ASSERT_TRUE(diff.has_value());
    PropertyGraph after = store->MaterializeCurrent();
    auto view = GraphView::Apply(after, no_delta);
    std::string payload =
        SerializeDiffPayload(*view, engine.rules(), *diff);
    expected.push_back({seq, payload});
    ASSERT_TRUE(feed->Publish(seq, payload));
  }

  // Drain both live subscriptions.
  std::vector<FeedEvent> live_events = std::move(live_replay);
  FeedEvent ev;
  while (live->Next(&ev, 0) == FeedSubscription::Wait::kEvent) {
    live_events.push_back(ev);
  }
  while (late->Next(&ev, 0) == FeedSubscription::Wait::kEvent) {
    late_events.push_back(ev);
  }
  EXPECT_EQ(live_events, expected);
  EXPECT_EQ(late_events,
            std::vector<FeedEvent>(expected.begin() + kReconnectAt,
                                   expected.end()));

  // A cold subscriber replaying from 0 -- and one from mid-stream --
  // see the same events purely from durable state.
  std::vector<FeedEvent> cold;
  feed->Subscribe(0, 1, &cold);
  EXPECT_EQ(cold, expected);
  std::vector<FeedEvent> mid;
  feed->Subscribe(expected[7].seq, 1, &mid);
  EXPECT_EQ(mid, std::vector<FeedEvent>(expected.begin() + 8,
                                        expected.end()));

  // ... and still after a process restart (fresh feed over the same
  // directory).
  feed->Shutdown();
  feed.reset();
  auto reopened = ViolationChangefeed::Open(dir, store->last_seq());
  ASSERT_NE(reopened, nullptr);
  EXPECT_FALSE(reopened->reset_on_open());
  EXPECT_EQ(reopened->last_seq(), expected.back().seq);
  std::vector<FeedEvent> recovered;
  reopened->Subscribe(0, 1, &recovered);
  EXPECT_EQ(recovered, expected);
}

TEST(Changefeed, PublishOutOfSequenceIsRejected) {
  std::string dir = Scratch("feed_seq");
  fs::create_directories(dir);
  auto feed = ViolationChangefeed::Open(dir, 0);
  ASSERT_NE(feed, nullptr);
  std::string error;
  EXPECT_FALSE(feed->Publish(2, "skip", std::nullopt, &error));
  EXPECT_NE(error.find("out of sequence"), std::string::npos);
  EXPECT_TRUE(feed->Publish(1, "ok"));
  EXPECT_FALSE(feed->Publish(1, "dup", std::nullopt, &error));
  EXPECT_EQ(feed->last_seq(), 1u);
}

TEST(Changefeed, FeedBehindStoreIsResetNotMisnumbered) {
  std::string dir = Scratch("feed_reset");
  fs::create_directories(dir);
  {
    auto feed = ViolationChangefeed::Open(dir, 0);
    ASSERT_NE(feed, nullptr);
    ASSERT_TRUE(feed->Publish(1, "one"));
  }
  // The store advanced to seq 5 while the feed was not recording; those
  // diffs are unrecoverable, so the feed must restart at 6, not hand
  // out stale numbering.
  auto feed = ViolationChangefeed::Open(dir, 5);
  ASSERT_NE(feed, nullptr);
  EXPECT_TRUE(feed->reset_on_open());
  EXPECT_EQ(feed->last_seq(), 5u);
  std::vector<FeedEvent> replay;
  feed->Subscribe(0, 1, &replay);
  EXPECT_TRUE(replay.empty());
  EXPECT_TRUE(feed->Publish(6, "six"));
}

TEST(Changefeed, SlowConsumerIsEvicted) {
  std::string dir = Scratch("feed_evict");
  fs::create_directories(dir);
  auto feed = ViolationChangefeed::Open(dir, 0);
  ASSERT_NE(feed, nullptr);
  std::vector<FeedEvent> replay;
  auto sub = feed->Subscribe(0, /*queue_cap=*/2, &replay);
  for (uint64_t s = 1; s <= 4; ++s) {
    ASSERT_TRUE(feed->Publish(s, "payload"));
  }
  EXPECT_EQ(feed->subscriber_count(), 0u);  // dropped at overflow
  EXPECT_EQ(feed->evictions(), 1u);
  // The queued prefix still drains, then the eviction is reported.
  FeedEvent ev;
  EXPECT_EQ(sub->Next(&ev, 0), FeedSubscription::Wait::kEvent);
  EXPECT_EQ(ev.seq, 1u);
  EXPECT_EQ(sub->Next(&ev, 0), FeedSubscription::Wait::kEvent);
  EXPECT_EQ(ev.seq, 2u);
  EXPECT_EQ(sub->Next(&ev, 0), FeedSubscription::Wait::kEvicted);
  // Reconnecting with the last seen cursor recovers the dropped tail.
  std::vector<FeedEvent> tail;
  feed->Subscribe(2, 8, &tail);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 3u);
  EXPECT_EQ(tail[1].seq, 4u);
}

TEST(Changefeed, ShutdownWakesBlockedSubscribers) {
  std::string dir = Scratch("feed_shutdown");
  fs::create_directories(dir);
  auto feed = ViolationChangefeed::Open(dir, 0);
  ASSERT_NE(feed, nullptr);
  std::vector<FeedEvent> replay;
  auto sub = feed->Subscribe(0, 8, &replay);
  std::atomic<int> result{-1};
  std::thread waiter([&] {
    FeedEvent ev;
    result = static_cast<int>(sub->Next(&ev, 10'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  feed->Shutdown();
  waiter.join();
  EXPECT_EQ(result.load(),
            static_cast<int>(FeedSubscription::Wait::kClosed));
  std::string error;
  EXPECT_FALSE(feed->Publish(1, "after shutdown", std::nullopt, &error));
}

// TSan-friendly: one ingest thread publishing through the store mutex,
// several subscriber threads connecting at random cursors mid-stream;
// every subscriber must end with a gap-free suffix of the stream.
TEST(Changefeed, ConcurrentIngestAndSubscribe) {
  auto g = MakeSynthetic({.nodes = 60,
                          .edges = 160,
                          .node_labels = 4,
                          .edge_labels = 3,
                          .attrs = 2,
                          .values = 8,
                          .value_correlation = 0.9,
                          .seed = 31});
  auto rules = GenerateGfdSet(g, {.count = 6, .k = 2, .seed = 9});
  ViolationEngine engine(rules);
  std::string dir = Scratch("feed_concurrent");
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  auto feed = ViolationChangefeed::Open(dir, 0);
  ASSERT_NE(feed, nullptr);

  constexpr size_t kBatches = 16;
  std::mutex store_mu;
  std::map<uint64_t, std::string> published;  // oracle, guarded by store_mu

  std::thread ingest([&] {
    Rng rng(47);
    GraphDelta no_delta;
    for (size_t b = 0; b < kBatches; ++b) {
      std::lock_guard lock(store_mu);
      PropertyGraph cur = store->MaterializeCurrent();
      GraphDelta d = RandomBatch(cur, rng, 4);
      uint64_t seq = 0;
      auto diff = store->AppendAndDiff(engine, DeltaBytes(cur, d), {}, &seq);
      ASSERT_TRUE(diff.has_value());
      PropertyGraph after = store->MaterializeCurrent();
      auto view = GraphView::Apply(after, no_delta);
      std::string payload =
          SerializeDiffPayload(*view, engine.rules(), *diff);
      published[seq] = payload;
      ASSERT_TRUE(feed->Publish(seq, payload));
    }
  });

  std::vector<std::thread> readers;
  std::vector<std::vector<FeedEvent>> seen(3);
  for (size_t r = 0; r < seen.size(); ++r) {
    readers.emplace_back([&, r] {
      uint64_t cursor = 2 * r;  // stagger the entry points
      std::vector<FeedEvent> replay;
      auto sub = feed->Subscribe(cursor, kBatches + 1, &replay);
      seen[r] = std::move(replay);
      FeedEvent ev;
      while (seen[r].empty() || seen[r].back().seq < kBatches) {
        auto st = sub->Next(&ev, 5'000);
        if (st != FeedSubscription::Wait::kEvent) break;
        seen[r].push_back(ev);
        if (ev.seq >= kBatches) break;
      }
      feed->Unsubscribe(sub);
    });
  }
  ingest.join();
  for (auto& t : readers) t.join();

  std::lock_guard lock(store_mu);
  ASSERT_EQ(published.size(), kBatches);
  for (size_t r = 0; r < seen.size(); ++r) {
    ASSERT_FALSE(seen[r].empty()) << "reader " << r;
    // Contiguous, gap-free, and every payload matches the oracle.
    for (size_t i = 1; i < seen[r].size(); ++i) {
      EXPECT_EQ(seen[r][i].seq, seen[r][i - 1].seq + 1)
          << "reader " << r << " position " << i;
    }
    EXPECT_EQ(seen[r].back().seq, kBatches) << "reader " << r;
    for (const FeedEvent& got : seen[r]) {
      auto it = published.find(got.seq);
      ASSERT_NE(it, published.end());
      EXPECT_EQ(got.payload, it->second) << "seq " << got.seq;
    }
    // A reader entering at cursor C sees C+1 first (replay is durable,
    // so nothing between its cursor and the live stream is lost).
    EXPECT_EQ(seen[r].front().seq, 2 * r + 1) << "reader " << r;
  }
}

// --- Socket-level end-to-end -----------------------------------------------

// Minimal blocking HTTP client: one request, read to EOF.
std::string RawRequest(uint16_t port, const std::string& raw) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string Get(uint16_t port, const std::string& target) {
  return RawRequest(port, "GET " + target +
                              " HTTP/1.1\r\nConnection: close\r\n\r\n");
}

std::string Post(uint16_t port, const std::string& target,
                 const std::string& body) {
  return RawRequest(port, "POST " + target +
                              " HTTP/1.1\r\nConnection: close\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" +
                              body);
}

// An ephemeral-port HTTP server dispatching into `service`.
std::unique_ptr<net::HttpServer> ServeOverHttp(net::FeedService& service) {
  net::HttpServerOptions hopts;
  hopts.port = 0;  // ephemeral
  hopts.poll_interval_ms = 50;
  std::string error;
  auto server = net::HttpServer::Start(
      hopts,
      [&service](const net::HttpRequest& req, net::ResponseWriter& w) {
        service.Handle(req, w);
      },
      &error);
  EXPECT_NE(server, nullptr) << error;
  return server;
}

// The SSE events of a /feed response, without heartbeat comments and
// frame separators: live streams may interleave heartbeats, the event
// bytes themselves must be equal.
std::string EventsOnly(const std::string& response) {
  size_t body_at = response.find("\r\n\r\n");
  EXPECT_NE(body_at, std::string::npos);
  std::string out;
  std::istringstream in(response.substr(body_at + 4));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.starts_with(":")) continue;
    out += line + "\n";
  }
  return out;
}

// A /feed request for `query` that closes after `max_events` events.
std::string FeedTarget(const std::string& query, size_t max_events) {
  return "/feed?" + query + "&max_events=" + std::to_string(max_events);
}

// How many of `events` a filter keeps: an event stays when any of its
// lines matches.
size_t EventsKept(const std::vector<FeedEvent>& events,
                  const std::function<bool(const FeedLine&)>& keep) {
  size_t n = 0;
  for (const FeedEvent& ev : events) {
    std::istringstream in(ev.payload);
    std::string line;
    bool any = false;
    while (std::getline(in, line)) {
      auto parsed = ParseFeedLine(line);
      any = any || (parsed && keep(*parsed));
    }
    n += any;
  }
  return n;
}

struct E2eServer {
  std::string dir;
  std::optional<GraphStore> store;
  std::unique_ptr<ViolationEngine> engine;
  std::unique_ptr<ViolationChangefeed> feed;
  std::unique_ptr<net::FeedService> service;
  std::unique_ptr<net::HttpServer> server;
  PropertyGraph base;

  explicit E2eServer(const std::string& name, double ingest_rps = 0) {
    base = MakeSynthetic({.nodes = 60,
                          .edges = 180,
                          .node_labels = 4,
                          .edge_labels = 3,
                          .attrs = 3,
                          .values = 8,
                          .value_correlation = 0.9,
                          .seed = 13});
    auto rules = GenerateGfdSet(base, {.count = 8, .k = 2, .seed = 6});
    engine = std::make_unique<ViolationEngine>(rules);
    dir = Scratch(name);
    EXPECT_TRUE(GraphStore::Init(dir, base));
    store = GraphStore::Open(dir);
    EXPECT_TRUE(store.has_value());
    feed = ViolationChangefeed::Open(dir, store->last_seq());
    EXPECT_NE(feed, nullptr);
    net::FeedServiceOptions fopts;
    fopts.heartbeat_ms = 100;
    fopts.ingest_rate_per_sec = ingest_rps;
    fopts.ingest_burst = 1;
    service = std::make_unique<net::FeedService>(*store, *engine, *feed,
                                                 fopts);
    service->Prime();
    server = ServeOverHttp(*service);
  }

  ~E2eServer() {
    feed->Shutdown();
    server->Stop();
  }

  uint16_t port() const { return server->port(); }

  std::string ValidBatch(uint64_t seed = 71) {
    PropertyGraph cur = store->MaterializeCurrent();
    Rng rng(seed);
    return DeltaBytes(cur, RandomBatch(cur, rng, 3));
  }

  // Posts batches until `n` were accepted (a random batch can clash with
  // the current graph and draw a 422).
  void IngestAccepted(size_t n) {
    for (uint64_t seed = 1; n > 0 && seed < 100; ++seed) {
      if (Post(port(), "/ingest", ValidBatch(seed)).find("200 OK") !=
          std::string::npos) {
        --n;
      }
    }
    EXPECT_EQ(n, 0u) << "batches the server never accepted";
  }

  // Posts up to `n` batches that each move the running count (drawn
  // against the current graph, kept when their one-shot diff adds and
  // removes different numbers of violations); returns how many.
  size_t IngestCountChanging(size_t n) {
    Rng rng(53);
    size_t posted = 0;
    for (size_t attempt = 0; posted < n && attempt < 400; ++attempt) {
      PropertyGraph cur = store->MaterializeCurrent();
      GraphDelta d = RandomBatch(cur, rng, 4);
      auto diff = engine->DetectIncremental(cur, d);
      if (!diff || diff->added.size() == diff->removed.size()) continue;
      EXPECT_NE(Post(port(), "/ingest", DeltaBytes(cur, d)).find("200 OK"),
                std::string::npos);
      ++posted;
    }
    return posted;
  }
};

TEST(FeedServiceE2e, EveryEndpointAnswersOverSockets) {
  E2eServer s("e2e_endpoints");
  ASSERT_NE(s.server, nullptr);

  std::string status = Get(s.port(), "/status");
  EXPECT_NE(status.find("200 OK"), std::string::npos);
  EXPECT_NE(status.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(status.find("\"backend\":\"single\""), std::string::npos);

  // Invalid batch: 4xx and nothing reached the log.
  std::string bad = Post(s.port(), "/ingest", "E-\tn0\tn1\tnope\n");
  EXPECT_NE(bad.find("422"), std::string::npos);
  EXPECT_EQ(s.store->last_seq(), 0u);

  std::string ok = Post(s.port(), "/ingest", s.ValidBatch());
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("\"seq\":1"), std::string::npos);
  EXPECT_EQ(s.store->last_seq(), 1u);

  // Method and route errors.
  EXPECT_NE(Get(s.port(), "/ingest").find("405"), std::string::npos);
  EXPECT_NE(Get(s.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(RawRequest(s.port(), "POST /status HTTP/1.1\r\nConnection: "
                                 "close\r\nContent-Length: 0\r\n\r\n")
                .find("405"),
            std::string::npos);

  // Live metrics include the HTTP families and serving gauges.
  std::string metrics = Get(s.port(), "/metrics");
  EXPECT_NE(metrics.find("gfd_http_requests_total{endpoint=\"/ingest\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("gfd_serving_last_seq 1"), std::string::npos);

  // The feed replays the one batch; a reconnect with the same cursor is
  // byte-identical.
  std::string feed1 = Get(s.port(), "/feed?cursor=0&max_events=1");
  EXPECT_NE(feed1.find("text/event-stream"), std::string::npos);
  EXPECT_NE(feed1.find("id: 1"), std::string::npos);
  std::string feed2 = Get(s.port(), "/feed?cursor=0&max_events=1");
  EXPECT_EQ(feed1, feed2);
  EXPECT_NE(Get(s.port(), "/feed?cursor=x").find("400"), std::string::npos);
  // max_events=0 would be a stream that can never deliver anything and
  // never ends: rejected up front like any other unusable parameter,
  // while the positive value above streams and closes normally.
  EXPECT_NE(Get(s.port(), "/feed?cursor=0&max_events=0").find("400"),
            std::string::npos);
}

TEST(FeedServiceE2e, IngestIsRateLimitedPerClient) {
  E2eServer s("e2e_ratelimit", /*ingest_rps=*/1e-9);  // burst 1, no refill
  ASSERT_NE(s.server, nullptr);
  std::string batch = s.ValidBatch();
  std::string first = Post(s.port(), "/ingest", batch);
  EXPECT_NE(first.find("200 OK"), std::string::npos);
  std::string second = Post(s.port(), "/ingest", batch);
  EXPECT_NE(second.find("429"), std::string::npos);
  EXPECT_EQ(s.store->last_seq(), 1u);
  std::string metrics = Get(s.port(), "/metrics");
  EXPECT_NE(metrics.find("gfd_ingest_rate_limited_total 1"),
            std::string::npos);
}

TEST(FeedServiceE2e, LiveSubscriberSeesBatchesAsTheyArrive) {
  E2eServer s("e2e_live");
  ASSERT_NE(s.server, nullptr);

  // Subscribe first, then ingest two batches; the stream must deliver
  // both live (max_events closes it afterwards).
  std::string stream;
  std::thread subscriber([&] {
    stream = Get(s.port(), "/feed?cursor=0&max_events=2");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_NE(Post(s.port(), "/ingest", s.ValidBatch()).find("200"),
            std::string::npos);
  EXPECT_NE(Post(s.port(), "/ingest", s.ValidBatch()).find("200"),
            std::string::npos);
  subscriber.join();
  EXPECT_NE(stream.find("id: 1"), std::string::npos);
  EXPECT_NE(stream.find("id: 2"), std::string::npos);

  // And a reconnecting cursor catches up to the identical events.
  std::string replay = Get(s.port(), "/feed?cursor=0&max_events=2");
  EXPECT_EQ(EventsOnly(stream), EventsOnly(replay));
}

// --- The running count in the feed record ----------------------------------

// The records /ingest writes lead with the count line, yet no subscriber
// sees it: live, cursor-replay and ?label= / ?rule= filtered streams
// render the same SSE bytes as streams over the same diffs in the older
// count-less format, which is what older builds wrote and served.
TEST(FeedServiceE2e, CountLineNeverReachesASubscriber) {
  E2eServer s("e2e_countline");
  ASSERT_NE(s.server, nullptr);
  constexpr size_t kBatches = 4;
  const std::string all = FeedTarget("cursor=0", kBatches);
  std::string live;
  std::thread subscriber([&] { live = Get(s.port(), all); });
  std::vector<FeedEvent> none;
  auto live_sub = s.feed->Subscribe(0, 16, &none);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Batches that change violations, so the filters below have lines to
  // select.
  const size_t posted = s.IngestCountChanging(kBatches);
  if (posted < kBatches) s.feed->Shutdown();  // unblocks the subscriber
  subscriber.join();
  ASSERT_EQ(posted, kBatches);
  ASSERT_EQ(s.store->last_seq(), kBatches);

  // Each raw record: the count line at its own seq under the served
  // rules, then the diff. Copy the diffs into a count-less feed.
  const uint64_t fp =
      RuleSetFingerprint(s.engine->rules(), s.store->MaterializeCurrent());
  auto raw = DeltaLog::Open(s.dir + "/feed.log", 1);
  ASSERT_TRUE(raw.has_value());
  ASSERT_EQ(raw->records().size(), kBatches);
  const std::string old_dir = Scratch("e2e_countline_old");
  fs::create_directories(old_dir);
  auto old_feed = ViolationChangefeed::Open(old_dir, 0);
  ASSERT_NE(old_feed, nullptr);
  std::optional<FeedLine> any_line;
  std::vector<FeedEvent> diffs;
  for (const DeltaLogRecord& rec : raw->records()) {
    const size_t eol = rec.payload.find('\n');
    ASSERT_NE(eol, std::string::npos);
    std::istringstream count_line(rec.payload.substr(0, eol));
    std::string key;
    count_line >> key;
    ASSERT_EQ(key, "violations") << rec.payload;
    auto count = ParseMetaCountFields(count_line);
    ASSERT_TRUE(count.has_value());
    EXPECT_EQ(count->seq, rec.seq);
    EXPECT_EQ(count->fingerprint, fp);
    const std::string diff = rec.payload.substr(eol + 1);
    if (!any_line && !diff.empty()) {
      any_line = ParseFeedLine(diff.substr(0, diff.find('\n')));
    }
    ASSERT_TRUE(old_feed->Publish(rec.seq, diff));
    diffs.push_back({rec.seq, diff});
  }
  EXPECT_FALSE(old_feed->last_count().has_value());
  ASSERT_TRUE(any_line.has_value()) << "no batch changed any violation";

  // Events carry the diff alone, live and replayed.
  std::vector<FeedEvent> live_events;
  FeedEvent ev;
  while (live_sub->Next(&ev, 0) == FeedSubscription::Wait::kEvent) {
    live_events.push_back(ev);
  }
  EXPECT_EQ(live_events, diffs);
  std::vector<FeedEvent> events;
  s.feed->Subscribe(0, 1, &events);
  EXPECT_EQ(events, diffs);

  net::FeedServiceOptions fopts;
  fopts.heartbeat_ms = 100;
  net::FeedService old_service(*s.store, *s.engine, *old_feed, fopts);
  auto old_server = ServeOverHttp(old_service);
  ASSERT_NE(old_server, nullptr);

  // Filters need the exact number of events they keep, or the stream
  // waits for more.
  const std::string label = any_line->pivot_label;
  const uint32_t rule = any_line->rule;
  const std::string by_rule = "cursor=0&rule=" + std::to_string(rule);
  auto has_label = [&](const FeedLine& l) { return l.pivot_label == label; };
  auto has_rule = [&](const FeedLine& l) { return l.rule == rule; };
  const std::string targets[] = {
      all,
      FeedTarget("cursor=2", kBatches - 2),
      FeedTarget("cursor=0&label=" + label, EventsKept(diffs, has_label)),
      FeedTarget(by_rule, EventsKept(diffs, has_rule)),
  };
  for (const std::string& target : targets) {
    SCOPED_TRACE(target);
    EXPECT_EQ(Get(s.port(), target), Get(old_server->port(), target));
  }
  EXPECT_EQ(EventsOnly(live), EventsOnly(Get(old_server->port(), all)));
  old_feed->Shutdown();
  old_server->Stop();
}

// After batches through the server and a teardown that checkpoints
// nothing (what kill -9 leaves), a fresh service takes the count from
// the feed's last record, with no scan; a checkpoint then puts it in the
// meta for the one-shot CLI steps.
TEST(FeedServiceE2e, RestartPrimesFromTheFeedWithoutAScan) {
  std::string dir;
  std::vector<Gfd> rules;
  uint64_t served = 0;
  {
    E2eServer s("e2e_prime_feed");
    ASSERT_NE(s.server, nullptr);
    // Every batch moves the count, so a record carrying a stale one
    // cannot pass for the served count below.
    ASSERT_EQ(s.IngestCountChanging(3), 3u);
    served = s.service->violation_count();
    dir = s.dir;
    rules.assign(s.engine->rules().begin(), s.engine->rules().end());
  }
  ViolationEngine engine(rules);
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  const PropertyGraph current = store->MaterializeCurrent();
  const uint64_t fp = RuleSetFingerprint(engine.rules(), current);
  EXPECT_FALSE(store->violation_count(fp).has_value());  // meta is stale
  auto feed = ViolationChangefeed::Open(dir, store->last_seq());
  ASSERT_NE(feed, nullptr);
  EXPECT_FALSE(feed->reset_on_open());

  net::FeedService service(*store, engine, *feed, {});
  net::CountSource source = net::CountSource::kScan;
  EXPECT_EQ(service.Prime(&source), served);
  EXPECT_EQ(source, net::CountSource::kFeed);
  EXPECT_EQ(served, engine.Detect(current).violations.size());

  ASSERT_TRUE(service.Checkpoint());
  auto reopened = GraphStore::Open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->violation_count(fp), served);
}

// The feed's count is trusted only under the rules it was taken with and
// at exactly the store's seq: a restart under other rules scans, and so
// does one after a batch reached the store behind the feed's back.
TEST(FeedServiceE2e, OtherRulesOrABatchBehindTheFeedForceAScan) {
  std::string dir;
  std::vector<Gfd> rules;
  {
    E2eServer s("e2e_prime_scan");
    ASSERT_NE(s.server, nullptr);
    s.IngestAccepted(2);
    dir = s.dir;
    rules.assign(s.engine->rules().begin(), s.engine->rules().end());
  }
  auto prime = [&](std::span<const Gfd> served, bool expect_reset) {
    ViolationEngine engine(std::vector<Gfd>(served.begin(), served.end()));
    auto store = GraphStore::Open(dir);
    EXPECT_TRUE(store.has_value());
    auto feed = ViolationChangefeed::Open(dir, store->last_seq());
    EXPECT_NE(feed, nullptr);
    EXPECT_EQ(feed->reset_on_open(), expect_reset);
    net::FeedService service(*store, engine, *feed, {});
    net::CountSource source = net::CountSource::kMeta;
    EXPECT_EQ(service.Prime(&source),
              engine.Detect(store->MaterializeCurrent()).violations.size());
    return source;
  };
  EXPECT_EQ(prime(std::span(rules).first(rules.size() / 2), false),
            net::CountSource::kScan);
  // That scan persisted the other rules' count; the served rules still
  // find theirs in the feed.
  EXPECT_EQ(prime(rules, false), net::CountSource::kFeed);
  {
    auto store = GraphStore::Open(dir);
    ASSERT_TRUE(store.has_value());
    ASSERT_TRUE(store->Append("A\tn0\tbehind=feed\n").has_value());
  }
  EXPECT_EQ(prime(rules, true), net::CountSource::kScan);
}

// A feed.log written before records carried a count opens and replays
// the same events; Prime falls back to the meta, or scans when the meta
// is stale too.
TEST(Changefeed, OldFormatFeedLogReplaysAndPrimesFromMetaOrScan) {
  auto g = MakeSynthetic({.nodes = 60,
                          .edges = 180,
                          .node_labels = 4,
                          .edge_labels = 3,
                          .attrs = 3,
                          .values = 8,
                          .value_correlation = 0.9,
                          .seed = 21});
  ViolationEngine engine(GenerateGfdSet(g, {.count = 8, .k = 2, .seed = 2}));
  const std::string dir = Scratch("feed_old_format");
  ASSERT_TRUE(GraphStore::Init(dir, g));
  std::vector<FeedEvent> published;
  Rng rng(37);
  // Serves one batch the way older builds did: the diff alone goes to
  // the feed.
  auto serve_old = [&](GraphStore& store, ViolationChangefeed& feed) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      PropertyGraph cur = store.MaterializeCurrent();
      uint64_t seq = 0;
      auto diff = store.AppendAndDiff(
          engine, DeltaBytes(cur, RandomBatch(cur, rng, 4)), {}, &seq);
      if (!diff) continue;
      ASSERT_TRUE(feed.Publish(seq, diff->payload));
      published.push_back({seq, diff->payload});
      return;
    }
    FAIL() << "no batch applied in 20 attempts";
  };
  auto prime = [&](GraphStore& store, ViolationChangefeed& feed) {
    net::FeedService service(store, engine, feed, {});
    net::CountSource source = net::CountSource::kFeed;
    EXPECT_EQ(service.Prime(&source),
              engine.Detect(store.MaterializeCurrent()).violations.size());
    return source;
  };
  {
    auto store = GraphStore::Open(dir);
    ASSERT_TRUE(store.has_value());
    auto feed = ViolationChangefeed::Open(dir, store->last_seq());
    ASSERT_NE(feed, nullptr);
    for (int b = 0; b < 3; ++b) serve_old(*store, *feed);
    const PropertyGraph current = store->MaterializeCurrent();
    ASSERT_TRUE(store->SetViolationCount(
        engine.Detect(current).violations.size(),
        RuleSetFingerprint(engine.rules(), current)));
  }
  {
    auto store = GraphStore::Open(dir);
    ASSERT_TRUE(store.has_value());
    auto feed = ViolationChangefeed::Open(dir, store->last_seq());
    ASSERT_NE(feed, nullptr);
    EXPECT_FALSE(feed->reset_on_open());
    EXPECT_FALSE(feed->last_count().has_value());
    std::vector<FeedEvent> replay;
    feed->Subscribe(0, 1, &replay);
    EXPECT_EQ(replay, published);
    EXPECT_EQ(prime(*store, *feed), net::CountSource::kMeta);
    serve_old(*store, *feed);  // the meta's count is stale from here on
  }
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  auto feed = ViolationChangefeed::Open(dir, store->last_seq());
  ASSERT_NE(feed, nullptr);
  EXPECT_EQ(prime(*store, *feed), net::CountSource::kScan);
}

}  // namespace
}  // namespace gfd
