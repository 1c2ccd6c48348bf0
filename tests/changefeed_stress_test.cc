// Concurrency stress for ViolationChangefeed: racing publishers, many
// subscribers (one deliberately slow, with a tiny queue, so eviction +
// cursor-replay recovery is exercised), and a Shutdown fired while
// everything is in flight. Runs under the ASan and TSan CI legs; the
// invariants asserted are the feed's contract:
//
//   - gap-free delivery: replay + live events form one contiguous
//     sequence from the subscriber's cursor (every event is exactly
//     cursor + 1 when it arrives),
//   - no duplicate events at or below the cursor,
//   - payloads arrive under the sequence they were published with,
//   - after Shutdown every subscriber can drain to the durable end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/changefeed.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;

std::string PayloadFor(uint64_t seq) {
  return "A\t0\t" + std::to_string(seq) + "\tn\tl\tpayload-" +
         std::to_string(seq) + "\n";
}

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("gfd_feed_stress_" +
            std::to_string(
                std::chrono::steady_clock::now().time_since_epoch().count()));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path() const { return dir_.string(); }

 private:
  fs::path dir_;
};

// One subscriber's run: follows the feed from `start_cursor`, surviving
// evictions by reconnecting at its cursor, until the feed shuts down,
// then drains the durable tail via one final replay. Returns the last
// sequence seen; records every assertion failure through gtest.
uint64_t FollowFeed(ViolationChangefeed& feed, uint64_t start_cursor,
                    size_t queue_cap, bool slow) {
  uint64_t cursor = start_cursor;
  // Bounded outer loop: every reconnect is caused by an eviction, and
  // each eviction implies forward progress by at least one published
  // event, so this cannot spin forever on a correct feed.
  for (int reconnects = 0; reconnects < 10000; ++reconnects) {
    std::vector<FeedEvent> replay;
    auto sub = feed.Subscribe(cursor, queue_cap, &replay);
    for (const FeedEvent& ev : replay) {
      EXPECT_EQ(ev.seq, cursor + 1) << "gap in replay";
      EXPECT_EQ(ev.payload, PayloadFor(ev.seq)) << "cross-wired payload";
      cursor = ev.seq;
    }
    bool evicted = false;
    for (int spins = 0; spins < 1000000 && !evicted; ++spins) {
      FeedEvent ev;
      FeedSubscription::Wait wait = sub->Next(&ev, 50);
      if (wait == FeedSubscription::Wait::kEvent) {
        EXPECT_GT(ev.seq, start_cursor)
            << "event at or below the initial cursor delivered";
        EXPECT_EQ(ev.seq, cursor + 1) << "gap or duplicate in live stream";
        EXPECT_EQ(ev.payload, PayloadFor(ev.seq)) << "cross-wired payload";
        cursor = ev.seq;
        if (slow) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      } else if (wait == FeedSubscription::Wait::kTimeout) {
        // Heartbeat tick; keep waiting.
      } else if (wait == FeedSubscription::Wait::kEvicted) {
        // Slow consumer dropped: reconnect and replay from the cursor.
        evicted = true;
      } else {  // kClosed
        // Shutdown. The durable log may be ahead of what the live
        // queue delivered; one replay-only subscribe drains the rest.
        std::vector<FeedEvent> tail;
        feed.Subscribe(cursor, 1, &tail);
        for (const FeedEvent& ev2 : tail) {
          EXPECT_EQ(ev2.seq, cursor + 1) << "gap in post-shutdown drain";
          cursor = ev2.seq;
        }
        return cursor;
      }
    }
    if (!evicted) {
      ADD_FAILURE() << "subscriber spun without shutdown";
      return cursor;
    }
  }
  ADD_FAILURE() << "subscriber reconnected without bound";
  return cursor;
}

TEST(ChangefeedStress, PublishersSubscribersEvictionAndShutdown) {
  constexpr int kPublishers = 4;
  constexpr int kSubscribers = 6;
  constexpr uint64_t kTargetSeq = 300;

  TempDir dir;
  auto feed = ViolationChangefeed::Open(dir.path(), /*store_last_seq=*/0);
  ASSERT_NE(feed, nullptr);

  // A parked subscriber with a queue of 1 that never consumes: the
  // second publish after it connects must overflow its queue, so at
  // least one eviction happens regardless of scheduling. The slow
  // FollowFeed subscriber below usually gets evicted too, but on a
  // loaded machine the publishers can run slowly enough that it keeps
  // up -- that race must not decide the eviction assertion.
  std::vector<FeedEvent> parked_replay;
  auto parked = feed->Subscribe(/*cursor=*/0, /*queue_cap=*/1,
                                &parked_replay);

  // Publishers race to extend the sequence. Only one can hold the next
  // sequence number at a time; the rest observe an out-of-sequence
  // rejection and retry -- exactly the contention Publish must survive.
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&] {
      for (;;) {
        uint64_t seq = feed->last_seq() + 1;
        if (seq > kTargetSeq) return;
        std::string err;
        if (feed->Publish(seq, PayloadFor(seq), std::nullopt, &err)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else if (err.find("shut down") != std::string::npos) {
          return;
        }
        // Out-of-sequence loser: re-read the sequence and try again.
      }
    });
  }

  // Subscribers: one slow straggler with a queue of 1 (guaranteed to be
  // evicted and forced through cursor-replay recovery), the rest keep
  // up from varying starting cursors.
  std::vector<uint64_t> finals(kSubscribers, 0);
  std::vector<uint64_t> starts(kSubscribers, 0);
  std::vector<std::thread> subscribers;
  subscribers.reserve(kSubscribers);
  for (int s = 0; s < kSubscribers; ++s) {
    bool slow = s == 0;
    starts[s] = slow ? 0 : static_cast<uint64_t>(s * 3);
    subscribers.emplace_back([&, s, slow] {
      finals[s] = FollowFeed(*feed, starts[s], slow ? 1 : 64, slow);
    });
  }

  // Shut down while publishers and subscribers are mid-flight.
  while (feed->last_seq() < kTargetSeq / 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  feed->Shutdown();

  for (auto& t : publishers) t.join();
  for (auto& t : subscribers) t.join();

  // Shutdown landed somewhere in [kTargetSeq/2, kTargetSeq]; whatever
  // was durably accepted is the stream, and every subscriber -- slow,
  // evicted, late-starting -- drained exactly to its end.
  const uint64_t end = feed->last_seq();
  EXPECT_GE(end, kTargetSeq / 2);
  EXPECT_EQ(accepted.load(), end);
  for (int s = 0; s < kSubscribers; ++s) {
    EXPECT_EQ(finals[s], end) << "subscriber " << s << " (start cursor "
                              << starts[s] << ") did not drain to the end";
  }
  EXPECT_GT(feed->evictions(), 0u) << "the slow consumer was never evicted";
  EXPECT_EQ(feed->subscriber_count(), 0u);
}

TEST(ChangefeedStress, ShutdownRacingSubscribeNeverHangs) {
  // Subscribe storm against a concurrent Shutdown: every Subscribe must
  // return either a live subscription that kClosed-wakes, or one marked
  // closed up front -- never a subscription left blocked forever.
  TempDir dir;
  auto feed = ViolationChangefeed::Open(dir.path(), /*store_last_seq=*/0);
  ASSERT_NE(feed, nullptr);
  ASSERT_TRUE(feed->Publish(1, PayloadFor(1)));

  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 50; ++j) {
        std::vector<FeedEvent> replay;
        auto sub = feed->Subscribe(0, 4, &replay);
        EXPECT_EQ(replay.size(), 1u);  // durable replay survives shutdown
        FeedEvent ev;
        // Either the replayed event's live duplicate is suppressed (it
        // is <= cursor after replay? no: cursor was 0, so the live copy
        // was already published before subscribing) -- all we require
        // is that Next never blocks past its timeout and reports
        // kClosed once shut down.
        sub->Next(&ev, 1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  feed->Shutdown();
  for (auto& t : threads) t.join();
  EXPECT_EQ(feed->subscriber_count(), 0u);
}

}  // namespace
}  // namespace gfd
