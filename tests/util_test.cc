#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/tsv.h"

namespace gfd {
namespace {

TEST(Interner, AssignsDenseIdsInOrder) {
  StringInterner in;
  EXPECT_EQ(in.Intern("a"), 0u);
  EXPECT_EQ(in.Intern("b"), 1u);
  EXPECT_EQ(in.Intern("c"), 2u);
  EXPECT_EQ(in.size(), 3u);
}

TEST(Interner, ReturnsExistingIdOnReintern) {
  StringInterner in;
  uint32_t a = in.Intern("alpha");
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, RoundTripsStrings) {
  StringInterner in;
  uint32_t id = in.Intern("hello world");
  EXPECT_EQ(in.Get(id), "hello world");
}

TEST(Interner, FindMissingReturnsNullopt) {
  StringInterner in;
  in.Intern("x");
  EXPECT_FALSE(in.Find("y").has_value());
  EXPECT_TRUE(in.Find("x").has_value());
}

TEST(Interner, EmptyStringIsValid) {
  StringInterner in;
  uint32_t id = in.Intern("");
  EXPECT_EQ(in.Get(id), "");
  EXPECT_EQ(in.Find(""), id);
}

// The table grows many times over 5,000 strings; every id stays where
// it was, and a lookup of a string never interned finds nothing, also
// on a never-used interner and on copies.
TEST(Interner, KeepsEveryIdAcrossGrowth) {
  EXPECT_FALSE(StringInterner().Find("x").has_value());
  StringInterner in;
  for (uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(in.Intern("s" + std::to_string(i)), i);
  }
  const StringInterner copy = in;
  for (const StringInterner* t : {&std::as_const(in), &copy}) {
    for (uint32_t i = 0; i < 5000; ++i) {
      const std::string s = "s" + std::to_string(i);
      ASSERT_EQ(t->Find(s), i);
      ASSERT_EQ(t->Get(i), s);
    }
    EXPECT_FALSE(t->Find("s5000").has_value());
    EXPECT_FALSE(t->Find("").has_value());
  }
  EXPECT_EQ(in.Intern("s4321"), 4321u);
  EXPECT_EQ(in.size(), 5000u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Below(13), 13u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceZeroAndOne) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Chance(0.0));
    EXPECT_TRUE(r.Chance(1.0));
  }
}

TEST(Rng, ZipfStaysInRangeAndSkews) {
  Rng r(13);
  const uint64_t n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t z = r.Zipf(n);
    ASSERT_LT(z, n);
    ++counts[z];
  }
  // Rank 0 should be much more popular than rank 50.
  EXPECT_GT(counts[0], counts[50] * 3);
}

TEST(Rng, ZipfSingleElement) {
  Rng r(1);
  EXPECT_EQ(r.Zipf(1), 0u);
}

TEST(Hash, CombineChangesSeed) {
  size_t h1 = 0, h2 = 0;
  HashCombine(h1, 1);
  HashCombine(h2, 2);
  EXPECT_NE(h1, h2);
}

TEST(Hash, VecHashDistinguishesOrder) {
  VecHash vh;
  std::vector<int> a{1, 2, 3}, b{3, 2, 1};
  EXPECT_NE(vh(a), vh(b));
}

TEST(Hash, PairHashDistinguishesSwap) {
  PairHash ph;
  EXPECT_NE(ph(std::pair(1, 2)), ph(std::pair(2, 1)));
}

TEST(Tsv, SplitsFields) {
  auto f = SplitFields("a\tbb\tccc");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "bb");
  EXPECT_EQ(f[2], "ccc");
}

TEST(Tsv, EmptyTrailingField) {
  auto f = SplitFields("a\t");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1], "");
}

TEST(Tsv, SingleField) {
  auto f = SplitFields("solo");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], "solo");
}

TEST(Tsv, KeyValueSplit) {
  std::string_view k, v;
  ASSERT_TRUE(SplitKeyValue("type=film", &k, &v));
  EXPECT_EQ(k, "type");
  EXPECT_EQ(v, "film");
}

TEST(Tsv, KeyValueKeepsLaterEquals) {
  std::string_view k, v;
  ASSERT_TRUE(SplitKeyValue("eq=a=b", &k, &v));
  EXPECT_EQ(k, "eq");
  EXPECT_EQ(v, "a=b");
}

TEST(Tsv, KeyValueRejectsMissingEquals) {
  std::string_view k, v;
  EXPECT_FALSE(SplitKeyValue("nokey", &k, &v));
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

// A zero-thread pool starts no thread: Submit runs the task on the
// caller, and a ParallelFor over it never leaves the caller.
TEST(ThreadPool, ZeroThreadsRunTasksOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::atomic<int> count{0};
  std::thread::id ran;
  EXPECT_TRUE(pool.Submit([&] {
    count.fetch_add(1);
    ran = std::this_thread::get_id();
  }));
  EXPECT_EQ(count.load(), 1);  // before any Wait
  EXPECT_EQ(ran, std::this_thread::get_id());
  pool.Wait();
  std::vector<std::thread::id> ids(7);
  ParallelFor(pool, ids.size(),
              [&](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ids) EXPECT_EQ(id, ran);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<int> hits(1000, 0);
  ParallelFor(pool, hits.size(), [&hits](size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

// The caller runs the first chunk itself, so a balanced loop does not
// wait out the last worker's wake-up; every index still runs once.
TEST(ThreadPool, ParallelForRunsTheFirstChunkOnTheCaller) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10);
  std::vector<std::thread::id> ran(10);
  ParallelFor(pool, hits.size(), [&](size_t i) {
    hits[i].fetch_add(1);
    ran[i] = std::this_thread::get_id();
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(ran[0], std::this_thread::get_id());

  // A one-thread pool makes one chunk: nothing leaves the caller.
  ThreadPool one(1);
  std::vector<std::thread::id> ids(5);
  ParallelFor(one, 5, [&](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ids) EXPECT_EQ(id, ran[0]);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(4);
  ParallelFor(pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  ThreadPool pool(16);
  std::vector<int> hits(3, 0);
  ParallelFor(pool, hits.size(), [&hits](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SubmitRacingShutdownIsRejectedNotLost) {
  // Worker tasks perpetually resubmit themselves while the main thread
  // destroys the pool. The destructor must drain every accepted task,
  // and a Submit that loses the race against shutdown must report
  // rejection instead of queueing a task no worker will ever run
  // (which would also wedge a later Wait). TSan-checked in the tsan CI
  // leg; the chains only die by rejection, so rejections == chains.
  constexpr int kChains = 16;
  std::atomic<int> executed{0};
  std::atomic<int> rejected{0};
  std::function<void()> chain;
  {
    ThreadPool pool(4);
    chain = [&pool, &executed, &rejected, &chain] {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (!pool.Submit(chain)) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    };
    for (int i = 0; i < kChains; ++i) ASSERT_TRUE(pool.Submit(chain));
    // Let the chains spin so destruction happens mid-flight.
    while (executed.load(std::memory_order_relaxed) < kChains) {
      std::this_thread::yield();
    }
  }  // ~ThreadPool races the resubmitting tasks
  EXPECT_GE(executed.load(), kChains);
  EXPECT_EQ(rejected.load(), kChains);
}

TEST(ThreadPool, SubmitAfterShutdownStartedReturnsFalse) {
  // Deterministic single-task variant: the task waits until the main
  // thread has begun destruction, then observes its resubmit rejected.
  std::atomic<bool> destructing{false};
  std::atomic<bool> saw_rejection{false};
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      while (!destructing.load()) std::this_thread::yield();
      // The destructor has set the shutdown flag (it does so before
      // joining, and we are the joined thread still running).
      while (pool.Submit([] {})) {
        // Extremely narrow window: destructing was observed before the
        // destructor took the pool mutex. Retry until the flag lands.
        std::this_thread::yield();
      }
      saw_rejection.store(true);
    });
    destructing.store(true);
  }
  EXPECT_TRUE(saw_rejection.load());
}

}  // namespace
}  // namespace gfd
