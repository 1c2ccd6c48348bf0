#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <system_error>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/generation_tree.h"
#include "datagen/kb.h"
#include "graph/stats.h"
#include "parallel/cluster.h"
#include "util/timer.h"

namespace gfd {
namespace {

TEST(Cluster, RunStepVisitsEveryWorkerOnce) {
  Cluster c(6);
  std::vector<int> hits(6, 0);
  c.RunStep([&](size_t w) { ++hits[w]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(c.num_workers(), 6u);
}

TEST(Cluster, OneWorkerRunsEveryStepOnTheCaller) {
  Cluster c(1);
  std::thread::id ran;
  for (int step = 0; step < 3; ++step) {
    ran = std::thread::id();
    c.RunStep([&](size_t w) {
      EXPECT_EQ(w, 0u);
      ran = std::this_thread::get_id();
    });
    EXPECT_EQ(ran, std::this_thread::get_id());
  }
}

// A step runs all n workers at once: the caller as worker 0 and n - 1
// pool threads. Each worker waits until every other one has arrived, so
// a step short of a thread would give up here instead of finishing.
TEST(Cluster, StepRunsEveryWorkerAtOnce) {
  constexpr size_t kWorkers = 4;
  Cluster c(kWorkers);
  std::atomic<size_t> arrived{0};
  std::vector<char> met(kWorkers, 0);
  std::vector<std::thread::id> ids(kWorkers);
  c.RunStep([&](size_t w) {
    arrived.fetch_add(1);
    WallTimer t;
    while (arrived.load() < kWorkers && t.Seconds() < 10) {
      std::this_thread::yield();
    }
    met[w] = arrived.load() == kWorkers;
    ids[w] = std::this_thread::get_id();
  });
  for (size_t w = 0; w < kWorkers; ++w) EXPECT_TRUE(met[w]) << "worker " << w;
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// Worker 0 is the caller, so a cluster of n workers starts n - 1
// threads and a one-worker cluster none (counted in /proc/self/task).
TEST(Cluster, StartsOneThreadPerWorkerBeyondTheCaller) {
  auto threads = [] {
    std::error_code ec;
    size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec)) {
      ++n;
    }
    return n;
  };
  const size_t base = threads();
  if (base == 0) GTEST_SKIP() << "no /proc/self/task to count threads in";
  for (size_t n : {1, 2, 4}) {
    Cluster c(n);
    EXPECT_EQ(threads(), base + n - 1) << n << " worker(s)";
  }
  EXPECT_EQ(threads(), base);
}

TEST(Cluster, ShipmentAccounting) {
  Cluster c(4);
  EXPECT_EQ(c.messages(), 0u);
  EXPECT_EQ(c.bytes(), 0u);
  c.CountShipment(100, 8);
  EXPECT_EQ(c.messages(), 1u);
  EXPECT_EQ(c.bytes(), 800u);
  c.CountBroadcast(10, 4);
  EXPECT_EQ(c.messages(), 5u);         // 1 + 4 workers
  EXPECT_EQ(c.bytes(), 800u + 160u);   // + 4 * 10 * 4
}

TEST(Cluster, ConcurrentAccountingIsAtomic) {
  Cluster c(8);
  c.RunStep([&](size_t) {
    for (int i = 0; i < 1000; ++i) c.CountShipment(1, 1);
  });
  EXPECT_EQ(c.messages(), 8000u);
  EXPECT_EQ(c.bytes(), 8000u);
}

TEST(WallTimerTest, MeasuresElapsedAndResets) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + i * 0.5;
  double first = t.Seconds();
  EXPECT_GT(first, 0.0);
  double a = t.Millis();
  double b = t.Millis();
  EXPECT_LE(a, b);  // monotone clock
  t.Reset();
  EXPECT_LE(t.Seconds(), first + 1.0);
}

// Path-pattern-only VSpawn (the GCFD restriction).
TEST(PathOnlySpawn, GrowsChainsFromTheTailOnly) {
  auto g = MakeYago2Like({.scale = 150, .seed = 3});
  GraphStats stats(g);
  DiscoveryConfig cfg;
  cfg.support_threshold = 8;
  cfg.k = 3;
  cfg.path_patterns_only = true;
  cfg.wildcard_upgrades = false;
  DiscoveryStats ds;
  GenerationTree tree;
  auto l0 = InitTree(tree, stats, cfg, ds);
  for (int id : l0) {
    tree.node(id).verified = true;
    tree.node(id).frequent = true;
  }
  auto triples = stats.FrequentTriples(cfg.support_threshold);
  auto l1 = VSpawn(tree, 1, triples, {}, cfg, ds);
  for (int id : l1) {
    const auto& p = tree.node(id).pattern;
    ASSERT_EQ(p.NumEdges(), 1u);
    EXPECT_EQ(p.edges()[0].src, 0u);
    EXPECT_EQ(p.edges()[0].dst, 1u);
    tree.node(id).verified = true;
    tree.node(id).frequent = true;
  }
  auto l2 = VSpawn(tree, 2, triples, {}, cfg, ds);
  ASSERT_FALSE(l2.empty());
  for (int id : l2) {
    const auto& p = tree.node(id).pattern;
    ASSERT_EQ(p.NumEdges(), 2u);
    // Second edge extends the tail variable (1 -> 2), never closes back.
    EXPECT_EQ(p.edges()[1].src, 1u);
    EXPECT_EQ(p.edges()[1].dst, 2u);
  }
}

TEST(DbpediaMarriages, SpousesShareFamilyName) {
  auto g = MakeDbpediaLike({.scale = 200, .seed = 11});
  auto married = g.FindLabel("isMarriedTo");
  ASSERT_TRUE(married.has_value());
  AttrId fam = *g.FindAttr("familyname");
  size_t checked = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (g.EdgeLabel(e) != *married) continue;
    auto f1 = g.GetAttr(g.EdgeSrc(e), fam);
    auto f2 = g.GetAttr(g.EdgeDst(e), fam);
    ASSERT_TRUE(f1 && f2);
    EXPECT_EQ(*f1, *f2);
    // Symmetric edges present.
    EXPECT_TRUE(g.HasEdge(g.EdgeDst(e), g.EdgeSrc(e), *married));
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(DbpediaMarriages, FamilyInvariantStillHolds) {
  auto g = MakeDbpediaLike({.scale = 200, .seed = 11});
  AttrId fam = *g.FindAttr("familyname");
  LabelId child = *g.FindLabel("hasChild");
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (g.EdgeLabel(e) != child) continue;
    auto f1 = g.GetAttr(g.EdgeSrc(e), fam);
    auto f2 = g.GetAttr(g.EdgeDst(e), fam);
    ASSERT_TRUE(f1 && f2);
    EXPECT_EQ(*f1, *f2) << "marriage pool leaked into family pool";
  }
}

}  // namespace
}  // namespace gfd
