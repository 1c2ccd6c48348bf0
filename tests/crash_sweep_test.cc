// Crash-point sweep of the serving step. A fixed ingest script -- open,
// Prime, then per batch ServeStep -> Publish with the count ->
// MaybeCompact, as FeedService::Ingest serves a batch -- runs in a forked
// child armed to die at durable write point k (CrashAtWritePoint in
// serve/durable_io.h), for every k until the script completes. After
// each crash the parent reopens the store and the feed and primes a
// FeedService, as a restarted `gfdtool serve run` does, and checks:
//   1. the recovered seq covers every acknowledged batch, and the graph
//      is the script's prefix at that seq;
//   2. the feed continues at the store's seq, replaying the script's
//      events, or reports reset_on_open;
//   3. the primed count equals a full Detect of the recovered graph;
//   4. Prime scans only when neither the meta nor the feed's last record
//      holds a count at that seq.
// Both backends run it: one GraphStore, and a Coordinator over 2
// fragments. One child at a time; the parent holds no threads when it
// forks.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "gfd/serialize.h"
#include "net/feed_service.h"
#include "serve/changefeed.h"
#include "serve/coordinator.h"
#include "serve/durable_io.h"
#include "serve/graph_store.h"
#include "testlib.h"
#include "util/rng.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;

constexpr size_t kBatches = 6;
// Low enough that the script compacts at least once on either backend.
constexpr size_t kCompactOps = 10;

struct Script {
  PropertyGraph g;
  std::unique_ptr<ViolationEngine> engine;
  std::vector<std::string> batches;  ///< each valid after the ones before
};

Script MakeScript(const std::string& dir) {
  Script s;
  s.g = MakeSynthetic({.nodes = 50,
                       .edges = 150,
                       .node_labels = 4,
                       .edge_labels = 3,
                       .attrs = 3,
                       .values = 8,
                       .value_correlation = 0.9,
                       .seed = 19});
  s.engine = std::make_unique<ViolationEngine>(
      GenerateGfdSet(s.g, {.count = 8, .k = 2, .seed = 5}));
  // Batches that apply in order: each drawn against the state the ones
  // before it leave, kept only when a scratch store at `dir` accepts it.
  fs::remove_all(dir);
  EXPECT_TRUE(GraphStore::Init(dir, s.g));
  auto store = GraphStore::Open(dir);
  EXPECT_TRUE(store.has_value());
  Rng rng(29);
  while (store && s.batches.size() < kBatches) {
    PropertyGraph cur = store->MaterializeCurrent();
    std::string batch =
        testing::DeltaBytes(cur, testing::RandomBatch(cur, rng, 5));
    if (store->Append(batch)) s.batches.push_back(std::move(batch));
  }
  return s;
}

void InitDir(const std::string& dir, const PropertyGraph& g, bool distributed) {
  fs::remove_all(dir);
  if (distributed) {
    ASSERT_TRUE(Coordinator::Init(dir, g, /*fragments=*/2));
  } else {
    ASSERT_TRUE(GraphStore::Init(dir, g));
  }
}

std::unique_ptr<ServingStore> OpenServing(const std::string& dir,
                                          bool distributed) {
  GraphStoreOptions sopts;
  sopts.compact_min_ops = kCompactOps;
  if (distributed) {
    auto c = Coordinator::Open(dir, {.store = sopts});
    return c ? std::make_unique<Coordinator>(std::move(*c)) : nullptr;
  }
  auto s = GraphStore::Open(dir, sopts);
  return s ? std::make_unique<GraphStore>(std::move(*s)) : nullptr;
}

// Order-free form of a graph, by names: recovery may hold the same
// state as a different snapshot/overlay split.
std::vector<std::string> Canonical(const PropertyGraph& g) {
  std::vector<std::string> out;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::vector<std::string> attrs;
    for (const Attribute& a : g.NodeAttrs(v)) {
      attrs.push_back(g.AttrName(a.key) + "=" + g.ValueName(a.value));
    }
    std::sort(attrs.begin(), attrs.end());
    std::string line = "N " + g.NodeAlias(v);
    line += " " + g.LabelName(g.NodeLabel(v));
    for (const std::string& a : attrs) line += " " + a;
    out.push_back(std::move(line));
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    std::string line = "E " + g.NodeAlias(g.EdgeSrc(e));
    line += " " + g.NodeAlias(g.EdgeDst(e));
    line += " " + g.LabelName(g.EdgeLabel(e));
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs where the server would answer 200 for batch `seq`.
using Ack = std::function<void(uint64_t seq, const ServingStore& store)>;

// One `serve run` process over `dir`: open, prime, then every batch as
// FeedService::Ingest serves it. False on any unexpected error.
bool RunScript(const Script& s, const std::string& dir, bool distributed,
               const Ack& ack) {
  auto store = OpenServing(dir, distributed);
  if (!store) return false;
  auto feed = ViolationChangefeed::Open(dir, store->last_seq());
  if (!feed) return false;
  net::FeedService service(*store, *s.engine, *feed, {});
  uint64_t count = service.Prime();
  const uint64_t fp =
      RuleSetFingerprint(s.engine->rules(), store->MaterializeCurrent());
  for (const std::string& batch : s.batches) {
    auto step = ServeStep(*store, *s.engine, batch, count);
    if (!step) return false;
    count = step->count;
    if (!feed->Publish(step->seq, step->diff.payload,
                       MetaCount{count, step->seq, fp}) ||
        !store->MaybeCompact()) {
      return false;
    }
    ack(step->seq, *store);
  }
  return true;
}

struct Reference {
  std::vector<std::vector<std::string>> states;  ///< by seq, 0 = initial
  std::vector<FeedEvent> events;                 ///< seqs 1..kBatches
};

struct SweepTotals {
  size_t crashes = 0;
  size_t from_meta = 0;
  size_t from_feed = 0;
  size_t scans = 0;
};

// Reopens `dir` after the child stopped (crashed or done) with `acked`
// batches acknowledged, and checks the four recovery properties.
void CheckRecovery(const Script& s, const Reference& ref,
                   const std::string& dir, bool distributed, uint64_t acked,
                   SweepTotals* totals) {
  auto store = OpenServing(dir, distributed);
  ASSERT_NE(store, nullptr);
  const uint64_t seq = store->last_seq();
  ASSERT_GE(seq, acked) << "an acknowledged batch was lost";
  ASSERT_LE(seq, kBatches);
  const PropertyGraph current = store->MaterializeCurrent();
  EXPECT_EQ(Canonical(current), ref.states[seq]) << "not a script prefix";

  // The feed continues at the store's seq: what it still holds are the
  // script's events up to that seq (a crash before the first feed append
  // leaves an empty log, which continues anywhere).
  auto feed = ViolationChangefeed::Open(dir, seq);
  ASSERT_NE(feed, nullptr);
  EXPECT_EQ(feed->last_seq(), seq);
  std::vector<FeedEvent> replay;
  feed->Subscribe(0, 1, &replay);
  if (feed->reset_on_open()) {
    EXPECT_TRUE(replay.empty());
  } else {
    ASSERT_LE(replay.size(), seq);
    const auto end = ref.events.begin() + seq;
    EXPECT_EQ(replay, std::vector<FeedEvent>(end - replay.size(), end));
  }

  const uint64_t fp = RuleSetFingerprint(s.engine->rules(), current);
  const bool meta_holds = store->violation_count(fp).has_value();
  const std::optional<MetaCount> fed = feed->last_count();
  const bool feed_holds = fed && fed->seq == seq && fed->fingerprint == fp;
  net::CountSource want = net::CountSource::kScan;
  if (meta_holds) {
    want = net::CountSource::kMeta;
  } else if (feed_holds) {
    want = net::CountSource::kFeed;
  }
  net::FeedService service(*store, *s.engine, *feed, {});
  net::CountSource source = net::CountSource::kScan;
  EXPECT_EQ(service.Prime(&source),
            s.engine->Detect(current).violations.size());
  EXPECT_EQ(source, want);
  totals->from_meta += source == net::CountSource::kMeta;
  totals->from_feed += source == net::CountSource::kFeed;
  totals->scans += source == net::CountSource::kScan;
}

SweepTotals Sweep(bool distributed) {
  SweepTotals totals;
  const char* name = distributed ? "gfd_sweep_coord" : "gfd_sweep_single";
  const std::string dir = ::testing::TempDir() + name;
  const Script s = MakeScript(dir + "_script");
  EXPECT_EQ(s.batches.size(), kBatches);

  // The uncrashed run every recovery is checked against.
  Reference ref;
  ref.states.push_back(Canonical(s.g));
  size_t compactions = 0;
  auto record = [&](uint64_t, const ServingStore& store) {
    ref.states.push_back(Canonical(store.MaterializeCurrent()));
    compactions = store.MetricsSnapshot().compactions;
  };
  InitDir(dir, s.g, distributed);
  EXPECT_TRUE(RunScript(s, dir, distributed, record));
  EXPECT_EQ(ref.states.size(), kBatches + 1);
  EXPECT_GE(compactions, 1u) << "the script must compact at least once";
  if (auto feed = ViolationChangefeed::Open(dir, kBatches)) {
    feed->Subscribe(0, 1, &ref.events);
  }
  EXPECT_EQ(ref.events.size(), kBatches);
  if (::testing::Test::HasFailure()) return totals;

  for (int64_t k = 0;; ++k) {
    SCOPED_TRACE("crash at write point " + std::to_string(k));
    InitDir(dir, s.g, distributed);
    int acks[2];
    if (::pipe(acks) != 0) {
      ADD_FAILURE() << "pipe failed";
      break;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(acks[0]);
      auto report = [&](uint64_t seq, const ServingStore&) {
        const char b = static_cast<char>(seq);
        (void)!::write(acks[1], &b, 1);
      };
      CrashAtWritePoint(k);
      std::_Exit(RunScript(s, dir, distributed, report) ? 0 : 1);
    }
    ::close(acks[1]);
    int status = 0;
    const bool reaped = pid > 0 && ::waitpid(pid, &status, 0) == pid;
    uint64_t acked = 0;
    char b = 0;
    while (::read(acks[0], &b, 1) == 1) acked = static_cast<uint64_t>(b);
    ::close(acks[0]);
    if (!reaped || !WIFEXITED(status) ||
        (WEXITSTATUS(status) != 0 && WEXITSTATUS(status) != kCrashExitCode)) {
      ADD_FAILURE() << "child did not crash or finish cleanly (status "
                    << status << ")";
      break;
    }
    CheckRecovery(s, ref, dir, distributed, acked, &totals);
    if (::testing::Test::HasFailure()) break;
    if (WEXITSTATUS(status) == 0) {
      // Past the last write point: the script ran to completion.
      EXPECT_EQ(acked, kBatches);
      break;
    }
    ++totals.crashes;
  }
  return totals;
}

TEST(CrashSweep, ServingStepOnASingleStore) {
  SweepTotals t = Sweep(/*distributed=*/false);
  // Every batch writes the delta log and the feed; compaction and the
  // seeding scan's meta write add more.
  EXPECT_GE(t.crashes, 4 * kBatches);
  // Every source is hit: the seeding scan's meta count until the first
  // batch is durable, then mostly the feed's; a crash between the log
  // append and the feed append must fall back to a scan.
  EXPECT_GT(t.from_meta, 0u);
  EXPECT_GT(t.from_feed, 0u);
  EXPECT_GT(t.scans, 0u);
}

TEST(CrashSweep, ServingStepOnATwoFragmentCoordinator) {
  SweepTotals t = Sweep(/*distributed=*/true);
  EXPECT_GE(t.crashes, 4 * kBatches);
  EXPECT_GT(t.from_meta, 0u);
  EXPECT_GT(t.from_feed, 0u);
  EXPECT_GT(t.scans, 0u);
}

}  // namespace
}  // namespace gfd
