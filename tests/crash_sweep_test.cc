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
// Three legs run it: one GraphStore, a Coordinator over 2 fragments, and
// that Coordinator with a Rebalance between two batches, before a
// compaction. The rebalance consumes one seq, whose feed event is an
// empty diff (the graph is unchanged); after each crash that leg also
// checks that
//   5. the recovered ownership is the pre- or the post-rebalance table
//      (the post one once the rebalance's seq is recovered), and every
//      fragment holds exactly the resident subgraph of the recovered
//      global graph under it.
// One child at a time; the parent holds no threads when it forks.
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
#include "graph/subgraph.h"
#include "net/feed_service.h"
#include "parallel/fragment.h"
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

enum class Leg { kSingleStore, kCoordinator, kRebalance };

bool Distributed(Leg leg) { return leg != Leg::kSingleStore; }

// The rebalance leg's ownership move, made just before batch `before`.
struct Move {
  size_t before = 1;
  NodeId node = kNoNode;
  uint32_t to = 0;
  std::vector<uint32_t> pre_owners;
  std::vector<uint32_t> post_owners;
};

struct Script {
  PropertyGraph g;
  std::unique_ptr<ViolationEngine> engine;
  std::vector<std::string> batches;  ///< each valid after the ones before
  std::optional<Move> move;          ///< the rebalance leg only
  /// Seqs the script consumes: one per batch, plus the rebalance's.
  size_t seqs() const { return batches.size() + (move ? 1 : 0); }
};

Script MakeScript(const std::string& dir, Leg leg) {
  Script s;
  // The rebalance leg's graph is sparse enough that a 3-hop halo does not
  // cover it, so an ownership move shifts what fragments store.
  const bool sparse = leg == Leg::kRebalance;
  s.g = MakeSynthetic({.nodes = 50,
                       .edges = sparse ? size_t{60} : size_t{150},
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
  if (leg == Leg::kRebalance) {
    // Move the first node with incident edges whose move shifts the
    // halo to the other fragment, from the owners Coordinator::Init
    // assigns, at its default radius.
    Partition p = VertexCutPartition(s.g, 2).partition;
    p.halo_radius = 3;
    const FragmentResidency before = ComputeResidency(s.g, p);
    Move m;
    m.pre_owners = p.node_owner;
    for (NodeId v = 0; v < s.g.NumNodes() && m.node == kNoNode; ++v) {
      p.node_owner = m.pre_owners;
      p.node_owner[v] = 1 - m.pre_owners[v];
      if (s.g.Degree(v) > 0 && ComputeResidency(s.g, p) != before) {
        m.node = v;
        m.to = p.node_owner[v];
        m.post_owners = p.node_owner;
      }
    }
    EXPECT_NE(m.node, kNoNode) << "no single move shifts the halo";
    s.move = std::move(m);
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

// Runs where the server would answer 200 for batch `seq`.
using Ack = std::function<void(uint64_t seq, const ServingStore& store)>;

// One `serve run` process over `dir`: open, prime, then every batch as
// FeedService::Ingest serves it (with the rebalance leg's move before
// its batch). False on any unexpected error.
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
  for (size_t i = 0; i < s.batches.size(); ++i) {
    if (s.move && i == s.move->before) {
      auto& coord = dynamic_cast<Coordinator&>(*store);
      auto seq = coord.Rebalance(s.move->node, s.move->to);
      if (!seq ||
          !feed->Publish(*seq,
                         SerializeDiffPayload(coord.view(), s.engine->rules(),
                                              IncrementalDiff{}),
                         MetaCount{count, *seq, fp})) {
        return false;
      }
      ack(*seq, *store);
    }
    const std::string& batch = s.batches[i];
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
  std::vector<FeedEvent> events;                 ///< seqs 1..s.seqs()
};

struct SweepTotals {
  size_t crashes = 0;
  size_t from_meta = 0;
  size_t from_feed = 0;
  size_t scans = 0;
};

// A fragment's edges and its resident nodes' attributes, by name. With
// `only_resident`, edges leaving `resident` are skipped (for the global
// graph); a fragment must hold no such edge at all.
std::vector<std::string> ResidentLines(const PropertyGraph& g,
                                       const std::vector<char>& resident,
                                       bool only_resident) {
  std::vector<std::string> out;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const NodeId src = g.EdgeSrc(e);
    const NodeId dst = g.EdgeDst(e);
    if (only_resident && !(resident[src] && resident[dst])) continue;
    out.push_back("E " + g.NodeAlias(src) + " " + g.NodeAlias(dst) + " " +
                  g.LabelName(g.EdgeLabel(e)));
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!resident[v]) continue;
    for (const Attribute& a : g.NodeAttrs(v)) {
      out.push_back("A " + g.NodeAlias(v) + " " + g.AttrName(a.key) + "=" +
                    g.ValueName(a.value));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Property 5: the recovered ownership and the fragments it lays out.
void CheckOwnership(const Script& s, const Coordinator& coord,
                    const PropertyGraph& current) {
  const std::vector<uint32_t> owners(coord.node_owner().begin(),
                                     coord.node_owner().end());
  EXPECT_TRUE(owners == s.move->pre_owners || owners == s.move->post_owners)
      << "ownership is neither the pre- nor the post-rebalance table";
  if (coord.last_seq() > s.move->before) {
    EXPECT_EQ(owners, s.move->post_owners) << "the rebalance's seq is in";
  }
  const FragmentResidency resident =
      ComputeResidency(current, coord.partition());
  for (size_t f = 0; f < coord.num_fragments(); ++f) {
    EXPECT_EQ(ResidentLines(coord.fragment(f).view().Materialize(),
                            resident[f], /*only_resident=*/false),
              ResidentLines(current, resident[f], /*only_resident=*/true))
        << "fragment " << f << " is not the resident subgraph";
  }
}

// Reopens `dir` after the child stopped (crashed or done) with `acked`
// seqs acknowledged, and checks the recovery properties.
void CheckRecovery(const Script& s, const Reference& ref,
                   const std::string& dir, bool distributed, uint64_t acked,
                   SweepTotals* totals) {
  auto store = OpenServing(dir, distributed);
  ASSERT_NE(store, nullptr);
  const uint64_t seq = store->last_seq();
  ASSERT_GE(seq, acked) << "an acknowledged batch was lost";
  ASSERT_LE(seq, s.seqs());
  const PropertyGraph current = store->MaterializeCurrent();
  EXPECT_EQ(testing::CanonicalLines(current), ref.states[seq])
      << "not a script prefix";
  if (s.move) CheckOwnership(s, dynamic_cast<Coordinator&>(*store), current);

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

SweepTotals Sweep(Leg leg) {
  SweepTotals totals;
  const bool distributed = Distributed(leg);
  const char* names[] = {"gfd_sweep_single", "gfd_sweep_coord",
                         "gfd_sweep_rebalance"};
  const std::string dir = ::testing::TempDir() + names[static_cast<int>(leg)];
  const Script s = MakeScript(dir + "_script", leg);
  EXPECT_EQ(s.batches.size(), kBatches);

  // The uncrashed run every recovery is checked against.
  Reference ref;
  ref.states.push_back(testing::CanonicalLines(s.g));
  size_t compactions = 0;
  auto record = [&](uint64_t, const ServingStore& store) {
    ref.states.push_back(testing::CanonicalLines(store.MaterializeCurrent()));
    compactions = store.MetricsSnapshot().compactions;
  };
  InitDir(dir, s.g, distributed);
  EXPECT_TRUE(RunScript(s, dir, distributed, record));
  EXPECT_EQ(ref.states.size(), s.seqs() + 1);
  EXPECT_GE(compactions, 1u) << "the script must compact at least once";
  if (auto feed = ViolationChangefeed::Open(dir, s.seqs())) {
    feed->Subscribe(0, 1, &ref.events);
  }
  EXPECT_EQ(ref.events.size(), s.seqs());
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
      EXPECT_EQ(acked, s.seqs());
      break;
    }
    ++totals.crashes;
  }
  return totals;
}

TEST(CrashSweep, ServingStepOnASingleStore) {
  SweepTotals t = Sweep(Leg::kSingleStore);
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
  SweepTotals t = Sweep(Leg::kCoordinator);
  EXPECT_GE(t.crashes, 4 * kBatches);
  EXPECT_GT(t.from_meta, 0u);
  EXPECT_GT(t.from_feed, 0u);
  EXPECT_GT(t.scans, 0u);
}

TEST(CrashSweep, RebalanceBetweenBatchesOnATwoFragmentCoordinator) {
  SweepTotals t = Sweep(Leg::kRebalance);
  // The batches' write points plus the rebalance's: its owner table and
  // its journal record.
  EXPECT_GE(t.crashes, 4 * kBatches + 4);
  EXPECT_GT(t.from_meta, 0u);
  EXPECT_GT(t.from_feed, 0u);
  EXPECT_GT(t.scans, 0u);
}

}  // namespace
}  // namespace gfd
