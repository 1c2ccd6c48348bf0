// Crash-point sweep of the serving step. A fixed ingest script -- open,
// Prime, then per batch ServeStep -> Publish with the count ->
// MaybeCompact, as FeedService::Ingest serves a batch -- runs in a forked
// child armed to die at durable write point k (CrashAtWritePoint in
// serve/durable_io.h), for every k until the script completes. After
// each crash the parent reopens the store and the feed and primes a
// FeedService, as a restarted `gfdtool serve run` does, and checks:
//   1. the recovered seq covers every acknowledged batch, and the graph
//      is the script's prefix at that seq;
//   2. Prime never resets the feed, and leaves it level with the store:
//      feed.log holds the script's records up to the store's seq, byte
//      for byte, a record it re-derived from the store's log (a crash
//      between the deltas.log and feed.log appends) included;
//   3. the primed count equals a full Detect of the recovered graph;
//   4. Prime takes the count from the meta when it holds one at that seq,
//      else from the level feed, and scans only before the first batch
//      with no count persisted.
// A process crash keeps every record the feed wrote; a machine crash can
// lose the ones written since its last fsync, which a compaction makes
// before it re-anchors the store's log. So after each crash the sweep
// also cuts feed.log back to every record boundary from the store's
// anchor to its end, on a copy, and checks the same properties there.
// Three legs run it: one GraphStore, a Coordinator over 2 fragments, and
// that Coordinator with a Rebalance between two batches, before a
// compaction. On both coordinator legs the residency masks must be those
// of the recovered graph under the recovered owner table. The rebalance
// rewrites the owner table alone -- it consumes no seq and publishes
// nothing -- and after each crash that leg also checks that
//   5. the recovered ownership is the pre- or the post-rebalance table
//      (the post one once a batch after the move is recovered).
// One more sweep crashes what precedes serving on a coordinator:
// Coordinator::Init, whose directory must then open as initialized or
// accept a second Init.
// One child at a time; the parent holds no threads when it forks.
//
// A failure sweep runs the same script in process, failing write point k
// (FailAtWritePoint: an error return, not a crash) for every k, on the
// same three legs. A failed record write or fsync must fail the batch's
// step and leave the store as it was before it -- seq, graph, deltas.log
// and feed.log bytes, count -- and re-sending the batch must get the same
// seq; every batch's diff must be byte-identical to the uncrashed run's.
// It is the one test of an fsync that fails after its batch was absorbed
// and stepped. A failed feed write or compaction leaves the batch
// acknowledged: the store reopens to its seq and graph, and recovers as
// the crash sweep requires. A failed rebalance -- either write point of
// the owner table's rewrite -- leaves the old table, in memory and on
// disk, and the store as it was, and the move is re-sent.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "gfd/serialize.h"
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
  std::shared_ptr<const ViolationEngine> engine;
  std::vector<std::string> batches;  ///< each valid after the ones before
  std::optional<Move> move;          ///< the rebalance leg only
  /// Seqs the script consumes: one per batch (a rebalance takes none).
  size_t seqs() const { return batches.size(); }
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
  s.engine = std::make_shared<const ViolationEngine>(
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
      if (!coord.Rebalance(s.move->node, s.move->to)) return false;
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
  std::string feed_log;                          ///< the whole feed.log
};

struct SweepTotals {
  size_t crashes = 0;
  size_t from_meta = 0;
  size_t from_feed = 0;
  size_t scans = 0;
  size_t catchups = 0;    ///< crashes whose Prime re-derived a record
  size_t lost_tails = 0;  ///< feed.log cuts re-derived
};

// The byte offset where each record of a feed.log ends, by position
// (deltas.log framing: `R <seq> <bytes> <crc>` then the payload and a
// newline), after a leading 0 for the empty log.
std::vector<size_t> RecordEnds(const std::string& log) {
  std::vector<size_t> ends{0};
  for (size_t pos = 0; pos < log.size();) {
    const size_t eol = log.find('\n', pos);
    std::istringstream header(log.substr(pos, eol - pos));
    std::string tag;
    uint64_t seq = 0;
    size_t bytes = 0;
    header >> tag >> seq >> bytes;
    pos = eol + 1 + bytes + 1;
    ends.push_back(pos);
  }
  return ends;
}

// The anchor store.meta in `dir` commits.
uint64_t AnchorOf(const std::string& dir) {
  std::istringstream meta(testing::ReadFileBytes(dir + "/store.meta"));
  for (std::string key; meta >> key;) {
    if (key == "anchor") {
      uint64_t anchor = 0;
      meta >> anchor;
      return anchor;
    }
  }
  ADD_FAILURE() << "no anchor in " << dir << "/store.meta";
  return 0;
}

// The coordinator's residency masks are those of `current`, the
// recovered global graph, under its owner table.
void ExpectResidencyOf(const Coordinator& coord, const PropertyGraph& current) {
  EXPECT_EQ(coord.residency(), ComputeResidency(current, coord.partition()))
      << "the masks are not the recovered graph's";
}

// Property 5: the recovered ownership.
void CheckOwnership(const Script& s, const Coordinator& coord) {
  const std::vector<uint32_t> owners(coord.node_owner().begin(),
                                     coord.node_owner().end());
  EXPECT_TRUE(owners == s.move->pre_owners || owners == s.move->post_owners)
      << "ownership is neither the pre- nor the post-rebalance table";
  if (coord.last_seq() > s.move->before) {
    EXPECT_EQ(owners, s.move->post_owners) << "a batch after the move is in";
  }
}

// Reopens `dir` after the child stopped (crashed or done) with `acked`
// seqs acknowledged, primes it as a restarted server does (`*primed`
// says how), and checks the recovery properties.
void CheckRecovery(const Script& s, const Reference& ref,
                   const std::string& dir, bool distributed, uint64_t acked,
                   SweepTotals* totals, net::PrimeReport* primed) {
  auto store = OpenServing(dir, distributed);
  ASSERT_NE(store, nullptr);
  const uint64_t seq = store->last_seq();
  ASSERT_GE(seq, acked) << "an acknowledged batch was lost";
  ASSERT_LE(seq, s.seqs());
  const PropertyGraph current = store->MaterializeCurrent();
  EXPECT_EQ(testing::CanonicalLines(current), ref.states[seq])
      << "not a script prefix";
  if (s.move) CheckOwnership(s, dynamic_cast<Coordinator&>(*store));
  if (distributed) {
    ExpectResidencyOf(dynamic_cast<Coordinator&>(*store), current);
  }

  const uint64_t fp = RuleSetFingerprint(s.engine->rules(), current);
  net::CountSource want = net::CountSource::kScan;
  if (store->violation_count(fp).has_value()) {
    want = net::CountSource::kMeta;
  } else if (seq > 0) {
    want = net::CountSource::kFeed;
  }
  auto feed = ViolationChangefeed::Open(dir, seq);
  ASSERT_NE(feed, nullptr);
  net::FeedService service(*store, *s.engine, *feed, {});
  EXPECT_EQ(service.Prime(primed),
            s.engine->Detect(current).violations.size());
  EXPECT_EQ(primed->source, want);
  EXPECT_FALSE(primed->feed_reset);
  totals->from_meta += primed->source == net::CountSource::kMeta;
  totals->from_feed += primed->source == net::CountSource::kFeed;
  totals->scans += primed->source == net::CountSource::kScan;

  // The feed is level, and what it holds is the script's.
  EXPECT_EQ(feed->last_seq(), seq);
  std::vector<FeedEvent> replay;
  feed->Subscribe(0, 1, &replay);
  EXPECT_EQ(replay, std::vector<FeedEvent>(ref.events.begin(),
                                           ref.events.begin() + seq));
  EXPECT_EQ(testing::ReadFileBytes(dir + "/feed.log"),
            ref.feed_log.substr(0, RecordEnds(ref.feed_log)[seq]));
}

// A machine crash after the child stopped: on a copy of `dir` per cut,
// feed.log loses its records past each boundary from the store's anchor
// -- the last record a compaction synced -- to its end, and Prime
// re-derives every lost record, recovering as CheckRecovery requires.
void CheckLostFeedTails(const Script& s, const Reference& ref,
                        const std::string& dir, bool distributed,
                        uint64_t acked, SweepTotals* totals) {
  const std::string feed_log = testing::ReadFileBytes(dir + "/feed.log");
  const std::vector<size_t> ends = RecordEnds(feed_log);
  const std::string cut_dir = dir + "_cut";
  for (uint64_t keep = AnchorOf(dir); keep + 1 < ends.size(); ++keep) {
    SCOPED_TRACE("feed.log cut back to record " + std::to_string(keep));
    fs::remove_all(cut_dir);
    fs::copy(dir, cut_dir, fs::copy_options::recursive);
    fs::resize_file(cut_dir + "/feed.log", ends[keep]);
    net::PrimeReport primed;
    CheckRecovery(s, ref, cut_dir, distributed, acked, totals, &primed);
    EXPECT_GE(primed.caught_up, ends.size() - 1 - keep);
    if (::testing::Test::HasFailure()) return;
    ++totals->lost_tails;
  }
}

// Runs `body` in a forked child armed to die at durable write point k
// and returns the child's exit code: kCrashExitCode when it died there,
// 0 when `body` ran to completion and returned true. Any other code
// (including -1, a child that was not reaped) is a failure.
int RunChildCrashingAt(int64_t k, const std::function<bool()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    CrashAtWritePoint(k);
    std::_Exit(body() ? 0 : 1);
  }
  int status = 0;
  if (pid <= 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
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
  ref.feed_log = testing::ReadFileBytes(dir + "/feed.log");
  EXPECT_EQ(RecordEnds(ref.feed_log).size(), s.seqs() + 1);
  if (::testing::Test::HasFailure()) return totals;

  for (int64_t k = 0;; ++k) {
    SCOPED_TRACE("crash at write point " + std::to_string(k));
    InitDir(dir, s.g, distributed);
    int acks[2];
    if (::pipe(acks) != 0) {
      ADD_FAILURE() << "pipe failed";
      break;
    }
    // The acks are a few bytes: the child never blocks on the pipe.
    const int status = RunChildCrashingAt(k, [&] {
      auto report = [&](uint64_t seq, const ServingStore&) {
        const char b = static_cast<char>(seq);
        (void)!::write(acks[1], &b, 1);
      };
      return RunScript(s, dir, distributed, report);
    });
    ::close(acks[1]);
    uint64_t acked = 0;
    char b = 0;
    while (::read(acks[0], &b, 1) == 1) acked = static_cast<uint64_t>(b);
    ::close(acks[0]);
    if (status != 0 && status != kCrashExitCode) {
      ADD_FAILURE() << "child did not crash or finish cleanly (exit "
                    << status << ")";
      break;
    }
    CheckLostFeedTails(s, ref, dir, distributed, acked, &totals);
    net::PrimeReport primed;
    CheckRecovery(s, ref, dir, distributed, acked, &totals, &primed);
    // At most the batch in flight reached the store and not the feed.
    EXPECT_LE(primed.caught_up, 1u);
    totals.catchups += primed.caught_up > 0;
    if (::testing::Test::HasFailure()) break;
    if (status == 0) {
      // Past the last write point: the script ran to completion.
      EXPECT_EQ(acked, s.seqs());
      break;
    }
    ++totals.crashes;
  }
  return totals;
}

// Every source is hit: the seeding scan's meta count until the first
// batch is durable, then the feed's; a crash before that scan's meta
// write scans again. A crash between the deltas.log and the feed.log
// appends catches the feed up from the log, with no reset and no scan,
// and so does every lost feed tail.
void ExpectEveryRecoveryPath(const SweepTotals& t) {
  EXPECT_GT(t.from_meta, 0u);
  EXPECT_GT(t.from_feed, 0u);
  EXPECT_GT(t.scans, 0u);
  EXPECT_GT(t.catchups, 0u);
  EXPECT_GT(t.lost_tails, 0u);
}

TEST(CrashSweep, ServingStepOnASingleStore) {
  SweepTotals t = Sweep(Leg::kSingleStore);
  // Every batch writes the delta log and the feed; compaction and the
  // seeding scan's meta write add more.
  EXPECT_GE(t.crashes, 3 * kBatches);
  ExpectEveryRecoveryPath(t);
}

TEST(CrashSweep, ServingStepOnATwoFragmentCoordinator) {
  SweepTotals t = Sweep(Leg::kCoordinator);
  EXPECT_GE(t.crashes, 3 * kBatches);
  ExpectEveryRecoveryPath(t);
}

TEST(CrashSweep, RebalanceBetweenBatchesOnATwoFragmentCoordinator) {
  SweepTotals t = Sweep(Leg::kRebalance);
  // The batches' write points plus the rebalance's: the owner table's
  // temp-file fsync and rename.
  EXPECT_GE(t.crashes, 3 * kBatches + 2);
  ExpectEveryRecoveryPath(t);
}

// What the failure sweep compares across a failed batch.
struct StoreState {
  uint64_t seq = 0;
  std::vector<std::string> graph;
  std::string deltas_log;
  std::string feed_log;
  std::optional<uint64_t> count;

  friend bool operator==(const StoreState&, const StoreState&) = default;
};

StoreState StateOf(const ServingStore& store, const std::string& dir,
                   uint64_t fp) {
  return {store.last_seq(), testing::CanonicalLines(store.MaterializeCurrent()),
          testing::ReadFileBytes(dir + "/deltas.log"),
          testing::ReadFileBytes(dir + "/feed.log"),
          store.violation_count(fp)};
}

struct FailureTotals {
  size_t retracted = 0;     ///< failed record writes and fsyncs
  size_t after_ack = 0;     ///< failed feed writes and compactions
  size_t resent_moves = 0;  ///< moves whose owner table failed
};

// Runs the script once with write point k failing. Returns false when
// the script passed no point k (the sweep is done), with `*acked` the
// last seq acknowledged when a failure after an ack stopped it.
bool RunFailingAt(const Script& s, const Reference& ref,
                  const std::string& dir, bool distributed, int64_t k,
                  FailureTotals* totals, uint64_t* acked) {
  auto store = OpenServing(dir, distributed);
  EXPECT_NE(store, nullptr);
  auto feed = ViolationChangefeed::Open(dir, 0);
  EXPECT_NE(feed, nullptr);
  if (!store || !feed) return false;
  net::FeedService service(*store, *s.engine, *feed, {});
  uint64_t count = service.Prime();
  const uint64_t fp =
      RuleSetFingerprint(s.engine->rules(), store->MaterializeCurrent());
  FailAtWritePoint(k);
  auto failed_during = [&](int64_t from) {
    return from <= k && k < WritePointsPassed();
  };
  for (size_t i = 0; i < s.batches.size(); ++i) {
    if (s.move && i == s.move->before) {
      auto& coord = dynamic_cast<Coordinator&>(*store);
      // Re-sent until it lands.
      for (bool moved = false; !moved;) {
        const StoreState before = StateOf(*store, dir, fp);
        const std::string table =
            testing::ReadFileBytes(dir + "/coordinator.meta");
        const int64_t from = WritePointsPassed();
        std::string error;
        moved = coord.Rebalance(s.move->node, s.move->to, &error);
        if (!failed_during(from)) {
          EXPECT_TRUE(moved) << error;
          if (!moved) return true;
          continue;
        }
        EXPECT_FALSE(moved) << "a move whose write failed succeeded";
        EXPECT_TRUE(std::ranges::equal(coord.node_owner(), s.move->pre_owners))
            << error;
        EXPECT_EQ(testing::ReadFileBytes(dir + "/coordinator.meta"), table)
            << "a failed move changed the owner table on disk";
        EXPECT_TRUE(StateOf(*store, dir, fp) == before)
            << "a failed move left a trace in the store";
        ++totals->resent_moves;
      }
    }
    const std::string& batch = s.batches[i];
    const StoreState before = StateOf(*store, dir, fp);
    int64_t from = WritePointsPassed();
    std::string error;
    auto step = ServeStep(*store, *s.engine, batch, count, {}, &error);
    if (failed_during(from)) {
      EXPECT_FALSE(step.has_value())
          << "a batch whose record write or fsync failed was acknowledged";
      EXPECT_TRUE(error.starts_with(kNotDurableError)) << error;
      EXPECT_TRUE(StateOf(*store, dir, fp) == before)
          << "a failed batch left a trace in the store";
      ++totals->retracted;
      step = ServeStep(*store, *s.engine, batch, count, {}, &error);
      EXPECT_TRUE(step.has_value()) << "re-sending failed: " << error;
      if (!step) return true;
      EXPECT_EQ(step->seq, before.seq + 1);
    } else {
      EXPECT_TRUE(step.has_value()) << error;
      if (!step) return true;
    }
    EXPECT_EQ(step->diff.payload, ref.events[i].payload) << "batch " << i;
    count = step->count;
    from = WritePointsPassed();
    if (!feed->Publish(step->seq, step->diff.payload,
                       MetaCount{count, step->seq, fp}) ||
        !store->MaybeCompact()) {
      EXPECT_TRUE(failed_during(from)) << "a write failed unarmed";
      ++totals->after_ack;
      *acked = step->seq;
      return true;
    }
    *acked = step->seq;
  }
  return WritePointsPassed() > k;
}

// The uncrashed run of `s` on a fresh `dir`: the states, feed events and
// feed.log a failure sweep's recoveries are checked against.
Reference RecordReference(const Script& s, const std::string& dir,
                          bool distributed) {
  Reference ref;
  ref.states.push_back(testing::CanonicalLines(s.g));
  InitDir(dir, s.g, distributed);
  EXPECT_TRUE(RunScript(s, dir, distributed,
                        [&](uint64_t, const ServingStore& store) {
                          ref.states.push_back(testing::CanonicalLines(
                              store.MaterializeCurrent()));
                        }));
  if (auto feed = ViolationChangefeed::Open(dir, s.seqs())) {
    feed->Subscribe(0, 1, &ref.events);
  }
  ref.feed_log = testing::ReadFileBytes(dir + "/feed.log");
  EXPECT_EQ(ref.events.size(), s.seqs());
  return ref;
}

void FailureSweep(Leg leg) {
  const bool distributed = Distributed(leg);
  const char* names[] = {"gfd_fail_sweep_single", "gfd_fail_sweep_coord",
                         "gfd_fail_sweep_rebalance"};
  const std::string dir = ::testing::TempDir() + names[static_cast<int>(leg)];
  const Script s = MakeScript(dir + "_script", leg);
  const Reference ref = RecordReference(s, dir, distributed);
  if (::testing::Test::HasFailure()) return;

  FailureTotals totals;
  SweepTotals recoveries;
  for (int64_t k = 0;; ++k) {
    SCOPED_TRACE("failing write point " + std::to_string(k));
    InitDir(dir, s.g, distributed);
    uint64_t acked = 0;
    const size_t stopped = totals.after_ack;
    const bool failed = RunFailingAt(s, ref, dir, distributed, k, &totals,
                                     &acked);
    FailAtWritePoint(-1);
    if (::testing::Test::HasFailure() || !failed) break;
    // Whatever failed, the store reopens at the last acknowledged batch
    // and recovers as after a crash there.
    net::PrimeReport primed;
    CheckRecovery(s, ref, dir, distributed, acked, &recoveries, &primed);
    auto store = OpenServing(dir, distributed);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->last_seq(), totals.after_ack > stopped ? acked : s.seqs());
    if (::testing::Test::HasFailure()) break;
  }
  // Each batch's record write and its fsync, and at least one feed write
  // and one compaction step.
  EXPECT_GE(totals.retracted, 2 * kBatches);
  EXPECT_GE(totals.after_ack, 2u);
  if (s.move) {
    // The owner table's temp-file fsync and rename.
    EXPECT_EQ(totals.resent_moves, 2u);
  }
}

TEST(FailureSweep, ServingStepOnASingleStore) {
  FailureSweep(Leg::kSingleStore);
}

TEST(FailureSweep, ServingStepOnATwoFragmentCoordinator) {
  FailureSweep(Leg::kCoordinator);
}

TEST(FailureSweep, RebalanceBetweenBatchesOnATwoFragmentCoordinator) {
  FailureSweep(Leg::kRebalance);
}

// An interrupted Coordinator::Init leaves a directory that either opens
// as initialized -- seq 0, the graph, the owner table Init computes and
// the masks it lays out -- or accepts a second Init,
// after which it opens so.
TEST(CrashSweep, InitializingACoordinator) {
  const PropertyGraph g =
      MakeSynthetic({.nodes = 50, .edges = 150, .seed = 19});
  const std::vector<uint32_t> owners =
      VertexCutPartition(g, 2).partition.node_owner;
  const std::string dir = ::testing::TempDir() + "gfd_sweep_init";
  size_t crashes = 0;
  size_t reinits = 0;
  for (int64_t k = 0;; ++k) {
    SCOPED_TRACE("crash at write point " + std::to_string(k));
    fs::remove_all(dir);
    const int status =
        RunChildCrashingAt(k, [&] { return Coordinator::Init(dir, g, 2); });
    ASSERT_TRUE(status == 0 || status == kCrashExitCode) << "exit " << status;
    auto coord = Coordinator::Open(dir);
    if (!coord) {
      ASSERT_EQ(status, kCrashExitCode) << "a completed Init does not open";
      std::string error;
      ASSERT_TRUE(Coordinator::Init(dir, g, 2, 3, &error)) << error;
      ++reinits;
      coord = Coordinator::Open(dir);
      ASSERT_TRUE(coord.has_value());
    }
    EXPECT_EQ(coord->last_seq(), 0u);
    const PropertyGraph current = coord->MaterializeCurrent();
    EXPECT_EQ(testing::CanonicalLines(current), testing::CanonicalLines(g));
    EXPECT_TRUE(std::ranges::equal(coord->node_owner(), owners));
    ExpectResidencyOf(*coord, current);
    if (::testing::Test::HasFailure() || status == 0) break;
    ++crashes;
  }
  // Two write points each: the owner table, the snapshot, store.meta.
  EXPECT_EQ(crashes, 6u);
  EXPECT_GT(reinits, 0u);
}

}  // namespace
}  // namespace gfd
