// Durability subsystem: framed delta-log recovery (torn/corrupt tails,
// sequence chains, re-anchoring), GraphStore replay determinism across
// restarts, compaction boundaries and crash injection, exactly-once
// application of stale records, and the step-relative per-batch serving
// diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "detect/engine.h"
#include "graph/loader.h"
#include "obs/trace.h"
#include "serve/delta_log.h"
#include "serve/graph_store.h"
#include "serve/metrics.h"
#include "testlib.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;
using gfd::testing::BuildHubStar;
using gfd::testing::kLeafFollowsHub;
using gfd::testing::SameTeamRule;

// Fresh per-test scratch directory under gtest's temp root.
std::string Scratch(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gfd_" + name;
  fs::remove_all(dir);
  return dir;
}

// Fresh per-test scratch log-file path (the file is removed, so the test
// starts from a genuinely empty log even across reruns).
std::string ScratchLog(const std::string& name) {
  std::string path = ::testing::TempDir() + "gfd_" + name + ".log";
  fs::remove(path);
  fs::remove(path + ".tmp");
  return path;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::string> Payloads(const DeltaLog& log) {
  std::vector<std::string> out;
  for (const auto& rec : log.records()) out.push_back(rec.payload);
  return out;
}

// --- DeltaLog: framing and recovery ----------------------------------------

TEST(DeltaLog, FreshLogAppendsAndReopens) {
  std::string path = ScratchLog("log_fresh");
  auto log = DeltaLog::Open(path, /*first_seq=*/1);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(log->next_seq(), 1u);
  EXPECT_TRUE(log->records().empty());
  EXPECT_EQ(log->Append("alpha"), 1u);
  EXPECT_EQ(log->Append(""), 2u);  // empty payloads are legal batches
  EXPECT_EQ(log->Append("gamma\nwith\tbytes\r"), 3u);

  auto reopened = DeltaLog::Open(path, 1);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->open_stats().records, 3u);
  EXPECT_EQ(reopened->open_stats().truncated_bytes, 0u);
  EXPECT_EQ(Payloads(*reopened),
            (std::vector<std::string>{"alpha", "", "gamma\nwith\tbytes\r"}));
  EXPECT_EQ(reopened->next_seq(), 4u);
  EXPECT_EQ(reopened->Append("delta"), 4u);
}

TEST(DeltaLog, FirstSeqNumbersAnEmptyLog) {
  std::string path = ScratchLog("log_first_seq");
  auto log = DeltaLog::Open(path, /*first_seq=*/42);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(log->Append("x"), 42u);
}

TEST(DeltaLog, GarbageTailIsCutAndFileTruncated) {
  std::string path = ScratchLog("log_garbage");
  {
    auto log = DeltaLog::Open(path, 1);
    log->Append("one");
    log->Append("two");
  }
  size_t good_size = fs::file_size(path);
  AppendBytes(path, "not a record header at all");
  // The cut must also surface in the process metrics and, when a trace
  // is active, as a torn_tail event.
  uint64_t cuts_before = LogTornTailTruncationsTotal().Value();
  uint64_t bytes_before = LogTruncatedBytesTotal().Value();
  std::string trace_path = ::testing::TempDir() + "gfd_log_garbage.jsonl";
  fs::remove(trace_path);
  auto trace = obs::TraceLog::Open(trace_path);
  ASSERT_NE(trace, nullptr);
  obs::SetActiveTrace(trace.get());
  auto log = DeltaLog::Open(path, 1);
  obs::SetActiveTrace(nullptr);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(log->open_stats().records, 2u);
  EXPECT_GT(log->open_stats().truncated_bytes, 0u);
  EXPECT_EQ(fs::file_size(path), good_size);
  EXPECT_EQ(LogTornTailTruncationsTotal().Value(), cuts_before + 1);
  EXPECT_EQ(LogTruncatedBytesTotal().Value() - bytes_before,
            log->open_stats().truncated_bytes);
  EXPECT_NE(ReadBytes(trace_path).find("\"stage\":\"torn_tail\""),
            std::string::npos);
  EXPECT_EQ(log->Append("three"), 3u);
}

TEST(DeltaLog, EveryTornAppendPrefixIsCutCleanly) {
  // A crash can stop an append after any byte; whatever prefix of the
  // last record made it to disk, recovery keeps exactly the first two
  // records and resumes at seq 3.
  std::string base_path = ScratchLog("log_torn");
  {
    auto log = DeltaLog::Open(base_path, 1);
    log->Append("first-batch");
    log->Append("second-batch");
  }
  std::string good = ReadBytes(base_path);
  std::string full = good;
  {
    auto log = DeltaLog::Open(base_path, 1);
    log->Append("third-batch-that-tears");
    full = ReadBytes(base_path);
  }
  for (size_t cut = good.size() + 1; cut < full.size(); ++cut) {
    WriteBytes(base_path, full.substr(0, cut));
    auto log = DeltaLog::Open(base_path, 1);
    ASSERT_TRUE(log.has_value()) << "cut at " << cut;
    EXPECT_EQ(log->open_stats().records, 2u) << "cut at " << cut;
    EXPECT_EQ(log->next_seq(), 3u) << "cut at " << cut;
  }
}

TEST(DeltaLog, CrcFlipCutsTheTail) {
  std::string path = ScratchLog("log_crc");
  {
    auto log = DeltaLog::Open(path, 1);
    log->Append("aaaa");
    log->Append("bbbb");
  }
  std::string bytes = ReadBytes(path);
  bytes[bytes.size() - 3] ^= 0x40;  // inside the last payload
  WriteBytes(path, bytes);
  auto log = DeltaLog::Open(path, 1);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(Payloads(*log), (std::vector<std::string>{"aaaa"}));
  EXPECT_GT(log->open_stats().truncated_bytes, 0u);
}

TEST(DeltaLog, MidLogCorruptionCutsEverythingAfterIt) {
  std::string path = ScratchLog("log_mid");
  {
    auto log = DeltaLog::Open(path, 1);
    log->Append("aaaa");
    log->Append("bbbb");
    log->Append("cccc");
  }
  std::string bytes = ReadBytes(path);
  bytes[bytes.find("bbbb")] = 'X';  // corrupt the middle record's payload
  WriteBytes(path, bytes);
  auto log = DeltaLog::Open(path, 1);
  ASSERT_TRUE(log.has_value());
  // Records after a corrupt one cannot be trusted to be the real stream.
  EXPECT_EQ(Payloads(*log), (std::vector<std::string>{"aaaa"}));
}

TEST(DeltaLog, SequenceGapEndsTheChain) {
  std::string path = ScratchLog("log_gap");
  {
    auto log = DeltaLog::Open(path, 1);
    log->Append("aaaa");
  }
  // Forge a record that skips seq 2: frame shape is valid, chain is not.
  char header[64];
  std::snprintf(header, sizeof(header), "R 3 4 %08x\n", Crc32("zzzz"));
  AppendBytes(path, std::string(header) + "zzzz\n");
  auto log = DeltaLog::Open(path, 1);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(Payloads(*log), (std::vector<std::string>{"aaaa"}));
  EXPECT_EQ(log->next_seq(), 2u);
}

TEST(DeltaLog, DropThroughReanchorsAndSurvivesReopen) {
  std::string path = ScratchLog("log_drop");
  auto log = DeltaLog::Open(path, 1);
  log->Append("aaaa");
  log->Append("bbbb");
  log->Append("cccc");
  ASSERT_TRUE(log->DropThrough(2));
  EXPECT_EQ(Payloads(*log), (std::vector<std::string>{"cccc"}));
  EXPECT_EQ(log->next_seq(), 4u);
  EXPECT_EQ(log->Append("dddd"), 4u);

  auto reopened = DeltaLog::Open(path, 1);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(Payloads(*reopened), (std::vector<std::string>{"cccc", "dddd"}));
  EXPECT_EQ(reopened->records()[0].seq, 3u);

  // Dropping everything leaves an empty file whose numbering continues.
  ASSERT_TRUE(reopened->DropThrough(4));
  EXPECT_EQ(fs::file_size(path), 0u);
  EXPECT_EQ(reopened->Append("eeee"), 5u);
}

// --- GraphDelta::Append: merging batches -----------------------------------

PropertyGraph BuildWorld() {
  PropertyGraph::Builder b;
  NodeId p0 = b.AddNode("person");
  b.SetName(p0, "Producer0");
  b.SetAttr(p0, "type", "producer");
  NodeId p1 = b.AddNode("person");
  b.SetName(p1, "Musician");
  b.SetAttr(p1, "type", "musician");
  NodeId f0 = b.AddNode("product");
  b.SetAttr(f0, "type", "film");
  NodeId f1 = b.AddNode("product");
  b.SetAttr(f1, "type", "album");
  b.AddEdge(p0, f0, "create");
  b.AddEdge(p1, f1, "create");
  return std::move(b).Build();
}

Gfd FilmRule(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("product"));
  q.AddEdge(x, y, *g.FindLabel("create"));
  q.set_pivot(x);
  AttrId type = *g.FindAttr("type");
  return Gfd(q, {Literal::Const(y, type, *g.FindValue("film"))},
             Literal::Const(x, type, *g.FindValue("producer")));
}

TEST(GraphDeltaAppend, MergesExtensionVocabularyByName) {
  auto g = BuildWorld();
  AttrId type = *g.FindAttr("type");

  GraphDelta d1;
  d1.SetAttr(0, type, d1.InternValue(g, "newval"));
  GraphDelta d2;  // parsed independently: its own extension id space
  d2.SetAttr(1, type, d2.InternValue(g, "newval"));
  d2.SetAttr(2, type, d2.InternValue(g, "otherval"));

  GraphDelta merged = d1;
  merged.Append(g, d2);
  ASSERT_EQ(merged.ops.size(), 3u);
  // "newval" resolved to d1's existing extension id, not a duplicate.
  EXPECT_EQ(merged.ops[1].value, merged.ops[0].value);
  EXPECT_EQ(merged.extra_values,
            (std::vector<std::string>{"newval", "otherval"}));

  auto view = GraphView::Apply(g, merged);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ValueName(*view->GetAttr(1, type)), "newval");
  EXPECT_EQ(view->ValueName(*view->GetAttr(2, type)), "otherval");
}

// --- GraphStore: durability, replay, compaction ----------------------------

// The determinism oracle: a restarted store must detect byte-identically
// to the in-process one, and materialize the same bytes.
void ExpectRestartIdentical(const GraphStore& live,
                            const ViolationEngine& engine) {
  auto reopened = GraphStore::Open(live.dir());
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->last_seq(), live.last_seq());
  EXPECT_EQ(engine.Detect(reopened->view()).violations,
            engine.Detect(live.view()).violations);
  std::ostringstream a, b;
  // with_vocab: interner ids (not just content) must survive the restart,
  // or the compiled engine above would silently re-bind.
  SaveGraphTsv(live.MaterializeCurrent(), a, /*with_vocab=*/true);
  SaveGraphTsv(reopened->MaterializeCurrent(), b, /*with_vocab=*/true);
  EXPECT_EQ(a.str(), b.str());
}

TEST(GraphStore, InitRefusesAnExistingStore) {
  std::string dir = Scratch("store_init");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  std::string error;
  EXPECT_FALSE(GraphStore::Init(dir, g, &error));
  EXPECT_NE(error.find("already holds"), std::string::npos);
}

TEST(GraphStore, OpenWithoutStoreFails) {
  std::string error;
  EXPECT_FALSE(
      GraphStore::Open(Scratch("store_missing"), {}, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(GraphStore, AppendsReplayByteIdenticallyAfterRestart) {
  std::string dir = Scratch("store_replay");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({FilmRule(store->base())});

  // Three batches: add a violating edge, break an attribute, and extend
  // the vocabulary with strings the snapshot never interned.
  EXPECT_EQ(store->Append("E+\tMusician\tn2\tcreate\n"), 1u);
  EXPECT_EQ(store->Append("A\tProducer0\ttype=impostor\n"), 2u);
  EXPECT_EQ(store->Append("A\tn3\tflavor=weird sauce\n"), 3u);
  EXPECT_EQ(engine.Detect(store->view()).violations.size(), 2u);

  ExpectRestartIdentical(*store, engine);
  const auto reopened = GraphStore::Open(dir);
  EXPECT_EQ(reopened->stats().replayed_batches, 3u);
  EXPECT_EQ(reopened->stats().skipped_batches, 0u);
}

TEST(GraphStore, ReplayAcrossACompactionBoundary) {
  std::string dir = Scratch("store_compact");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({FilmRule(store->base())});

  ASSERT_TRUE(store->Append("E+\tMusician\tn2\tcreate\n").has_value());
  ASSERT_TRUE(store->Append("A\tn3\ttype=film\n").has_value());
  ASSERT_TRUE(store->Compact());
  EXPECT_EQ(store->stats().anchor_seq, 2u);
  EXPECT_TRUE(store->overlay().empty());
  // The log was re-anchored and the old snapshot removed.
  EXPECT_EQ(fs::file_size(fs::path(dir) / "deltas.log"), 0u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot-0.tsv"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-2.tsv"));

  // Post-compaction batches anchor on the rolled snapshot; sequence
  // numbers keep counting.
  EXPECT_EQ(store->Append("E-\tMusician\tn2\tcreate\n"), 3u);
  // The compacted snapshot interned the update-introduced vocabulary, so
  // rules can reference it: Detect still sees the n3-album violation
  // created by batch 2 (type=film made Musician->n3 violating too until
  // batch 3 deleted the *other* edge; assert exact state instead).
  auto live = engine.Detect(store->view()).violations;
  ExpectRestartIdentical(*store, engine);
  auto reopened = GraphStore::Open(dir);
  EXPECT_EQ(reopened->stats().anchor_seq, 2u);
  EXPECT_EQ(reopened->stats().replayed_batches, 1u);
  EXPECT_EQ(engine.Detect(reopened->view()).violations, live);
}

TEST(GraphStore, TruncatedTailCrashConvergesAndReappends) {
  std::string dir = Scratch("store_crash");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({FilmRule(store->base())});
  ASSERT_TRUE(store->Append("E+\tMusician\tn2\tcreate\n").has_value());
  auto want = engine.Detect(store->view()).violations;

  // Crash injection: a third-party append dies mid-record, leaving a
  // torn frame after the acknowledged batch.
  std::string log_path = (fs::path(dir) / "deltas.log").string();
  AppendBytes(log_path, "R 2 24 00000000\nA\tProducer0\tty");

  // Recovery must report the cut through the metrics/trace channel the
  // serving CLI exports, not only through GraphStoreStats.
  uint64_t cuts_before = LogTornTailTruncationsTotal().Value();
  std::string trace_path = ::testing::TempDir() + "gfd_store_crash.jsonl";
  fs::remove(trace_path);
  auto trace = obs::TraceLog::Open(trace_path);
  ASSERT_NE(trace, nullptr);
  obs::SetActiveTrace(trace.get());
  auto recovered = GraphStore::Open(dir);
  obs::SetActiveTrace(nullptr);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->last_seq(), 1u);
  EXPECT_GT(recovered->stats().truncated_bytes, 0u);
  EXPECT_EQ(LogTornTailTruncationsTotal().Value(), cuts_before + 1);
  std::string trace_text = ReadBytes(trace_path);
  EXPECT_NE(trace_text.find("\"stage\":\"torn_tail\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"stage\":\"replay\""), std::string::npos);
  EXPECT_EQ(engine.Detect(recovered->view()).violations, want);

  // The torn batch was never applied; re-submitting it works and lands
  // at the next sequence number.
  EXPECT_EQ(recovered->Append("A\tProducer0\ttype=impostor\n"), 2u);
  EXPECT_EQ(engine.Detect(recovered->view()).violations.size(), 2u);
  ExpectRestartIdentical(*recovered, engine);
}

TEST(GraphStore, StaleRecordsBelowTheAnchorApplyExactlyOnce) {
  std::string dir = Scratch("store_stale");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({FilmRule(store->base())});
  ASSERT_TRUE(store->Append("E+\tMusician\tn2\tcreate\n").has_value());
  ASSERT_TRUE(store->Append("A\tProducer0\ttype=impostor\n").has_value());
  std::string log_path = (fs::path(dir) / "deltas.log").string();
  std::string pre_compact_log = ReadBytes(log_path);
  ASSERT_TRUE(store->Compact());
  auto want = engine.Detect(store->view()).violations;

  // Simulate a crash between the meta commit and the log re-anchor: the
  // old records (seq 1..2, both already in the snapshot) reappear.
  WriteBytes(log_path, pre_compact_log);
  auto recovered = GraphStore::Open(dir);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->stats().skipped_batches, 2u);
  EXPECT_EQ(recovered->stats().replayed_batches, 0u);
  // Applying them again would double the edge; exactly-once means the
  // state is unchanged...
  EXPECT_EQ(engine.Detect(recovered->view()).violations, want);
  EXPECT_EQ(recovered->view().NumEdges(), store->view().NumEdges());
  // ...and the stale records were healed away.
  EXPECT_EQ(fs::file_size(log_path), 0u);
  EXPECT_EQ(recovered->Append("E-\tMusician\tn2\tcreate\n"), 3u);
}

TEST(GraphStore, InvalidBatchIsNeverLogged) {
  std::string dir = Scratch("store_invalid");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  std::string log_path = (fs::path(dir) / "deltas.log").string();

  std::string error;
  // Parse failure: unknown node.
  EXPECT_FALSE(store->Append("E+\tNobody\tn2\tcreate\n", &error).has_value());
  EXPECT_NE(error.find("unknown node"), std::string::npos);
  // Apply failure: deleting an edge that does not exist.
  EXPECT_FALSE(
      store->Append("E-\tMusician\tn2\tcreate\n", &error).has_value());
  EXPECT_NE(error.find("delete of missing edge"), std::string::npos);
  EXPECT_EQ(fs::file_size(log_path), 0u);
  EXPECT_EQ(store->last_seq(), 0u);
  EXPECT_EQ(store->Append("E+\tMusician\tn2\tcreate\n"), 1u);
}

TEST(GraphStore, CompactionPolicyThresholds) {
  std::string dir = Scratch("store_policy");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  GraphStoreOptions opts;
  opts.compact_min_ops = 3;
  opts.compact_min_fraction = 0;  // isolate the ops trigger
  auto store = GraphStore::Open(dir, opts);
  ASSERT_TRUE(store.has_value());

  ASSERT_TRUE(store->Append("E+\tMusician\tn2\tcreate\n").has_value());
  EXPECT_FALSE(store->ShouldCompact());
  ASSERT_TRUE(store->MaybeCompact());
  EXPECT_EQ(store->stats().compactions, 0u);

  ASSERT_TRUE(
      store->Append("A\tProducer0\ttype=x\nA\tn3\ttype=y\n").has_value());
  EXPECT_TRUE(store->ShouldCompact());  // 3 ops >= threshold
  ASSERT_TRUE(store->MaybeCompact());
  EXPECT_EQ(store->stats().compactions, 1u);
  EXPECT_TRUE(store->overlay().empty());
  EXPECT_EQ(store->stats().anchor_seq, 2u);

  // The fraction trigger: 2 ops over a 2-edge base at 50%.
  GraphStoreOptions frac;
  frac.compact_min_ops = 0;
  frac.compact_min_fraction = 0.5;
  auto store2 = GraphStore::Open(dir, frac);
  ASSERT_TRUE(store2.has_value());
  ASSERT_TRUE(store2->Append("A\tProducer0\ttype=z\n").has_value());
  // Base has 3 edges now (batch 1 inserted one); 1 op < 1.5 threshold.
  EXPECT_FALSE(store2->ShouldCompact());
  ASSERT_TRUE(store2->Append("A\tn3\ttype=w\n").has_value());
  EXPECT_TRUE(store2->ShouldCompact());
}

// --- AppendAndDiff: the per-batch serving step -----------------------------

TEST(GraphStore, AppendAndDiffMatchesTheMaterializedOracle) {
  std::string dir = Scratch("store_stepdiff");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({FilmRule(store->base())});

  // A stream whose batches add, re-add, and remove violations while the
  // overlay keeps growing (no compaction: every step lands on an older
  // overlay than the last).
  const char* stream[] = {
      "E+\tMusician\tn2\tcreate\n",            // + violation at Musician
      "A\tProducer0\ttype=impostor\n",         // + violation at Producer0
      "A\tn3\ttype=film\n",                    // + violation (Musician->n3)
      "E-\tMusician\tn2\tcreate\n",            // - one Musician violation
      "A\tProducer0\ttype=producer\n",         // - the Producer0 violation
  };
  for (const char* batch : stream) {
    PropertyGraph before = store->MaterializeCurrent();
    std::string error;
    auto diff = store->AppendAndDiff(engine, batch, {}, nullptr, &error);
    ASSERT_TRUE(diff.has_value()) << error;
    PropertyGraph after = store->MaterializeCurrent();

    auto old_run = engine.Detect(before);
    auto new_run = engine.Detect(after);
    std::vector<Violation> want_added, want_removed;
    std::set_difference(
        new_run.violations.begin(), new_run.violations.end(),
        old_run.violations.begin(), old_run.violations.end(),
        std::back_inserter(want_added));
    std::set_difference(
        old_run.violations.begin(), old_run.violations.end(),
        new_run.violations.begin(), new_run.violations.end(),
        std::back_inserter(want_removed));
    EXPECT_EQ(diff->added, want_added) << "batch: " << batch;
    EXPECT_EQ(diff->removed, want_removed) << "batch: " << batch;
  }
  EXPECT_EQ(store->last_seq(), 5u);
  ExpectRestartIdentical(*store, engine);
}

// The footprint gate reads the batch alone: a batch touching only nodes
// whose labels the film rule's pattern cannot bind must skip the rule's
// group, even on an overlay whose earlier batches touched persons.
TEST(GraphStore, AppendAndDiffGatesGroupsByTheBatchAlone) {
  std::string dir = Scratch("store_step_gate");
  PropertyGraph::Builder b;
  NodeId p0 = b.AddNode("person");
  b.SetName(p0, "Producer0");
  b.SetAttr(p0, "type", "producer");
  NodeId f0 = b.AddNode("product");
  b.SetAttr(f0, "type", "film");
  NodeId c0 = b.AddNode("city");
  b.SetName(c0, "Paris");
  b.SetAttr(c0, "name", "paris");
  NodeId c1 = b.AddNode("city");
  b.SetName(c1, "Lyon");
  b.AddEdge(p0, f0, "create");
  ASSERT_TRUE(GraphStore::Init(dir, std::move(b).Build()));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({FilmRule(store->base())});

  ASSERT_TRUE(store->Append("A\tProducer0\ttype=impostor\n").has_value());
  ASSERT_TRUE(store->Append("A\tProducer0\ttype=producer\n").has_value());
  const char* city_batch =
      "A\tParis\tname=paris2\n"
      "E+\tParis\tLyon\tnear\n";
  auto diff = store->AppendAndDiff(engine, city_batch);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->stats.groups_scanned, 0u);
  EXPECT_EQ(diff->stats.groups_skipped, 1u);
  EXPECT_TRUE(diff->added.empty());
  EXPECT_TRUE(diff->removed.empty());
}

// An edge op anchors at its lower-degree endpoint: a batch inserting one
// edge into a hub from a degree-1 node must still diff exactly like two
// full Detect runs, while enumerating on the order of the hub's degree D
// -- seeding the hub would enumerate every pair of its followers, ~D^2.
TEST(GraphStore, AppendAndDiffAnchorsAHubEdgeAtItsLowDegreeEnd) {
  constexpr size_t kDegree = 120;
  std::string dir = Scratch("store_hub_edge");
  const PropertyGraph g = BuildHubStar(kDegree);
  ASSERT_EQ(g.Degree(0), kDegree);
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({SameTeamRule(store->base())});

  std::string error;
  auto diff = store->AppendAndDiff(engine, kLeafFollowsHub, {}, nullptr,
                                   &error);
  ASSERT_TRUE(diff.has_value()) << error;
  auto old_run = engine.Detect(g);
  auto new_run = engine.Detect(store->MaterializeCurrent());
  std::vector<Violation> want_added, want_removed;
  std::set_difference(new_run.violations.begin(), new_run.violations.end(),
                      old_run.violations.begin(), old_run.violations.end(),
                      std::back_inserter(want_added));
  std::set_difference(old_run.violations.begin(), old_run.violations.end(),
                      new_run.violations.begin(), new_run.violations.end(),
                      std::back_inserter(want_removed));
  EXPECT_EQ(diff->added, want_added);
  EXPECT_EQ(diff->removed, want_removed);
  EXPECT_EQ(diff->added.size(), 2 * kDegree);  // Leaf vs. every follower
  EXPECT_LT(diff->stats.matches_seen, 8 * kDegree);
}

// --- Running violation count (store.meta) ----------------------------------

// The serving loop's counter: seeded by one full Detect, maintained as
// count += |added| - |removed| per batch, persisted next to the anchor.
// It must survive restart and compaction, track a fresh full Detect at
// every step, and invalidate on appends, rule-set changes, and replays
// that land on a different sequence.
TEST(GraphStore, ViolationCountSurvivesRestartAndCompaction) {
  std::string dir = Scratch("store_count");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  ViolationEngine engine({FilmRule(store->base())});
  const uint64_t fp = 0xabcdu;

  // No count until the loop seeds one with a full scan.
  EXPECT_FALSE(store->violation_count(fp).has_value());
  uint64_t count = engine.Detect(store->view()).violations.size();
  ASSERT_TRUE(store->SetViolationCount(count, fp));
  EXPECT_EQ(store->violation_count(fp), count);
  // A different rule set's fingerprint never sees this count.
  EXPECT_FALSE(store->violation_count(fp + 1).has_value());

  const char* stream[] = {
      "E+\tMusician\tn2\tcreate\n",     // adds a violation
      "A\tProducer0\ttype=impostor\n",  // adds another
      "E-\tMusician\tn2\tcreate\n",     // removes the first again
  };
  for (const char* batch : stream) {
    auto diff = store->AppendAndDiff(engine, batch);
    ASSERT_TRUE(diff.has_value());
    // The append outdated the count until the diff is folded back in.
    EXPECT_FALSE(store->violation_count(fp).has_value());
    count = count + diff->added.size() - diff->removed.size();
    ASSERT_TRUE(store->SetViolationCount(count, fp));
    EXPECT_EQ(store->violation_count(fp), count);
    EXPECT_EQ(engine.Detect(store->view()).violations.size(), count)
        << "counter drifted from a fresh full Detect after " << batch;
  }
  EXPECT_EQ(count, 1u);  // the impostor violation remains

  // Restart: the count rides store.meta.
  {
    auto reopened = GraphStore::Open(dir);
    ASSERT_TRUE(reopened.has_value());
    EXPECT_EQ(reopened->violation_count(fp), count);
  }
  // Compaction: the meta rewrite carries it through, and so does the
  // restart after the compaction boundary.
  ASSERT_TRUE(store->Compact());
  EXPECT_EQ(store->violation_count(fp), count);
  {
    auto reopened = GraphStore::Open(dir);
    ASSERT_TRUE(reopened.has_value());
    EXPECT_EQ(reopened->violation_count(fp), count);
    EXPECT_EQ(engine.Detect(reopened->view()).violations.size(), count);
  }
}

TEST(GraphStore, ViolationCountInvalidatesWhenReplayDisagrees) {
  std::string dir = Scratch("store_count_stale");
  auto g = BuildWorld();
  ASSERT_TRUE(GraphStore::Init(dir, g));
  {
    auto store = GraphStore::Open(dir);
    ASSERT_TRUE(store.has_value());
    ASSERT_TRUE(store->SetViolationCount(0, 1));
    // An append nobody folded back into the counter: the persisted line
    // now refers to seq 0 while the log reaches seq 1.
    ASSERT_TRUE(store->Append("E+\tMusician\tn2\tcreate\n").has_value());
  }
  auto reopened = GraphStore::Open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->last_seq(), 1u);
  EXPECT_FALSE(reopened->violation_count(1).has_value());
}

}  // namespace
}  // namespace gfd
