// Durable graph state: snapshot + delta log + compaction policy.
//
// A GraphStore directory is the on-disk form of the serving pair
// "immutable base graph + small overlay" (graph/graph_view.h):
//
//   store.meta            commit record: anchor seq + snapshot file name
//   snapshot-<seq>.tsv    base graph (SaveGraphTsv), includes every batch
//                         with sequence number <= seq
//   deltas.log            framed GraphDelta batches after the anchor
//                         (serve/delta_log.h)
//
// Invariant: current graph = snapshot  +  log records with seq > anchor,
// applied in sequence order. Open() reconstructs exactly that state --
// records at or below the anchor are skipped (exactly-once across
// restarts and compactions), a torn tail from a mid-append crash is cut
// by the log layer, and a partial batch is never applied.
//
// The in-memory state is a LiveGraph (graph/live_graph.h): the snapshot,
// the overlay of the batches since, and a view absorbing each batch in
// place. Append() parses one TSV delta batch against the store's
// vocabulary, validates and absorbs it, then writes it durably to the
// log; a batch that fails validation never reaches the log, and one
// whose log append fails is rolled back out of memory. Open() replays
// the log through the same absorb, record by record. AppendAndDiff()
// parses once for both its footprint and its append, and renders the
// diff's feed payload against the live post-batch view. Node names
// resolve through the index each snapshot builds once
// (PropertyGraph::FindNode).
//
// Concurrency: a store directory has exactly ONE writing process -- the
// serving process owns its log, and nothing coordinates concurrent
// writers (two appenders would assign duplicate sequence numbers and the
// next Open would cut one as a broken chain). Front the directory with an
// flock/O_EXCL lease if a deployment needs multi-process ingest.
//
// Compaction rolls the base forward once the overlay exceeds the
// configured threshold: GraphView::Materialize() produces the next
// snapshot (node/vocabulary ids preserved, which is what keeps logged
// batches and compiled rule sets valid across the roll), the snapshot is
// written to a temp file and renamed, and the meta rewrite is the single
// atomic commit point -- a crash anywhere in between leaves the previous
// snapshot+log state fully intact. After the commit the log is re-anchored
// (DropThrough) and the old snapshot deleted.
#ifndef GFD_SERVE_GRAPH_STORE_H_
#define GFD_SERVE_GRAPH_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/live_graph.h"
#include "graph/property_graph.h"
#include "serve/delta_log.h"
#include "serve/durable_io.h"
#include "serve/serving_store.h"

namespace gfd {

/// When MaybeCompact rolls the snapshot forward. Both thresholds are
/// "compact once exceeded"; zero disables that trigger.
struct GraphStoreOptions {
  /// Overlay ops threshold (absolute).
  size_t compact_min_ops = 0;
  /// Overlay ops as a fraction of base edges. A step's detection cost
  /// does not grow with the overlay, so this bounds what the overlay does
  /// cost: the view's per-node adjacency and attribute copies, and the log
  /// a restart replays.
  double compact_min_fraction = 0.10;
};

/// True when `live`'s overlay exceeds a threshold of `opts`: the one
/// compaction policy, which a coordinator applies to its master graph.
bool CompactionDue(const GraphStoreOptions& opts, const LiveGraph& live);

/// What replaying a log onto a live graph did.
struct ReplayStats {
  uint64_t last_seq = 0;        ///< the anchor, or the last record absorbed
  size_t replayed_batches = 0;  ///< records absorbed
  size_t skipped_batches = 0;   ///< records at or below the anchor
};

/// The replay both backends recover through: absorbs every record of
/// `records` past `anchor` into `live`, in sequence order, exactly as
/// the live path absorbed it (LiveGraph::Parse, then Absorb). Records
/// at or below `anchor` -- already in the snapshot `live` was built
/// from -- are skipped; the rest must continue the chain at anchor+1.
/// Nullopt (with *error naming `source` and the record) when a record
/// does not continue the chain or cannot apply. Emits the `replay`
/// trace event and the gfd_store_replay_* metrics.
std::optional<ReplayStats> ReplayLog(std::span<const DeltaLogRecord> records,
                                     uint64_t anchor, LiveGraph& live,
                                     const std::string& source,
                                     std::string* error = nullptr);

struct GraphStoreStats {
  uint64_t anchor_seq = 0;       ///< snapshot includes batches through this
  uint64_t last_seq = 0;         ///< last applied batch (0 = none yet)
  size_t replayed_batches = 0;   ///< applied from the log on Open
  size_t skipped_batches = 0;    ///< at/below anchor, dropped on Open
  uint64_t truncated_bytes = 0;  ///< corrupt log tail cut on Open
  size_t compactions = 0;        ///< snapshot rolls this session
};

class GraphStore final : public ServingStore {
 public:
  /// Creates a store directory holding `g` as snapshot-0 and an empty
  /// log. Fails if `dir` already holds a store.
  static bool Init(const std::string& dir, const PropertyGraph& g,
                   std::string* error = nullptr);

  /// Opens `dir`, replaying the log onto the snapshot (sequenced,
  /// exactly-once; corrupt tail cut). Also self-heals: pre-anchor log
  /// records are dropped and orphaned temp/old-snapshot files deleted.
  static std::optional<GraphStore> Open(const std::string& dir,
                                        const GraphStoreOptions& opts = {},
                                        std::string* error = nullptr);

  const PropertyGraph& base() const { return live_->base(); }
  const GraphView& view() const { return live_->view(); }
  const GraphDelta& overlay() const { return live_->overlay(); }
  const GraphStoreStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }
  uint64_t last_seq() const override { return stats_.last_seq; }

  /// Parses `delta_tsv` (the E+/E-/A format of graph/loader.h) against
  /// the store's vocabulary, validates and absorbs it into the live view,
  /// and appends it durably. Returns the assigned sequence number;
  /// nothing is logged or applied on error. One append costs
  /// O(batch + touched degrees), independent of the overlay size
  /// (LiveGraph::Absorb).
  std::optional<uint64_t> Append(std::string_view delta_tsv,
                                 std::string* error = nullptr) override;

  /// Programmatic batch append: `batch` is expressed over the store's
  /// base graph (node ids and base vocabulary ids; extension vocabulary
  /// relative to the base, as GraphDelta::Intern* builds it). Serialized
  /// through the same TSV payload the text path uses, so replay and live
  /// application share one code path.
  std::optional<uint64_t> Append(const GraphDelta& batch,
                                 std::string* error = nullptr);

  /// Running violation count as of last_seq(), as last persisted in
  /// store.meta next to the anchor (the serving loop maintains it as
  /// count += |added| - |removed| per batch, seeded by one full Detect;
  /// the server's per-batch copy lives in the feed record instead). The
  /// count is only meaningful under the rule set it was computed with,
  /// so it is keyed by `fingerprint` (RuleSetFingerprint in
  /// gfd/serialize.h): a lookup under a different fingerprint, or after
  /// an append that has not been followed by SetViolationCount, or
  /// across a restart whose replayed sequence disagrees with the
  /// persisted one, returns nullopt -- the caller looks elsewhere or
  /// re-seeds with a full scan.
  std::optional<uint64_t> violation_count(
      uint64_t fingerprint) const override;

  /// Persists `count` (under `fingerprint`) as the violation count at the
  /// current last_seq, via an atomic meta rewrite. Survives restarts and
  /// compactions.
  bool SetViolationCount(uint64_t count, uint64_t fingerprint,
                         std::string* error = nullptr) override;

  /// True when the overlay exceeds a configured compaction threshold.
  bool ShouldCompact() const override;

  /// Compact() regardless of thresholds; no-op on an empty overlay.
  bool Compact(std::string* error = nullptr) override;

  /// Policy entry point: Compact() iff ShouldCompact().
  bool MaybeCompact(std::string* error = nullptr) override;

  /// The current graph as a standalone PropertyGraph (ids preserved).
  PropertyGraph MaterializeCurrent() const override;

  /// One serving step: appends `delta_tsv` and returns the violation diff
  /// of exactly this batch. ViolationEngine::DetectStep runs on the live
  /// view just before and just after the append, anchored at the batch's
  /// attribute targets and the lower-degree endpoint of each edge op, so
  /// the cost tracks the batch, not the overlay or a hub it touches. The
  /// batch is parsed once; the diff's payload is rendered against the
  /// live post-batch view, with no materialization.
  std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts = {}, uint64_t* seq_out = nullptr,
      std::string* error = nullptr) override;

  /// Unified telemetry snapshot (mirrors stats() plus the live overlay
  /// size; distributed-only fields stay zero).
  ServingMetricsSnapshot MetricsSnapshot() const override;

 private:
  GraphStore() = default;

  // Absorbs and logs `batch` -- LiveGraph::Parse's result for
  // `delta_tsv`, which is what the log records -- rolling it back out
  // when the log append fails.
  std::optional<uint64_t> AppendParsed(const GraphDelta& batch,
                                       std::string_view delta_tsv,
                                       std::string* error);

  // Rewrites store.meta (atomically) reflecting the current anchor,
  // snapshot, and violation-count state.
  bool WriteMeta(std::string* error);

  GraphStoreOptions opts_;
  std::string dir_;
  std::string snapshot_file_;  // relative to dir_
  std::optional<LiveGraph> live_;  // snapshot + overlay + live view
  std::optional<DeltaLog> log_;
  GraphStoreStats stats_;
  // Running violation count (serve/durable_io.h holds the shared
  // validity rule: valid only at the exact sequence it was taken).
  RunningCount count_;
};

}  // namespace gfd

#endif  // GFD_SERVE_GRAPH_STORE_H_
