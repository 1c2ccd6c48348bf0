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
// place. A batch that fails validation never reaches the log. Open()
// replays the log through the same parse, validate and absorb, record by
// record. Node names resolve through the index each snapshot builds once
// (PropertyGraph::FindNode).
//
// Every batch enters one way, in three steps: Stage validates the batch
// (parsed against the store's vocabulary), writes its record and hands
// the fsync to the log's syncer thread; Absorb takes the batch into the
// view; Commit waits for the fsync. Append() -- `log append` -- runs them
// back to back. AppendAndDiff, the serving step, overlaps the fsync with
// the detection: it runs parse, Stage, the footprint, the route (the
// step's plan), the plan's before side, Absorb (the step's one apply),
// its after side, the diff and the payload render (against the live
// post-batch view), and Commit last: nothing leaves the step before its
// record is durable. When the record's write
// or fsync fails, the record is retracted from the log, the graph rolls
// back to its mark, and the append fails with an error starting
// kNotDurableError: no seq is consumed. The step has one body and no
// branch; its only parallelism is IncrementalOptions::workers within
// each side.
//
// A coordinator (serve/coordinator.h) is a store plus an owner table:
// the same directory and the same step, behind a check of the rules'
// radius against the table's halo.
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
#include <string>
#include <string_view>

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

struct GraphStoreStats {
  uint64_t anchor_seq = 0;       ///< snapshot includes batches through this
  uint64_t last_seq = 0;         ///< last applied batch (0 = none yet)
  size_t replayed_batches = 0;   ///< applied from the log on Open
  size_t skipped_batches = 0;    ///< at/below anchor, dropped on Open
  uint64_t truncated_bytes = 0;  ///< corrupt log tail cut on Open
  size_t compactions = 0;        ///< snapshot rolls this session
};

class GraphStore : public ServingStore {
 public:
  /// The commit record's file name: a directory holds a store iff it
  /// holds this file.
  static constexpr char kMetaFile[] = "store.meta";

  /// Creates a store directory holding `g` as snapshot-0 and an empty
  /// log whose first record will be seq 1; store.meta is written last,
  /// as the commit. Fails if `dir` already holds a store.
  static bool Init(const std::string& dir, const PropertyGraph& g,
                   std::string* error = nullptr);

  /// Opens `dir`, replaying the log onto the snapshot (sequenced,
  /// exactly-once; corrupt tail cut). Also self-heals: pre-anchor log
  /// records are dropped and orphaned temp/old-snapshot files deleted.
  static std::optional<GraphStore> Open(const std::string& dir,
                                        const GraphStoreOptions& opts = {},
                                        std::string* error = nullptr);

  const LiveGraph& live() const { return *live_; }
  const PropertyGraph& base() const { return live_->base(); }
  const GraphView& view() const { return live_->view(); }
  const GraphDelta& overlay() const { return live_->overlay(); }
  const GraphStoreStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }
  uint64_t last_seq() const override { return stats_.last_seq; }

  /// The serving step with no detection: parses `delta_tsv` (the E+/E-/A
  /// format of graph/loader.h) against the store's vocabulary, then
  /// Stage, Absorb and Commit. Returns the assigned sequence number once
  /// the record is durable; nothing is logged or applied on error. One
  /// append costs O(batch + touched degrees), independent of the overlay
  /// size (LiveGraph::Absorb).
  std::optional<uint64_t> Append(std::string_view delta_tsv,
                                 std::string* error = nullptr) override;

  /// A batch's way in, in three steps (see the header). Stage validates
  /// `batch` -- live().Parse's result for `delta_tsv`, which is what the
  /// log records -- writes its record and hands the record's fsync to the
  /// log's syncer; it returns the batch's seq, and nothing changed when
  /// it fails. Traced as `append`, with the validation as `validate`.
  /// Commit must follow.
  std::optional<uint64_t> Stage(const GraphDelta& batch,
                                std::string_view delta_tsv,
                                std::string* error = nullptr);

  /// Absorbs the staged batch into the live view (LiveGraph::Absorb).
  void Absorb(const GraphDelta& batch);

  /// Waits for the staged record's fsync (traced as `sync_wait`). On
  /// success the batch's seq is last_seq(). On failure the record is
  /// retracted, the graph rolls back to where it was at Stage, and
  /// *error starts with kNotDurableError.
  bool Commit(std::string* error = nullptr);

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

  /// The count store.meta holds, at whatever seq it was taken.
  std::optional<MetaCount> persisted_count() const override {
    return meta_count_;
  }

  /// True when the overlay exceeds a configured compaction threshold.
  bool ShouldCompact() const override;

  /// Compact() regardless of thresholds; no-op on an empty overlay.
  bool Compact(std::string* error = nullptr) override;

  /// Policy entry point: Compact() iff ShouldCompact().
  bool MaybeCompact(std::string* error = nullptr) override;

  /// The current graph as a standalone PropertyGraph (ids preserved).
  PropertyGraph MaterializeCurrent() const override;

  /// One serving step: appends `delta_tsv` and returns the violation diff
  /// of exactly this batch. The step's units are planned once on the
  /// live view just before the absorb, rooted at the batch's written
  /// keys and changed edge keys, so the cost tracks the batch, not the
  /// overlay or a hub it touches.
  /// ViolationEngine::DetectStep runs the plan's two sides around the one
  /// absorb, inline. The batch is parsed once; the diff's payload is
  /// rendered against the live post-batch view, with no materialization.
  /// The record's fsync runs beside the step, and the diff is returned
  /// only once it is durable (Stage, Absorb, Commit). Traced per seq as
  /// `route` (the plan), `absorb`, `detect` (the two sides), `merge`
  /// holding `render`, then `sync_wait`.
  std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts = {}, uint64_t* seq_out = nullptr,
      std::string* error = nullptr) override;

  /// Re-derivation from this store's snapshot and log (see
  /// ServingStore::Restep): the serving step of each batch, untraced, on
  /// a scratch copy of the graph.
  bool Restep(const ViolationEngine& engine, uint64_t after_seq,
              const RestepVisitor& visit, const IncrementalOptions& opts = {},
              std::string* error = nullptr) const override;

  /// Unified telemetry snapshot (mirrors stats() plus the live overlay
  /// size), with one fragment.
  ServingMetricsSnapshot MetricsSnapshot() const override;

 private:
  GraphStore() = default;

  // The running count valid at last_seq(), with its fingerprint, or
  // nullopt.
  std::optional<MetaCount> count() const {
    if (count_ && count_->seq == stats_.last_seq) return count_;
    return std::nullopt;
  }

  // Rewrites store.meta (atomically) with `anchor`, `snapshot_file` and
  // the count valid at last_seq, if any.
  bool WriteMeta(uint64_t anchor, const std::string& snapshot_file,
                 std::string* error);

  GraphStoreOptions opts_;
  std::string dir_;
  std::string snapshot_file_;  // relative to dir_
  std::optional<LiveGraph> live_;  // snapshot + overlay + live view
  std::optional<DeltaLog> log_;
  // The batch awaiting Commit: its seq, and where the graph was before
  // it.
  struct Staged {
    uint64_t seq = 0;
    LiveGraph::Mark mark;
  };
  std::optional<Staged> staged_;
  GraphStoreStats stats_;
  // Running violation count, valid only while its seq is last_seq() --
  // last_seq() only grows, so an append outdates it -- and only under its
  // fingerprint.
  std::optional<MetaCount> count_;
  // What store.meta's count line holds, at whatever seq: after a failed
  // meta write it differs from count_.
  std::optional<MetaCount> meta_count_;
};

}  // namespace gfd

#endif  // GFD_SERVE_GRAPH_STORE_H_
