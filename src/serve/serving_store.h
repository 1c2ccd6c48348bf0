// The one serving interface both backends implement.
//
// A ServingStore is "a durable graph you can append update batches to,
// ask for per-batch violation diffs, compact, and materialize":
//
//   GraphStore   (serve/graph_store.h)  -- single node: snapshot + log
//   Coordinator  (serve/coordinator.h)  -- distributed: a global
//                snapshot + routing journal, served by vertex-cut
//                partitioned in-memory fragments behind the same verbs
//
// `gfdtool detect --log` / `gfdtool serve append`, the changefeed server
// and the oracle tests drive either backend through this interface, and
// the serving step itself -- append, diff, maintain the running
// violation count, classify -- is the one free function ServeStep below;
// whether one store or N routed fragments answer is a deployment choice,
// not a code path.
#ifndef GFD_SERVE_SERVING_STORE_H_
#define GFD_SERVE_SERVING_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "detect/engine.h"
#include "graph/property_graph.h"

namespace gfd {

/// One unified telemetry snapshot both backends report through --
/// replaces querying GraphStoreStats and CoordinatorStats separately.
/// Distributed-only fields are zero for a single store; `fragments` is 1
/// there. The recovery and compaction fields describe the one durable
/// graph -- a coordinator's master -- so `overlay_ops` is its pending
/// (un-compacted) delta ops and `compactions` its rounds.
struct ServingMetricsSnapshot {
  uint64_t anchor_seq = 0;
  uint64_t last_seq = 0;
  size_t fragments = 1;
  size_t replayed_batches = 0;
  size_t skipped_batches = 0;
  size_t overlay_ops = 0;
  uint64_t truncated_bytes = 0;
  size_t compactions = 0;
  // Distributed (Coordinator) only.
  size_t batches = 0;
  size_t rebalances = 0;
  uint64_t messages = 0;
  uint64_t bytes_shipped = 0;
  uint64_t bytes_owned_shipped = 0;
  uint64_t bytes_halo_shipped = 0;
  uint64_t ops_routed = 0;
  uint64_t ops_maintenance = 0;
};

class ServingStore {
 public:
  virtual ~ServingStore() = default;

  /// Appends one TSV delta batch (graph/loader.h delta format) to the
  /// store: parse, validate, persist durably, apply. Returns the
  /// assigned sequence number; nothing is persisted or applied on error.
  virtual std::optional<uint64_t> Append(std::string_view delta_tsv,
                                         std::string* error = nullptr) = 0;

  /// One serving step: Append plus the violation diff induced by exactly
  /// this batch relative to the pre-append state, with the diff's feed
  /// payload (IncrementalDiff::payload) rendered against the post-batch
  /// state. On success `*seq_out` (if non-null) is the assigned sequence
  /// number.
  virtual std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts = {}, uint64_t* seq_out = nullptr,
      std::string* error = nullptr) = 0;

  /// Last applied batch sequence number (0 = none yet).
  virtual uint64_t last_seq() const = 0;

  /// Unified telemetry snapshot (see ServingMetricsSnapshot): both
  /// backends report recovery, compaction, and shipping state through
  /// this one path.
  virtual ServingMetricsSnapshot MetricsSnapshot() const = 0;

  /// Running violation count as of last_seq() under the rule-set
  /// fingerprint, or nullopt when stale (see GraphStore::violation_count
  /// for the validity rule).
  virtual std::optional<uint64_t> violation_count(
      uint64_t fingerprint) const = 0;

  /// Persists `count` (under `fingerprint`) as the violation count at
  /// the current last_seq, by rewriting the meta. Not per batch: the
  /// server carries each batch's count in its feed record and calls
  /// this after a seeding scan and on a graceful stop; the one-shot CLI
  /// steps call it once per run.
  virtual bool SetViolationCount(uint64_t count, uint64_t fingerprint,
                                 std::string* error = nullptr) = 0;

  /// True when the overlay state exceeds the compaction threshold.
  virtual bool ShouldCompact() const = 0;

  /// Compacts regardless of thresholds; no-op when nothing to fold.
  virtual bool Compact(std::string* error = nullptr) = 0;

  /// Policy entry point: Compact() iff ShouldCompact().
  virtual bool MaybeCompact(std::string* error = nullptr) = 0;

  /// The current graph as a standalone PropertyGraph. Node and
  /// vocabulary ids are preserved across both backends, so results
  /// computed over the materialization compare equal across them.
  virtual PropertyGraph MaterializeCurrent() const = 0;
};

/// What one serving step produced.
struct ServedBatch {
  IncrementalDiff diff;
  uint64_t seq = 0;    ///< the batch's sequence number
  uint64_t count = 0;  ///< running violation count after the batch
  DeltaVerdict verdict = DeltaVerdict::kClean;
};

/// The one serving step every front end runs (the changefeed server's
/// /ingest and gfdtool's `detect --log --delta` / `serve append`):
/// store.AppendAndDiff, then the running violation count
/// (pre_count + |added| - |removed|), then the verdict. Returns nullopt
/// (with *error set) when the store rejected the batch; nothing was
/// logged then. The count is not persisted here: the server publishes
/// `diff.payload` with it in one durable feed record, then compacts;
/// the CLI persists it with SetViolationCount.
std::optional<ServedBatch> ServeStep(ServingStore& store,
                                     const ViolationEngine& engine,
                                     std::string_view delta_tsv,
                                     uint64_t pre_count,
                                     const IncrementalOptions& opts = {},
                                     std::string* error = nullptr);

}  // namespace gfd

#endif  // GFD_SERVE_SERVING_STORE_H_
