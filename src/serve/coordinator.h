// Distributed incremental detection over vertex-cut fragments of one
// in-memory graph.
//
// The Coordinator fuses two serving primitives -- the anchored step
// detector (detect/engine.h) and the live graph a durable store keeps
// current (graph/live_graph.h) -- into the paper's
// master-and-fragments shape (Section 6): a master owning N fragments,
// run as the workers of one Cluster in this process. The graph is held
// once, by the master. A fragment is an owner set -- the vertex-cut
// partition's nodes it owns -- plus its residency mask over the master's
// graph: the nodes within `halo_radius` undirected hops of a node it
// owns (parallel/fragment.h ComputeResidency). The masks are what a
// fragment of a shared-nothing deployment would store; here they decide
// only where a batch's work may run, and summed over fragments they
// cover ~replication x |E| edges while the process stores |E| once. The
// halo radius is chosen >= the max per-variable pattern eccentricity
// (ViolationEngine::MaxPatternRadius), so every match through an owned
// node lies inside the owner's mask.
//
// The step. For each batch the master parses it and stages it
// (GraphStore::Stage: validate, write the record, hand its fsync to the
// log's syncer), takes its footprint and plans the step's units on its
// pre-batch view (ViolationEngine::PlanStep), then assigns each anchor,
// priced by its units, to one fragment whose masks before and after the
// batch hold the anchor's pattern-radius ball (PlanSeeds): the owner
// always qualifies, and SeedableFragments admits others from the
// pre-batch view and the batch's edge ops alone. Each fragment then runs
// the before side of its share of the units as one Cluster step; the
// master absorbs the batch once (GraphStore::Absorb, the step's only
// apply); each fragment runs its after side as a second Cluster step;
// the master merges the per-fragment added and removed lists with a
// plain sorted merge and renders the payload; and it commits the batch
// last (GraphStore::Commit), once the record's fsync is done.
// Attribution is a stateless function of the match and the batch's whole
// footprint, so the per-fragment diffs partition the single store's step
// diff whatever the assignment. A single store runs the same algorithm
// with one fragment that seeds every anchor.
//
// On-disk layout -- the coordinator's whole durable state is one
// GraphStore (serve/graph_store.h), the master, plus the partition:
//
//   dir/store.meta, dir/snapshot-<s>.tsv, dir/deltas.log
//                                 the master: the global graph, as a
//                                 single store holds its graph; each
//                                 accepted batch is appended to its log
//                                 durably
//   dir/coordinator.meta          magic v2 + fragment count + halo radius
//                                 + replication + vertex-cut ownership
//
// Fragments keep nothing, durable or in memory, but their seeds of the
// batch in flight: recovery, compaction and the running violation count
// are the master's. Open is GraphStore::Open plus the partition from
// coordinator.meta; Compact is the master's compaction, committed by its
// store.meta rename. Directories written by older builds -- a
// routing.log journal and global-snapshot-<s>.tsv files, perhaps
// frag-<f>/ stores -- are converted once, on their first Open, into this
// layout.
//
// Rebalancing. Rebalance(node, to_fragment) migrates ownership of a hot
// vertex between batches: it writes the new owner table to the meta,
// then appends an empty batch through the master under one global
// sequence number (the graph is unchanged, so the step's violation diff
// is empty by construction). Open reads the owner table from the meta,
// so a recovered rebalance seq always comes with the new table; a crash
// between the two writes leaves the new table with no seq consumed,
// which serves the same graph and diffs.
#ifndef GFD_SERVE_COORDINATOR_H_
#define GFD_SERVE_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "parallel/cluster.h"
#include "parallel/fragment.h"
#include "serve/graph_store.h"
#include "serve/serving_store.h"

namespace gfd {

struct CoordinatorOptions {
  /// The master's options: its compaction thresholds.
  GraphStoreOptions store;
};

/// What the coordinator adds to its master's GraphStoreStats (sequence,
/// anchor, replay and compactions are the master's).
struct CoordinatorStats {
  size_t batches = 0;     ///< batches accepted this session
  size_t rebalances = 0;  ///< ownership migrations this session
  /// Per fragment, the anchors it seeded this session (PlanSeeds).
  std::vector<uint64_t> seeds;
};

class Coordinator final : public ServingStore {
 public:
  /// Creates `dir` as a coordinator over `fragments` partitions of `g`:
  /// vertex-cut ownership is computed once (VertexCutPartition) and
  /// written to coordinator.meta, then the master store is created
  /// holding `g` at seq 0 -- its store.meta last, so an interrupted Init
  /// leaves a directory a second Init accepts. `halo_radius` must be >= 1
  /// and >= the max pattern radius of every rule set later served
  /// (AppendAndDiff rejects an engine whose MaxPatternRadius exceeds it).
  /// Fails if `dir` already holds a store or a coordinator, in any
  /// layout.
  static bool Init(const std::string& dir, const PropertyGraph& g,
                   size_t fragments, uint32_t halo_radius = 3,
                   std::string* error = nullptr);

  /// Opens `dir`: the master recovers the global graph (GraphStore::Open)
  /// and the partition comes from the meta -- one path for every crash
  /// state. A directory an older build wrote (routing.log present) is
  /// first converted into the master's layout: its graph is recovered
  /// from the newest global snapshot the journal bridges plus the
  /// journal's later batches and written as the master's snapshot at that
  /// seq, a count taken at that seq is carried, and the old files are
  /// deleted.
  static std::optional<Coordinator> Open(const std::string& dir,
                                         const CoordinatorOptions& opts = {},
                                         std::string* error = nullptr);

  size_t num_fragments() const { return partition_.num_fragments; }
  const Partition& partition() const { return partition_; }
  std::span<const uint32_t> node_owner() const {
    return partition_.node_owner;
  }
  /// Every fragment's residency mask over the current graph, computed on
  /// each call (never stored, never persisted).
  FragmentResidency residency() const {
    return ComputeResidency(view(), partition_);
  }
  /// The master's live global view: the one graph, absorbing each
  /// accepted batch in place.
  const GraphView& view() const { return master_->view(); }
  uint64_t last_seq() const override { return master_->last_seq(); }
  const std::string& dir() const { return dir_; }

  const CoordinatorStats& stats() const { return stats_; }

  /// Accepts one update batch (the E+/E-/A TSV of graph/loader.h): the
  /// master parses, validates, durably appends and absorbs it under the
  /// next global sequence number (GraphStore::Append). Nothing reaches
  /// the log when validation fails.
  std::optional<uint64_t> Append(std::string_view delta_tsv,
                                 std::string* error = nullptr) override;

  /// The distributed serving step: Append plus the violation diff
  /// induced by exactly this batch. Each fragment runs both sides of its
  /// share of the step's units on the master's view, around the master's
  /// one absorb, seeded from the anchors the master planned for it (each
  /// anchor at one fragment, with every unit rooted there); the master
  /// merges the per-fragment added and removed lists (disjoint, since the
  /// seeds partition the units' roots), which equals single-node
  /// GraphStore AppendAndDiff record for record. The master's record is
  /// staged before the step and committed after the merge, so its fsync
  /// runs beside the step; a failed fsync takes the batch back out
  /// (GraphStore::Commit).
  /// Errors out (before anything is appended) when the engine's
  /// MaxPatternRadius exceeds the partition's halo radius.
  std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts = {}, uint64_t* seq_out = nullptr,
      std::string* error = nullptr) override;

  /// Migrates ownership of `node` to `to_fragment` between batches:
  /// persists the new owner table, then appends an empty batch through
  /// the master under one global sequence number; a count valid before is
  /// valid after. Returns the consumed sequence number. Fails for an
  /// out-of-range node or fragment, or a node `to_fragment` already owns.
  std::optional<uint64_t> Rebalance(NodeId node, uint32_t to_fragment,
                                    std::string* error = nullptr);

  /// The master's compaction policy.
  bool ShouldCompact() const override;

  /// The master's compaction: its store.meta rename commits the round.
  bool Compact(std::string* error = nullptr) override;

  /// Policy entry point: Compact() iff ShouldCompact().
  bool MaybeCompact(std::string* error = nullptr) override;

  /// The master's running violation count (GraphStore::violation_count).
  std::optional<uint64_t> violation_count(
      uint64_t fingerprint) const override;
  bool SetViolationCount(uint64_t count, uint64_t fingerprint,
                         std::string* error = nullptr) override;
  std::optional<MetaCount> persisted_count() const override {
    return master_->persisted_count();
  }

  /// The master's re-derivation: the single-store step, which this
  /// coordinator's merged step equals.
  bool Restep(const ViolationEngine& engine, uint64_t after_seq,
              const RestepVisitor& visit, const IncrementalOptions& opts = {},
              std::string* error = nullptr) const override {
    return master_->Restep(engine, after_seq, visit, opts, error);
  }

  /// The current global graph, materialized from the master's view.
  PropertyGraph MaterializeCurrent() const override;

  /// Unified telemetry snapshot: the master's, with the fragment count
  /// and the coordinator stats folded in.
  ServingMetricsSnapshot MetricsSnapshot() const override;

 private:
  Coordinator() = default;

  std::string dir_;
  // The global graph, durable: snapshot + log in dir_, with its running
  // violation count.
  std::optional<GraphStore> master_;
  // Vertex-cut ownership and the halo radius, as coordinator.meta holds
  // them.
  Partition partition_;
  // Master + one worker per fragment.
  std::unique_ptr<Cluster> cluster_;
  CoordinatorStats stats_;
};

}  // namespace gfd

#endif  // GFD_SERVE_COORDINATOR_H_
