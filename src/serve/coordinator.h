// Distributed incremental detection over TRUE vertex-cut partitioned
// storage: routed batch shipping to per-fragment GraphStores that each
// hold only their owned edge partition plus a border halo.
//
// The Coordinator fuses the serving primitives of earlier PRs -- the
// anchored step detector (detect/engine.h) and the durable
// sequenced GraphStore (serve/graph_store.h) -- into the paper's
// shared-nothing shape (Section 6): a master owning N fragments. Unlike
// the earlier replicated design, no fragment holds the whole graph.
// Fragment f stores exactly the resident subgraph of the global state:
// nodes within `halo_radius` undirected hops of a node it owns, and the
// edges between them (parallel/fragment.h ComputeResidency). The halo
// radius is chosen >= the max per-variable pattern eccentricity
// (ViolationEngine::MaxPatternRadius), which guarantees every match
// anchored at an owned node is enumerable from the fragment's local
// view -- the paper's border-node shipping made concrete. Summed over
// fragments the stored edges are ~replication x |G|, not N x |G|.
//
// Delivery. RouteDelta is the actual shipping mechanism: each accepted
// batch is split per fragment into (1) a shared extension-vocabulary
// preamble -- so all fragments intern identical ids and post-compaction
// vocabularies stay equal, (2) the ops whose referenced nodes are all
// resident in the fragment, in stream order, and (3) halo maintenance:
// edge repair for nodes entering/leaving the fragment's resident set
// plus an attribute refresh for entering nodes (serve/routing_index.h).
// Every shipped byte is accounted through the Cluster, split into
// owned-op bytes and border-halo bytes (CoordinatorStats).
//
// On-disk layout:
//
//   dir/coordinator.meta          magic v2 + fragment count + halo radius
//                                 + owners_seq + vertex-cut ownership
//                                 (+ optional running violation count)
//   dir/routing.log               the master's routing journal: per
//                                 sequence, the global batch plus every
//                                 fragment's sub-batch payload, appended
//                                 durably BEFORE any fragment ships
//   dir/global-snapshot-<s>.tsv   global graph at the compaction anchor
//                                 (the recovery source when a fragment
//                                 directory is lost outright)
//   dir/frag-<f>/                 one GraphStore per fragment, holding
//                                 its partition + halo only
//
// Work partitioning follows data partitioning: fragment f runs the
// engine's DetectStep on its partition+halo view around its sub-batch,
// seeded from the batch's anchors it owns (BatchFootprint, picked on the
// master's pre-batch global view) -- never from its local view's
// changes, which include halo-maintenance endpoints. Attribution is a
// stateless function of the match and the batch's anchor set, so the
// per-fragment step diffs partition the global one and the master
// merges them with a plain sorted merge.
//
// Sequence-ordering invariant. Every fragment applies every global
// sequence number (possibly as an empty or maintenance-only sub-batch),
// and compaction runs in LOCKSTEP (CompactAll), never per-fragment. Step
// diffs do not need it; recovery does: CompactAll re-anchors the routing
// journal where it writes the global snapshot and rolls every fragment,
// so Open() bridges and re-ships from one common anchor and reads
// owners_seq past it as a torn rebalance. Open() restores the invariant
// after any crash: a fragment whose log lost its tail is caught up by
// re-shipping its sub-batches from the routing journal (its own log
// assigns them the same sequence numbers, so catch-up IS replay); a
// fragment lost outright is rebuilt partition-scoped -- ExtractSubgraph
// of the recovered global state under the fragment's residency,
// installed via GraphStore::InitAt -- followed by a lockstep compaction
// that re-unifies the anchors.
//
// Rebalancing. Rebalance(node, to_fragment) migrates ownership of a hot
// vertex between batches: it consumes one global sequence number whose
// sub-batches are pure halo maintenance (the graph is unchanged, so the
// step's violation diff is empty by construction), persists the new
// ownership in the meta (owners_seq records the sequence), and compacts
// in lockstep. The maintenance alone already gives every fragment's live
// view the new residency; the compaction is what lets Open detect a
// crash mid-rebalance (owners_seq past the common anchor) and repair it
// by rebuilding the fragments from the recovered global state under the
// new ownership.
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
#include "serve/delta_log.h"
#include "serve/durable_io.h"
#include "serve/graph_store.h"
#include "serve/routing_index.h"
#include "serve/serving_store.h"

namespace gfd {

struct CoordinatorOptions {
  /// Per-fragment store options. The compaction thresholds feed
  /// ShouldCompact/MaybeCompactAll; fragments never compact unilaterally.
  GraphStoreOptions store;
};

struct CoordinatorStats {
  uint64_t anchor_seq = 0;      ///< common fragment anchor
  uint64_t last_seq = 0;        ///< global sequence (max shipped batch)
  size_t batches = 0;           ///< batches accepted this session
  size_t catchup_records = 0;   ///< journal sub-batches re-shipped on Open
  size_t catchup_snapshots = 0; ///< partition-scoped rebuilds on Open
  size_t lagging_fragments = 0; ///< fragments caught up on Open
  size_t compactions = 0;       ///< lockstep compaction rounds
  size_t rebalances = 0;        ///< ownership migrations this session
  uint64_t messages = 0;        ///< cluster messages (ships + diffs)
  uint64_t bytes_shipped = 0;   ///< cluster bytes (all traffic)
  /// bytes_shipped split by purpose: routed batch ops (including the
  /// shared vocabulary preamble) vs. border-halo maintenance traffic.
  uint64_t bytes_owned_shipped = 0;
  uint64_t bytes_halo_shipped = 0;
  /// Shipped op counts, split the same way: batch ops routed by
  /// residency vs. halo-maintenance ops.
  uint64_t ops_routed = 0;
  uint64_t ops_maintenance = 0;
};

class Coordinator final : public ServingStore {
 public:
  /// Creates `dir` as a coordinator over `fragments` partitions of `g`:
  /// vertex-cut ownership is computed once (VertexCutPartition) and
  /// persisted, and every fragment store is initialized with its
  /// resident subgraph -- owned partition plus `halo_radius`-hop border
  /// halo -- as snapshot-0. `halo_radius` must be >= 1 and >= the max
  /// pattern radius of every rule set later served (AppendAndDiff
  /// rejects an engine whose MaxPatternRadius exceeds it). Fails if
  /// `dir` already holds a coordinator.
  static bool Init(const std::string& dir, const PropertyGraph& g,
                   size_t fragments, uint32_t halo_radius = 3,
                   std::string* error = nullptr);

  /// Opens `dir`: the master recovers the global state from the newest
  /// bridgeable global snapshot plus the routing journal, every fragment
  /// store recovers independently from its local log, and lagging
  /// fragments are caught up from the journal (or rebuilt partition-
  /// scoped from the global state when their directory is gone). A
  /// rebalance interrupted mid-flight is detected via owners_seq and
  /// repaired the same way.
  static std::optional<Coordinator> Open(const std::string& dir,
                                         const CoordinatorOptions& opts = {},
                                         std::string* error = nullptr);

  size_t num_fragments() const { return fragments_.size(); }
  const Partition& partition() const { return index_->partition(); }
  std::span<const uint32_t> node_owner() const {
    return index_->partition().node_owner;
  }
  /// Current per-fragment halo residency (recomputed from the live
  /// graph; never persisted).
  const FragmentResidency& residency() const { return index_->residency(); }
  /// Stored (resident) edge count of fragment f -- the footprint metric.
  uint64_t resident_edges(size_t f) const { return index_->ResidentEdges(f); }
  const GraphStore& fragment(size_t f) const { return fragments_[f]; }
  /// The master's live global view (by the storage invariant, the union
  /// of fragment states); it absorbs each accepted batch in place.
  const GraphView& view() const { return index_->view(); }
  uint64_t last_seq() const override { return stats_.last_seq; }
  const std::string& dir() const { return dir_; }

  /// Session stats with the cluster's communication counters folded in.
  CoordinatorStats stats() const;

  /// Accepts one update batch (the E+/E-/A TSV of graph/loader.h):
  /// validates it once against the master's global view and absorbs it
  /// there, assigns it the next global sequence number, journals the
  /// routed sub-batches durably, then ships each fragment its routed ops
  /// plus halo maintenance. Every fragment applies every sequence number,
  /// so logs never diverge. Nothing reaches any fragment when validation
  /// fails, and a batch the journal does not take leaves the master's
  /// view again.
  std::optional<uint64_t> Append(std::string_view delta_tsv,
                                 std::string* error = nullptr) override;

  /// The distributed serving step: Append plus the violation diff
  /// induced by exactly this batch. Each fragment runs DetectStep around
  /// its sub-batch on its partition+halo view, seeded from the batch's
  /// anchors it owns; the master merges the per-fragment added
  /// and removed lists (ownership attribution makes them disjoint), which
  /// equals single-node GraphStore AppendAndDiff record for record.
  /// Errors out (before any shipping) when the engine's MaxPatternRadius
  /// exceeds the partition's halo radius.
  std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts = {}, uint64_t* seq_out = nullptr,
      std::string* error = nullptr) override;

  /// Migrates ownership of `node` to `to_fragment` between batches:
  /// ships halo maintenance under one global sequence number, persists
  /// the new ownership, and compacts in lockstep so that Open can tell a
  /// completed rebalance from a torn one (owners_seq at or below the
  /// common anchor). Returns the consumed sequence number.
  std::optional<uint64_t> Rebalance(NodeId node, uint32_t to_fragment,
                                    std::string* error = nullptr);

  /// True when any fragment's compaction policy fires.
  bool ShouldCompact() const override;

  /// Lockstep compaction: writes the global snapshot, rolls EVERY
  /// fragment's snapshot to the current global sequence (keeping the
  /// anchors equal, which recovery relies on), and re-anchors the
  /// routing journal.
  bool CompactAll(std::string* error = nullptr);

  /// Policy entry point: CompactAll() iff ShouldCompact().
  bool MaybeCompactAll(std::string* error = nullptr);

  /// ServingStore conformance: lockstep compaction is the only kind a
  /// coordinator has.
  bool Compact(std::string* error = nullptr) override {
    return CompactAll(error);
  }
  bool MaybeCompact(std::string* error = nullptr) override {
    return MaybeCompactAll(error);
  }

  /// Running violation count across the whole graph, maintained by the
  /// serving loop and persisted in coordinator.meta -- same contract as
  /// GraphStore::violation_count.
  std::optional<uint64_t> violation_count(
      uint64_t fingerprint) const override;
  bool SetViolationCount(uint64_t count, uint64_t fingerprint,
                         std::string* error = nullptr) override;

  /// The current global graph, materialized from the master's view (by
  /// the storage invariant, equal to the union of fragment states).
  PropertyGraph MaterializeCurrent() const override;

  /// Unified telemetry snapshot: coordinator stats plus per-fragment
  /// recovery/overlay state folded into the shared shape (overlay_ops
  /// and replay counters are summed over fragments).
  ServingMetricsSnapshot MetricsSnapshot() const override;

 private:
  Coordinator() = default;

  // Re-ships missing sub-batches from the routing journal to every
  // fragment behind `global_seq`, repairs a torn rebalance (owners_seq
  // past the common anchor), then re-unifies compaction anchors with
  // the master's base at `master_anchor`. The tail of Open.
  bool CatchUp(uint64_t global_seq, uint64_t master_anchor,
               std::string* error);

  // Builds a fresh store for fragment f from `current` (the
  // materialized global state) under the current residency -- the
  // partition-scoped snapshot transfer, anchored at `global_seq`.
  std::optional<GraphStore> RebuildFragment(size_t f, uint64_t global_seq,
                                            const PropertyGraph& current,
                                            std::string* error);

  // Journals + ships one planned shipment under the next sequence
  // number; commits the plan into the index on success. Shared by
  // Append / AppendAndDiff / Rebalance (the latter passes
  // `diff_ctx` = nullptr just like Append).
  struct DiffContext;
  std::optional<uint64_t> ShipSequenced(RoutingIndex::ShipPlan&& plan,
                                        std::string_view global_tsv,
                                        DiffContext* diff_ctx,
                                        std::string* error);

  // False (with error) once a partial batch failure degraded the
  // fragments; mutating entry points call this first.
  bool CheckNotDegraded(std::string* error) const;

  // Rewrites coordinator.meta (atomic) with the current ownership,
  // owners_seq and, when valid at the current sequence, the running
  // violation count.
  bool WriteMeta(std::string* error);

  std::string dir_;
  CoordinatorOptions opts_;
  // Master-side global topology, partition, residency, and routing
  // (serve/routing_index.h).
  std::optional<RoutingIndex> index_;
  std::vector<GraphStore> fragments_;
  // Master + one worker per fragment; also the communication ledger.
  std::unique_ptr<Cluster> cluster_;
  // The routing journal (dir/routing.log): per global sequence, the
  // original batch plus every fragment's sub-batch payload.
  std::optional<DeltaLog> journal_;
  CoordinatorStats stats_;
  // Sequence at which the ownership table last changed; fragments whose
  // anchor predates it may hold pre-rebalance bases (repaired on Open).
  uint64_t owners_seq_ = 0;
  // Set when a shipment failed on some fragment after the journal (and
  // possibly other fragments) already recorded the batch: the in-memory
  // states no longer agree, so every mutating entry point refuses until
  // the coordinator is reopened (journal replay repairs the lag).
  bool degraded_ = false;
  // Running violation count (serve/durable_io.h holds the shared
  // validity rule: valid only at the exact sequence it was taken).
  RunningCount count_;
};

}  // namespace gfd

#endif  // GFD_SERVE_COORDINATOR_H_
