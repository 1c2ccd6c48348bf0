// Distributed incremental detection over TRUE vertex-cut partitioned
// storage: routed batch shipping to per-fragment in-memory graphs that
// each hold only their owned edge partition plus a border halo.
//
// The Coordinator fuses the serving primitives of earlier PRs -- the
// anchored step detector (detect/engine.h) and the live graph a durable
// store keeps current (graph/live_graph.h) -- into the paper's
// shared-nothing shape (Section 6): a master owning N fragments. No
// fragment holds the whole graph. Fragment f holds exactly the resident
// subgraph of the global state: nodes within `halo_radius` undirected
// hops of a node it owns, and the edges between them (parallel/
// fragment.h ComputeResidency). The halo radius is chosen >= the max
// per-variable pattern eccentricity (ViolationEngine::MaxPatternRadius),
// which guarantees every match anchored at an owned node is enumerable
// from the fragment's local view -- the paper's border-node shipping made
// concrete. Summed over fragments the stored edges are ~replication x
// |G|, not N x |G|.
//
// Delivery. RouteDelta is the actual shipping mechanism: each accepted
// batch is split per fragment into (1) a shared extension-vocabulary
// preamble -- so all fragments intern identical ids -- (2) the ops whose
// referenced nodes are all resident in the fragment, in stream order,
// and (3) halo maintenance: edge repair for nodes entering/leaving the
// fragment's resident set plus an attribute refresh for entering nodes
// (serve/routing_index.h). Each fragment parses and absorbs its
// sub-batch in memory. Every shipped byte is accounted through the
// Cluster, split into owned-op bytes and border-halo bytes
// (CoordinatorStats).
//
// On-disk layout -- the coordinator's whole durable state:
//
//   dir/coordinator.meta          magic v2 + fragment count + halo radius
//                                 + vertex-cut ownership (+ optional
//                                 running violation count)
//   dir/routing.log               the routing journal: per global
//                                 sequence, the global batch (what a
//                                 deltas.log record holds), appended
//                                 durably BEFORE any fragment sees it
//   dir/global-snapshot-<s>.tsv   the global graph at compaction anchor s
//
// Fragments keep nothing durable. A fragment's graph is a function of
// the global graph and the owner table, and it is built one way:
// ExtractSubgraph of the global graph under the current residency -- by
// Open from the recovered graph, and by CompactAll from the one it
// snapshots. Between the two, fragments absorb their shipped
// sub-batches.
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
// Recovery. Open has one path for every crash state, the single store's:
// it loads the newest global snapshot the journal bridges, absorbs each
// later record's global batch into the master (ReplayLog, as
// GraphStore::Open replays its log), computes residency once under the
// meta's owner table, and extracts every fragment from the recovered
// graph. Compaction is the single store's too: CompactAll writes the
// global snapshot, rebuilds the fragments from it in memory, rebases the
// master and re-anchors the journal, so a crash anywhere in a round
// leaves a snapshot the journal bridges.
//
// Rebalancing. Rebalance(node, to_fragment) migrates ownership of a hot
// vertex between batches: it writes the new owner table to the meta,
// then journals an empty global batch under one global sequence number
// and ships each fragment its halo maintenance (the graph is unchanged,
// so the step's violation diff is empty by construction). Open reads the
// owner table from the meta, so a recovered rebalance seq always comes
// with the new table; a crash between the two writes leaves the new
// table with no seq consumed, which serves the same graph and diffs.
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
#include "graph/live_graph.h"
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
  /// Compaction thresholds of the master's global graph: ShouldCompact
  /// applies the single store's policy (CompactionDue) to it.
  GraphStoreOptions store;
};

struct CoordinatorStats {
  uint64_t anchor_seq = 0;      ///< the global snapshot's sequence
  uint64_t last_seq = 0;        ///< global sequence (max shipped batch)
  size_t replayed_batches = 0;  ///< journal records absorbed on Open
  size_t skipped_batches = 0;   ///< journal records the snapshot held
  size_t batches = 0;           ///< batches accepted this session
  size_t compactions = 0;       ///< compaction rounds this session
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
  /// persisted next to `g` as global-snapshot-0 and an empty journal.
  /// `halo_radius` must be >= 1 and >= the max pattern radius of every
  /// rule set later served (AppendAndDiff rejects an engine whose
  /// MaxPatternRadius exceeds it). Fails if `dir` already holds a
  /// coordinator.
  static bool Init(const std::string& dir, const PropertyGraph& g,
                   size_t fragments, uint32_t halo_radius = 3,
                   std::string* error = nullptr);

  /// Opens `dir`: the master recovers the global graph from the newest
  /// global snapshot the routing journal bridges plus the journal's later
  /// batches, and every fragment is extracted from it under the meta's
  /// owner table -- one path for every crash state. Directories written
  /// by older builds open too: their per-fragment journal frames, frag-<f>
  /// stores and owners_seq line are never read.
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
  /// Fragment f's in-memory graph: its resident subgraph.
  const LiveGraph& fragment(size_t f) const { return fragments_[f]; }
  /// The master's live global view (by the storage invariant, the union
  /// of fragment states); it absorbs each accepted batch in place.
  const GraphView& view() const { return index_->view(); }
  uint64_t last_seq() const override { return stats_.last_seq; }
  const std::string& dir() const { return dir_; }

  /// Session stats with the cluster's communication counters folded in.
  CoordinatorStats stats() const;

  /// Accepts one update batch (the E+/E-/A TSV of graph/loader.h):
  /// validates it once against the master's global view and absorbs it
  /// there, assigns it the next global sequence number, journals it
  /// durably, then ships each fragment its routed ops plus halo
  /// maintenance. Nothing reaches the journal or any fragment when
  /// validation fails, and a batch the journal does not take leaves the
  /// master's view again.
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
  /// persists the new owner table, then journals an empty batch under
  /// one global sequence number and ships the halo maintenance it
  /// implies. Returns the consumed sequence number.
  std::optional<uint64_t> Rebalance(NodeId node, uint32_t to_fragment,
                                    std::string* error = nullptr);

  /// True when the master's overlay exceeds a threshold of
  /// CoordinatorOptions::store (the single store's policy).
  bool ShouldCompact() const override;

  /// One compaction round: writes the global snapshot, rebuilds every
  /// fragment from it in memory, rebases the master and re-anchors the
  /// routing journal.
  bool CompactAll(std::string* error = nullptr);

  /// Policy entry point: CompactAll() iff ShouldCompact().
  bool MaybeCompactAll(std::string* error = nullptr);

  /// ServingStore conformance: a round is the only compaction a
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

  /// Unified telemetry snapshot: coordinator stats folded into the
  /// shared shape. Replay, overlay and compaction fields are the
  /// master's, as a single store reports its own.
  ServingMetricsSnapshot MetricsSnapshot() const override;

 private:
  Coordinator() = default;

  // Rebuilds every fragment as the resident subgraph of `g` -- the
  // current global graph -- under the current residency.
  void ExtractFragments(const PropertyGraph& g);

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

  // Rewrites coordinator.meta (atomic) with the current ownership and,
  // when valid at the current sequence, the running violation count.
  bool WriteMeta(std::string* error);

  std::string dir_;
  CoordinatorOptions opts_;
  // Master-side global graph, partition, residency, and routing
  // (serve/routing_index.h).
  std::optional<RoutingIndex> index_;
  // Fragment f's resident subgraph, absorbing its sub-batches.
  std::vector<LiveGraph> fragments_;
  // Master + one worker per fragment; also the communication ledger.
  std::unique_ptr<Cluster> cluster_;
  // The routing journal (dir/routing.log): per global sequence, the
  // global batch.
  std::optional<DeltaLog> journal_;
  CoordinatorStats stats_;
  // Set when a fragment failed to absorb a batch the journal already
  // recorded: the in-memory states no longer agree, so every mutating
  // entry point refuses until the coordinator is reopened (which
  // rebuilds every fragment from the recovered global graph).
  bool degraded_ = false;
  // Running violation count (serve/durable_io.h holds the shared
  // validity rule: valid only at the exact sequence it was taken).
  RunningCount count_;
};

}  // namespace gfd

#endif  // GFD_SERVE_COORDINATOR_H_
