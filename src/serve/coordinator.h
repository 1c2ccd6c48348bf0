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
// On-disk layout -- the coordinator's whole durable state is one
// GraphStore (serve/graph_store.h), the master, plus the partition:
//
//   dir/store.meta, dir/snapshot-<s>.tsv, dir/deltas.log
//                                 the master: the global graph, as a
//                                 single store holds its graph; each
//                                 accepted batch is appended to its log
//                                 durably BEFORE any fragment sees it
//   dir/coordinator.meta          magic v2 + fragment count + halo radius
//                                 + replication + vertex-cut ownership
//
// Fragments keep nothing durable. A fragment's graph is a function of
// the global graph and the owner table, and it is built one way:
// ExtractSubgraph of the global graph under the current residency -- by
// Open from the recovered graph, and by Compact from the master's new
// snapshot. Between the two, fragments absorb their shipped sub-batches.
//
// Work partitioning is planned by the master, not by ownership: fragment
// f runs the engine's DetectStep on its partition+halo view around its
// sub-batch, seeded from the anchors the master assigned it
// (RoutingIndex::PlanSeeds) -- never from its local view's changes,
// which include halo-maintenance endpoints. The anchors (BatchFootprint)
// are picked on the master's pre-batch global view; each goes to exactly
// one fragment whose views before and after the batch hold the anchor's
// pattern-radius ball, the most expensive first to the least-loaded such
// fragment (the owner always qualifies). A seed carries its write units
// -- the batch's writes at it -- plus the edge units of the changed keys
// anchored at it, and its fragment enumerates every match through it.
// Attribution is a stateless function of the match and the batch's whole
// footprint, so the per-fragment step diffs partition the global one
// whatever the assignment, and the master merges them with a plain
// sorted merge.
//
// Recovery, compaction and the running violation count are the master's:
// Open is GraphStore::Open, then the partition from coordinator.meta,
// residency once, and every fragment extracted from the recovered graph.
// Compact is the master's compaction, committed by its store.meta rename,
// then the fragments rebuilt from its new base. Directories written by
// older builds -- a routing.log journal and global-snapshot-<s>.tsv
// files, perhaps frag-<f>/ stores -- are converted once, on their first
// Open, into this layout.
//
// Rebalancing. Rebalance(node, to_fragment) migrates ownership of a hot
// vertex between batches: it writes the new owner table to the meta,
// then appends an empty batch through the master under one global
// sequence number and ships each fragment its halo maintenance (the
// graph is unchanged, so the step's violation diff is empty by
// construction). Open reads the owner table from the meta, so a
// recovered rebalance seq always comes with the new table; a crash
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
#include "graph/live_graph.h"
#include "graph/property_graph.h"
#include "parallel/cluster.h"
#include "parallel/fragment.h"
#include "serve/graph_store.h"
#include "serve/routing_index.h"
#include "serve/serving_store.h"

namespace gfd {

struct CoordinatorOptions {
  /// The master's options: its compaction thresholds.
  GraphStoreOptions store;
};

/// What the coordinator adds to its master's GraphStoreStats (sequence,
/// anchor, replay and compactions are the master's).
struct CoordinatorStats {
  size_t batches = 0;           ///< batches accepted this session
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

  /// Opens `dir`: the master recovers the global graph (GraphStore::Open),
  /// and every fragment is extracted from it under the meta's owner table
  /// -- one path for every crash state. A directory an older build wrote
  /// (routing.log present) is first converted into the master's layout:
  /// its graph is recovered from the newest global snapshot the journal
  /// bridges plus the journal's later batches and written as the master's
  /// snapshot at that seq, a count taken at that seq is carried, and the
  /// old files are deleted.
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
  uint64_t resident_edges(size_t f) const {
    return index_->ResidentEdges(view(), f);
  }
  /// Fragment f's in-memory graph: its resident subgraph.
  const LiveGraph& fragment(size_t f) const { return fragments_[f]; }
  /// The master's live global view (by the storage invariant, the union
  /// of fragment states); it absorbs each accepted batch in place.
  const GraphView& view() const { return master_->view(); }
  uint64_t last_seq() const override { return master_->last_seq(); }
  const std::string& dir() const { return dir_; }

  /// Session stats with the cluster's communication counters folded in.
  CoordinatorStats stats() const;

  /// Accepts one update batch (the E+/E-/A TSV of graph/loader.h): the
  /// master parses, validates, absorbs and durably appends it under the
  /// next global sequence number, then each fragment is shipped its
  /// routed ops plus halo maintenance. Nothing reaches the log or any
  /// fragment when validation fails, and a batch the log does not take
  /// leaves the master's view again.
  std::optional<uint64_t> Append(std::string_view delta_tsv,
                                 std::string* error = nullptr) override;

  /// The distributed serving step: Append plus the violation diff
  /// induced by exactly this batch. Each fragment runs DetectStep around
  /// its sub-batch on its partition+halo view, seeded from the batch
  /// anchors the master planned for it (each anchor at one fragment, with
  /// its write units and the edge units of the keys anchored at it); the
  /// master merges the per-fragment added and removed lists (disjoint,
  /// since the seeds partition the units' roots), which equals
  /// single-node GraphStore AppendAndDiff record for record.
  /// Errors out (before any shipping) when the engine's MaxPatternRadius
  /// exceeds the partition's halo radius.
  std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts = {}, uint64_t* seq_out = nullptr,
      std::string* error = nullptr) override;

  /// Migrates ownership of `node` to `to_fragment` between batches:
  /// persists the new owner table, then appends an empty batch through
  /// the master under one global sequence number and ships the halo
  /// maintenance it implies; a count valid before is valid after.
  /// Returns the consumed sequence number.
  std::optional<uint64_t> Rebalance(NodeId node, uint32_t to_fragment,
                                    std::string* error = nullptr);

  /// The master's compaction policy.
  bool ShouldCompact() const override;

  /// The master's compaction -- its store.meta rename commits the round
  /// -- then every fragment rebuilt in memory from the master's new base
  /// (traced as `extract`).
  bool Compact(std::string* error = nullptr) override;

  /// Policy entry point: Compact() iff ShouldCompact().
  bool MaybeCompact(std::string* error = nullptr) override;

  /// The master's running violation count (GraphStore::violation_count).
  std::optional<uint64_t> violation_count(
      uint64_t fingerprint) const override;
  bool SetViolationCount(uint64_t count, uint64_t fingerprint,
                         std::string* error = nullptr) override;

  /// The current global graph, materialized from the master's view (by
  /// the storage invariant, equal to the union of fragment states).
  PropertyGraph MaterializeCurrent() const override;

  /// Unified telemetry snapshot: the master's, with the fragment count
  /// and the coordinator stats folded in.
  ServingMetricsSnapshot MetricsSnapshot() const override;

 private:
  Coordinator() = default;

  // Rebuilds every fragment as the resident subgraph of `g` -- the
  // current global graph -- under the current residency.
  void ExtractFragments(const PropertyGraph& g);

  // Appends `delta_tsv` through the master, then plans and ships it.
  // Shared by Append and AppendAndDiff (Append passes `diff_ctx` =
  // nullptr).
  struct DiffContext;
  std::optional<uint64_t> AppendAndShip(std::string_view delta_tsv,
                                        DiffContext* diff_ctx,
                                        std::string* error);

  // Ships `plan` for the batch the master took as `seq`: each fragment
  // absorbs its payload, inside its DetectStep -- seeded by the plan's
  // seeds -- when `diff_ctx` asks for the diff; then the plan commits
  // into the index.
  bool Ship(RoutingIndex::ShipPlan&& plan, const BatchFootprint& footprint,
            uint64_t seq, DiffContext* diff_ctx, std::string* error);

  // False (with error) once a partial batch failure degraded the
  // fragments; mutating entry points call this first.
  bool CheckNotDegraded(std::string* error) const;

  std::string dir_;
  // The global graph, durable: snapshot + log in dir_, with its running
  // violation count.
  std::optional<GraphStore> master_;
  // Partition, residency and routing (serve/routing_index.h).
  std::optional<RoutingIndex> index_;
  // Fragment f's resident subgraph, absorbing its sub-batches.
  std::vector<LiveGraph> fragments_;
  // Master + one worker per fragment; also the communication ledger.
  std::unique_ptr<Cluster> cluster_;
  CoordinatorStats stats_;
  // Set when a fragment failed to absorb a batch the master already
  // logged: the in-memory states no longer agree, so every mutating
  // entry point refuses until the coordinator is reopened (which
  // rebuilds every fragment from the recovered global graph).
  bool degraded_ = false;
};

}  // namespace gfd

#endif  // GFD_SERVE_COORDINATOR_H_
