// A vertex-cut partition of one in-memory graph, kept beside it: a
// Coordinator is a GraphStore (serve/graph_store.h) plus an owner table.
//
// The partition is the plan of a shared-nothing deployment in the
// paper's master-and-fragments shape (Section 6). A fragment is an owner
// set -- the vertex-cut partition's nodes it owns -- plus its residency
// mask over the graph: the nodes within `halo_radius` undirected hops of
// a node it owns (parallel/fragment.h ComputeResidency). The masks are
// what each fragment of such a deployment would store; summed over
// fragments they cover ~replication x |E| edges while this process
// stores |E| once, and `gfdtool serve status` reports them. The halo
// radius is chosen >= the max per-variable pattern eccentricity
// (ViolationEngine::MaxPatternRadius), so every match through an owned
// node lies inside its owner's mask.
//
// The serving step does not read the partition. AppendAndDiff rejects
// an engine whose pattern radius exceeds the halo radius -- a rule set
// the planned deployment could not serve -- and otherwise runs the
// store's step, as a single store does: the diffs, logs, snapshots and
// feed a coordinator serves are a single store's, byte for byte.
//
// On-disk layout -- the coordinator's whole durable state is its store
// plus the partition:
//
//   dir/store.meta, dir/snapshot-<s>.tsv, dir/deltas.log
//                                 the store: the global graph, as a
//                                 single store holds its graph; each
//                                 accepted batch is appended to its log
//                                 durably
//   dir/coordinator.meta          magic v2 + fragment count + halo radius
//                                 + replication + vertex-cut ownership
//
// The owner table is the coordinator's only state of its own; recovery,
// compaction and the running violation count are the store's. Open is
// GraphStore::Open plus the partition from coordinator.meta. A
// directory an older build wrote -- a routing.log journal beside
// global-snapshot-<s>.tsv files, perhaps frag-<f>/ stores -- is refused,
// untouched: export its graph with the build that wrote it and Init a
// coordinator over the export.
//
// Rebalancing. Rebalance(node, to_fragment) moves ownership of a hot
// vertex between batches with one atomic rewrite of coordinator.meta. It
// consumes no sequence number and writes nothing to the store: the
// step, the diffs, replay and the running count read nothing of the
// table, so a crash leaves either table over the same graph.
#ifndef GFD_SERVE_COORDINATOR_H_
#define GFD_SERVE_COORDINATOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "detect/engine.h"
#include "graph/property_graph.h"
#include "parallel/fragment.h"
#include "serve/graph_store.h"
#include "serve/serving_store.h"

namespace gfd {

struct CoordinatorOptions {
  /// The store's options: its compaction thresholds.
  GraphStoreOptions store;
};

class Coordinator final : public GraphStore {
 public:
  /// Creates `dir` as a coordinator over `fragments` partitions of `g`:
  /// vertex-cut ownership is computed once (VertexCutPartition) and
  /// written to coordinator.meta, then the store is created holding `g`
  /// at seq 0 -- its store.meta last, so an interrupted Init leaves a
  /// directory a second Init accepts. `halo_radius` must be >= 1 and >=
  /// the max pattern radius of every rule set later served
  /// (AppendAndDiff rejects an engine whose MaxPatternRadius exceeds it).
  /// Fails if `dir` already holds a store or a coordinator, in any
  /// layout.
  static bool Init(const std::string& dir, const PropertyGraph& g,
                   size_t fragments, uint32_t halo_radius = 3,
                   std::string* error = nullptr);

  /// Opens `dir`: the store recovers the global graph (GraphStore::Open)
  /// and the partition comes from the meta -- one path for every crash
  /// state. Fails before reading anything, with an error naming the
  /// older layout, when `dir` holds routing.log (a directory an older
  /// build wrote).
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

  /// The store's serving step (GraphStore::AppendAndDiff), after one
  /// check: errors out, before anything is appended, when the engine's
  /// MaxPatternRadius exceeds the halo radius.
  std::optional<IncrementalDiff> AppendAndDiff(
      const ViolationEngine& engine, std::string_view delta_tsv,
      const IncrementalOptions& opts = {}, uint64_t* seq_out = nullptr,
      std::string* error = nullptr) override;

  /// The store's snapshot, with the partition's fragment count.
  ServingMetricsSnapshot MetricsSnapshot() const override;

  /// Migrates ownership of `node` to `to_fragment` between batches: one
  /// atomic rewrite of the owner table, and nothing else -- no seq is
  /// consumed, and last_seq, the graph, the logs and the running count
  /// stay as they were. Fails for an out-of-range node or fragment, a
  /// node `to_fragment` already owns, or a failed write (the old table
  /// stays).
  bool Rebalance(NodeId node, uint32_t to_fragment,
                 std::string* error = nullptr);

 private:
  Coordinator(GraphStore store, Partition partition)
      : GraphStore(std::move(store)), partition_(std::move(partition)) {}

  Partition partition_;
};

}  // namespace gfd

#endif  // GFD_SERVE_COORDINATOR_H_
