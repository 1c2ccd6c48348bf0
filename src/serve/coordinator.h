// Distributed incremental detection over vertex-cut fragments of one
// in-memory graph: a Coordinator is a GraphStore (serve/graph_store.h)
// with a partition.
//
// It casts the store's serving step in the paper's master-and-fragments
// shape (Section 6): a master owning N fragments, run as the workers of
// one Cluster in this process. The graph is held once, by the store. A
// fragment is an owner set -- the vertex-cut partition's nodes it owns
// -- plus its residency mask over that graph: the nodes within
// `halo_radius` undirected hops of a node it owns (parallel/fragment.h
// ComputeResidency). The masks are what a fragment of a shared-nothing
// deployment would store; here they decide only where a batch's work may
// run, and summed over fragments they cover ~replication x |E| edges
// while the process stores |E| once. The halo radius is chosen >= the
// max per-variable pattern eccentricity
// (ViolationEngine::MaxPatternRadius), so every match through an owned
// node lies inside the owner's mask.
//
// The step is GraphStore::AppendAndDiff. Its route assigns each anchor,
// priced by its units, to one fragment whose masks before and after the
// batch hold the anchor's pattern-radius ball (PlanSeeds): the owner
// always qualifies, and SeedableFragments admits others from the
// pre-batch view and the batch's edge ops alone. Each fragment runs the
// before side of its share of the units as one Cluster step, the store
// absorbs the batch once, and each fragment runs its after side as a
// second Cluster step; the merge is a plain sorted merge of the
// per-fragment added and removed lists. Attribution is a stateless
// function of the match and the batch's whole footprint, so the
// per-fragment diffs partition the single store's step diff whatever the
// assignment. A single store runs the same step as one share that seeds
// every anchor.
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
// Fragments keep nothing, durable or in memory, but their seeds of the
// batch in flight: recovery, compaction and the running violation count
// are the store's. Open is GraphStore::Open plus the partition from
// coordinator.meta. Directories written by older builds -- a routing.log
// journal and global-snapshot-<s>.tsv files, perhaps frag-<f>/ stores --
// are converted once, on their first Open, into this layout.
//
// Rebalancing. Rebalance(node, to_fragment) migrates ownership of a hot
// vertex between batches: it writes the new owner table to the meta,
// then appends an empty batch under one global sequence number (the
// graph is unchanged, so the step's violation diff is empty by
// construction). Open reads the owner table from the meta, so a
// recovered rebalance seq always comes with the new table; a crash
// between the two writes leaves the new table with no seq consumed,
// which serves the same graph and diffs.
#ifndef GFD_SERVE_COORDINATOR_H_
#define GFD_SERVE_COORDINATOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "graph/property_graph.h"
#include "parallel/fragment.h"
#include "serve/graph_store.h"

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
  /// and the partition it spreads its step over comes from the meta --
  /// one path for every crash state. A directory an older build wrote
  /// (routing.log present) is first converted into the store's layout:
  /// its graph is recovered from the newest global snapshot the journal
  /// bridges plus the journal's later batches and written as the store's
  /// snapshot at that seq, a count taken at that seq is carried, and the
  /// old files are deleted.
  static std::optional<Coordinator> Open(const std::string& dir,
                                         const CoordinatorOptions& opts = {},
                                         std::string* error = nullptr);

  size_t num_fragments() const { return partition_->num_fragments; }
  const Partition& partition() const { return *partition_; }
  std::span<const uint32_t> node_owner() const {
    return partition_->node_owner;
  }
  /// Every fragment's residency mask over the current graph, computed on
  /// each call (never stored, never persisted).
  FragmentResidency residency() const {
    return ComputeResidency(view(), *partition_);
  }

  /// Migrates ownership of `node` to `to_fragment` between batches:
  /// persists the new owner table, then appends an empty batch under one
  /// global sequence number; a count valid before is valid after.
  /// Returns the consumed sequence number. Fails for an out-of-range node
  /// or fragment, or a node `to_fragment` already owns.
  std::optional<uint64_t> Rebalance(NodeId node, uint32_t to_fragment,
                                    std::string* error = nullptr);

 private:
  explicit Coordinator(GraphStore store) : GraphStore(std::move(store)) {}
};

}  // namespace gfd

#endif  // GFD_SERVE_COORDINATOR_H_
