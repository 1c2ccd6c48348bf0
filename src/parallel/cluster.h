// The simulated shared-nothing cluster: a master coordinating n workers
// (threads) over a vertex-cut fragmented graph, in BSP supersteps. Data
// that crosses worker boundaries is explicitly *copied*, and accounted in
// messages and bytes through CountShipment() -- the transport is memcpy
// instead of TCP, but the communication pattern (what is shipped, when,
// to whom) is the paper's (Section 6.2). See docs/ARCHITECTURE.md,
// "Substitutions".
#ifndef GFD_PARALLEL_CLUSTER_H_
#define GFD_PARALLEL_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/thread_pool.h"

namespace gfd {

/// Runtime knobs of the parallel algorithms.
struct ParallelRunConfig {
  size_t workers = 4;
  /// Pivot-aligned match shuffling between supersteps (Section 6.2 "load
  /// balancing"). The ParGFDnb ablation turns this off.
  bool load_balance = true;
};

/// Communication and skew accounting for one parallel run.
struct ClusterStats {
  uint64_t messages = 0;
  uint64_t bytes_shipped = 0;
  uint64_t matches_rebalanced = 0;
  double match_seconds = 0;     ///< parallel pattern matching wall time
  double validate_seconds = 0;  ///< parallel GFD validation wall time
  double replication = 1.0;     ///< vertex-cut node replication factor
  /// Max over supersteps of (max worker busy share / mean busy share);
  /// 1.0 = perfectly balanced.
  double max_skew = 1.0;
};

/// Master + n workers executing barrier-synchronized steps.
class Cluster {
 public:
  explicit Cluster(size_t workers)
      : pool_(workers), workers_(workers) {}

  size_t num_workers() const { return workers_; }

  /// Runs fn(worker_id) on every worker and waits for all (one BSP step).
  void RunStep(const std::function<void(size_t)>& fn) {
    ParallelFor(pool_, workers_, fn);
  }

  /// Accounts a point-to-point shipment of `count` items of size
  /// `item_bytes` and returns nothing; the caller performs the actual
  /// copy. Thread safe.
  void CountShipment(uint64_t count, uint64_t item_bytes) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(count * item_bytes, std::memory_order_relaxed);
  }

  /// Accounts a broadcast from the master to all workers.
  void CountBroadcast(uint64_t count, uint64_t item_bytes) {
    messages_.fetch_add(workers_, std::memory_order_relaxed);
    bytes_.fetch_add(workers_ * count * item_bytes,
                     std::memory_order_relaxed);
  }

  uint64_t messages() const { return messages_.load(); }
  uint64_t bytes() const { return bytes_.load(); }

 private:
  ThreadPool pool_;
  size_t workers_;
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace gfd

#endif  // GFD_PARALLEL_CLUSTER_H_
