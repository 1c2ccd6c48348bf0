// The simulated shared-nothing cluster: a master coordinating n workers
// (threads) over a vertex-cut fragmented graph, in BSP supersteps. Data
// that crosses worker boundaries is explicitly *copied*, and accounted in
// messages and bytes through CountShipment() -- the transport is memcpy
// instead of TCP, but the communication pattern (what is shipped, when,
// to whom) is the paper's (Section 6.2). See docs/ARCHITECTURE.md,
// "Substitutions".
#ifndef GFD_PARALLEL_CLUSTER_H_
#define GFD_PARALLEL_CLUSTER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/thread_pool.h"

namespace gfd {

/// Runtime knobs of the parallel algorithms.
struct ParallelRunConfig {
  size_t workers = 4;
  /// Pivot-aligned match placement (Section 6.2 "load balancing"): every
  /// match lives at worker pivot % n from level 0 on. Off (the ParGFDnb
  /// ablation), matches stay on their pivot's fragment owner. Either way
  /// a pivot lives on one worker and supports add up across workers
  /// without shipping pivots; only the spread of the work differs.
  bool load_balance = true;
};

/// Communication and skew accounting for one parallel run.
struct ClusterStats {
  uint64_t messages = 0;
  uint64_t bytes_shipped = 0;
  double match_seconds = 0;     ///< parallel pattern matching wall time
  double validate_seconds = 0;  ///< parallel GFD validation wall time
  double replication = 1.0;     ///< vertex-cut node replication factor
  /// Work skew of ParDis's profiling and validation: over every pattern
  /// the workers profile, the sum of the largest worker's match rows
  /// divided by the sum of the mean rows per worker. 1.0 = every
  /// pattern's rows split evenly; n = each pattern's rows on one worker.
  double max_skew = 1.0;
};

/// Master + n workers executing barrier-synchronized steps.
class Cluster {
 public:
  /// Worker 0 is the calling thread of each step, so the pool holds one
  /// thread per other worker: a one-worker cluster starts none.
  explicit Cluster(size_t workers)
      : pool_(std::max<size_t>(workers, 1) - 1), workers_(workers) {}

  size_t num_workers() const { return workers_; }

  /// Runs fn(worker_id) on every worker and waits for all (one BSP step).
  /// Worker 0 runs on the calling thread, so a step does not wait out a
  /// pool thread's wake-up for it, and a one-worker cluster runs every
  /// step inline; workers 1.. go to the pool, one task each.
  void RunStep(const std::function<void(size_t)>& fn) {
    for (size_t w = 1; w < workers_; ++w) {
      pool_.Submit([&fn, w] { fn(w); });
    }
    if (workers_ > 0) fn(0);
    pool_.Wait();
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
