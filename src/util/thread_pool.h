// A fixed-size thread pool with a blocking task queue and a ParallelFor
// helper. Used by the simulated cluster runtime (src/parallel) and by
// benches that sweep worker counts.
#ifndef GFD_UTIL_THREAD_POOL_H_
#define GFD_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gfd {

/// Fixed pool of worker threads executing submitted std::function tasks.
///
/// Lifecycle: construct with n threads, Submit() any number of tasks,
/// Wait() for quiescence (all submitted tasks finished), destruct to join.
/// A pool of zero threads starts none and runs each task inside Submit,
/// on the calling thread.
///
/// Shutdown: the destructor marks the pool shut down, drains every task
/// already accepted, and joins. A Submit that races shutdown -- legal
/// only from a worker task, whose thread the destructor is still
/// joining -- is rejected (returns false) instead of leaving a task
/// queued that no worker will ever run. Calling Submit from any other
/// thread after the destructor has returned is a use-after-free, as
/// with any object.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution by some worker. Returns false (and
  /// drops the task) once shutdown has begun.
  bool Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  /// Number of worker threads.
  size_t size() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;  // guards: tasks_, in_flight_, shutdown_
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Runs fn(i) for i in [0, n) across `pool`, blocking until all complete.
/// Work is split into contiguous chunks, one per worker, to keep
/// scheduling overhead negligible for small bodies. The calling thread
/// runs the first chunk itself (indices [0, ceil(n / workers))) while
/// the pool runs the rest, so a loop of one chunk -- n == 1, or a pool
/// of at most one thread -- runs entirely on the caller.
void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace gfd

#endif  // GFD_UTIL_THREAD_POOL_H_
