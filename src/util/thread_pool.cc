#include "util/thread_pool.h"

#include <algorithm>

namespace gfd {

ThreadPool::ThreadPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {  // no worker: the caller runs it
    task();
    return true;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A task accepted after shutdown would sit in the queue forever
    // once the workers exit (and wedge Wait); reject it instead.
    if (shutdown_) return false;
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t workers = std::clamp<size_t>(pool.size(), 1, n);
  const size_t chunk = (n + workers - 1) / workers;
  // Chunks 1.. go to the pool; the caller runs chunk 0 meanwhile, so a
  // balanced loop does not wait out the last worker's wake-up, and a
  // one-chunk loop never leaves the calling thread.
  for (size_t begin = chunk; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    pool.Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  for (size_t i = 0; i < chunk; ++i) fn(i);
  pool.Wait();
}

}  // namespace gfd
