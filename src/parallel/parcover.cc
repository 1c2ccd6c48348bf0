#include "parallel/parcover.h"

#include <algorithm>
#include <numeric>

#include "gfd/problems.h"
#include "util/thread_pool.h"

namespace gfd {

std::vector<Gfd> ParCover(std::vector<Gfd> sigma,
                          const ParallelRunConfig& pcfg, CoverStats* stats) {
  return GroupedCover(
      std::move(sigma), stats,
      [&](std::span<const uint64_t> costs,
          const std::function<void(size_t)>& eliminate) {
        // LPT bin packing: largest estimated group cost first, to the
        // least loaded worker (factor-2 approximation of makespan, the
        // paper's [4]).
        std::vector<size_t> order(costs.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return costs[a] > costs[b]; });
        std::vector<std::vector<size_t>> assignment(pcfg.workers);
        std::vector<uint64_t> load(pcfg.workers, 0);
        for (size_t g : order) {
          size_t best = 0;
          for (size_t w = 1; w < pcfg.workers; ++w) {
            if (load[w] < load[best]) best = w;
          }
          assignment[best].push_back(g);
          load[best] += costs[g];
        }
        Cluster cluster(pcfg.workers);
        cluster.RunStep([&](size_t w) {
          for (size_t g : assignment[w]) eliminate(g);
        });
      });
}

std::vector<Gfd> ParCoverNoGrouping(std::vector<Gfd> sigma,
                                    const ParallelRunConfig& pcfg,
                                    CoverStats* stats) {
  CoverStats local_stats;
  CoverStats& st = stats ? *stats : local_stats;
  OrderForCover(sigma, st);
  const size_t n = sigma.size();

  // Phase 1: parallel marking, every test against the full Sigma (that is
  // the ablation's cost: no Lemma-6 locality).
  std::vector<char> candidate(n, 0);
  ThreadPool pool(pcfg.workers);
  ParallelFor(pool, n, [&](size_t i) {
    std::vector<Gfd> others;
    others.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(sigma[j]);
    }
    if (Implies(others, sigma[i])) candidate[i] = 1;
  });
  st.implication_tests += n;

  // Phase 2: sequential confirmation against the surviving set, so that
  // mutually implying GFDs are not both dropped.
  std::vector<char> alive(n, 1);
  for (size_t i = 0; i < n; ++i) {
    if (!candidate[i]) continue;
    std::vector<Gfd> others;
    for (size_t j = 0; j < n; ++j) {
      if (j != i && alive[j]) others.push_back(sigma[j]);
    }
    ++st.implication_tests;
    if (Implies(others, sigma[i])) {
      alive[i] = 0;
      ++st.removed;
    }
  }
  std::vector<Gfd> cover;
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) cover.push_back(std::move(sigma[i]));
  }
  return cover;
}

}  // namespace gfd
