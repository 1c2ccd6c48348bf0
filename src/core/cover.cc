#include "core/cover.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "gfd/problems.h"
#include "pattern/canonical.h"
#include "util/hash.h"

namespace gfd {

namespace {

bool MoreSpecific(const Gfd& a, const Gfd& b) {
  if (a.pattern.NumEdges() != b.pattern.NumEdges()) {
    return a.pattern.NumEdges() > b.pattern.NumEdges();
  }
  if (a.lhs.size() != b.lhs.size()) return a.lhs.size() > b.lhs.size();
  if (!(a.rhs == b.rhs)) return a.rhs < b.rhs;
  if (!(a.lhs == b.lhs)) return a.lhs < b.lhs;
  return false;
}

// One pattern group: indices into the ordered Sigma.
struct CoverGroup {
  std::vector<size_t> members;   // isomorphic patterns, most specific first
  std::vector<size_t> embedded;  // Lemma 6: patterns embedding into theirs
};

}  // namespace

void OrderForCover(std::vector<Gfd>& sigma, CoverStats& stats) {
  // std::sort may reorder GFDs that MoreSpecific ranks equal, so an input
  // already in order (a cover) is left as it is: covering a cover
  // reproduces it.
  if (!std::is_sorted(sigma.begin(), sigma.end(), MoreSpecific)) {
    std::sort(sigma.begin(), sigma.end(), MoreSpecific);
  }
  const size_t before = sigma.size();
  sigma.erase(std::unique(sigma.begin(), sigma.end()), sigma.end());
  stats.removed += before - sigma.size();
}

std::vector<Gfd> GroupedCover(std::vector<Gfd> sigma, CoverStats* stats,
                              const CoverGroupRunner& run) {
  CoverStats local;
  CoverStats& st = stats ? *stats : local;
  OrderForCover(sigma, st);
  const size_t n = sigma.size();

  // Group by pattern isomorphism (pivot-free canonical codes: implication
  // does not involve pivots). Scanning Sigma in order keeps each group's
  // members most specific first.
  std::vector<CoverGroup> groups;
  std::unordered_map<std::vector<uint32_t>, size_t, VecHash> group_of;
  for (size_t i = 0; i < n; ++i) {
    auto [it, added] = group_of.try_emplace(
        CanonicalCode(sigma[i].pattern, /*fix_pivot=*/false), groups.size());
    if (added) groups.emplace_back();
    groups[it->second].members.push_back(i);
  }
  std::vector<uint64_t> costs;
  costs.reserve(groups.size());
  for (CoverGroup& grp : groups) {
    const Pattern& rep = sigma[grp.members[0]].pattern;
    for (size_t i = 0; i < n; ++i) {
      if (HasEmbedding(sigma[i].pattern, rep, /*require_pivot=*/false)) {
        grp.embedded.push_back(i);
      }
    }
    costs.push_back(grp.members.size() * (grp.embedded.size() + 1));
  }

  // Liveness is shared across groups: a slot is written only by the run
  // of its own group, but embedded sets reach into other groups, whose
  // runs may read it concurrently -- so the cells are atomic. Relaxed
  // suffices: a stale read changes no verdict (cover.h).
  std::vector<std::atomic<char>> alive(n);
  for (auto& a : alive) a.store(1, std::memory_order_relaxed);
  run(costs, [&](size_t g) {
    const CoverGroup& grp = groups[g];
    for (size_t mi : grp.members) {
      std::vector<Gfd> others;
      others.reserve(grp.embedded.size());
      for (size_t ei : grp.embedded) {
        if (ei != mi && alive[ei].load(std::memory_order_relaxed)) {
          others.push_back(sigma[ei]);
        }
      }
      if (Implies(others, sigma[mi])) {
        alive[mi].store(0, std::memory_order_relaxed);
      }
    }
  });

  // Every GFD was tested once; `run` has returned, so the flags are final.
  st.implication_tests += n;
  std::vector<Gfd> cover;
  for (size_t i = 0; i < n; ++i) {
    if (alive[i].load(std::memory_order_relaxed)) {
      cover.push_back(std::move(sigma[i]));
    }
  }
  st.removed += n - cover.size();
  return cover;
}

std::vector<Gfd> SeqCover(std::vector<Gfd> sigma, CoverStats* stats) {
  return GroupedCover(std::move(sigma), stats,
                      [](std::span<const uint64_t> costs,
                         const std::function<void(size_t)>& eliminate) {
                        for (size_t g = 0; g < costs.size(); ++g) eliminate(g);
                      });
}

}  // namespace gfd
