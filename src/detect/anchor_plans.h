// Per-variable anchor plans with move-stable lazy initialization.
//
// Incremental detection enumerates, for every pattern group, the matches
// binding a delta-touched vertex at each variable; that takes one
// CompiledPattern per variable, rooted there instead of at the pivot.
// Detect-only workloads never need them, so they are built lazily on the
// first DetectStep call, guarded by std::once_flag so concurrent
// first calls on one engine stay safe.
//
// std::once_flag is neither movable nor copyable, which makes a lazily-
// initialized member hazardous inside anything that lives in a vector: a
// hand-written move constructor necessarily leaves the flag behind, and
// the moved-to object's fresh flag disagrees with its moved-in plans
// (double build, or worse, a torn build racing a reader). LazyAnchorPlans
// therefore keeps the flag and the plans together behind a unique_ptr:
// moving the owner moves the pointer, never the state, so a build that
// already happened (or is in flight on another thread) stays valid at the
// same address.
#ifndef GFD_DETECT_ANCHOR_PLANS_H_
#define GFD_DETECT_ANCHOR_PLANS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "match/matcher.h"
#include "pattern/pattern.h"

namespace gfd {

class LazyAnchorPlans {
 public:
  LazyAnchorPlans() : state_(std::make_unique<State>()) {}
  LazyAnchorPlans(LazyAnchorPlans&&) noexcept = default;
  LazyAnchorPlans& operator=(LazyAnchorPlans&&) noexcept = default;

  /// The plans for `rep`, one per variable (plan u enumerates exactly the
  /// matches binding variable u to a given node; plans[rep.pivot()]
  /// duplicates the pivot-rooted plan). Built on first call; every later
  /// call -- from any thread, and regardless of how often the owning
  /// object moved in between -- returns the same block.
  const std::vector<CompiledPattern>& Get(const Pattern& rep) const {
    std::call_once(state_->once, [&] {
      state_->plans.reserve(rep.NumNodes());
      for (VarId u = 0; u < rep.NumNodes(); ++u) {
        Pattern q = rep;
        q.set_pivot(u);
        state_->plans.emplace_back(q);
      }
      state_->built.store(true, std::memory_order_release);
    });
    return state_->plans;
  }

  /// Whether Get has completed at least once (test introspection).
  bool built() const { return state_->built.load(std::memory_order_acquire); }

 private:
  struct State {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::vector<CompiledPattern> plans;
  };
  std::unique_ptr<State> state_;
};

}  // namespace gfd

#endif  // GFD_DETECT_ANCHOR_PLANS_H_
