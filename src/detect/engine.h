// Batched multi-GFD violation detection with shared match plans.
//
// Evaluating a discovered cover rule by rule repeats the expensive part --
// subgraph-isomorphism enumeration -- once per GFD, even though mined rule
// sets are dominated by literal variants over a handful of distinct
// pattern topologies (the same observation ParCover exploits via Lemma 6).
// The ViolationEngine instead:
//   1. groups its rules by pivot-preserving pattern isomorphism
//      (pattern/canonical.h canonical codes),
//   2. compiles ONE CompiledPattern per group and remaps every member's
//      literals into the representative's variable space, and
//   3. evaluates all literals of all grouped GFDs against each enumerated
//      match in a single backtracking pass per pattern group,
// so the matcher cost is paid |groups| times instead of |rules| times.
//
// Execution is parallel over pivot ranges (util/thread_pool.h) and, for
// the simulated shared-nothing path, over vertex-cut fragments
// (parallel/fragment.h) with pivot-aligned ownership: every pivot is
// evaluated by exactly one fragment, so sharded output equals sequential
// output while shipped violations are accounted through the Cluster.
#ifndef GFD_DETECT_ENGINE_H_
#define GFD_DETECT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "detect/anchor_plans.h"
#include "detect/violation.h"
#include "gfd/gfd.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "match/matcher.h"
#include "parallel/cluster.h"
#include "parallel/fragment.h"
#include "pattern/pattern.h"

namespace gfd {

/// Budgets of one detection run. Zero means "unlimited" throughout.
struct DetectOptions {
  /// Per-rule cap: stop collecting violations of a GFD once it has this
  /// many (its matches still enumerate while other rules in the group
  /// need them).
  size_t max_violations_per_gfd = 0;
  /// Global budget across all rules; the run stops once reached.
  size_t max_total_violations = 0;
  /// Worker threads over pivot ranges. 1 = sequential (fully
  /// deterministic even with caps; with caps and >1 workers, *which*
  /// violations are kept can vary run to run -- uncapped output is
  /// deterministic at any worker count, sorted per Violation ordering).
  size_t workers = 1;
  /// Backtracking budget per (group, pivot) enumeration.
  MatchOptions match;
};

struct DetectStats {
  size_t num_rules = 0;
  size_t num_groups = 0;         ///< distinct pattern topologies compiled
  uint64_t pivots_scanned = 0;   ///< (group, pivot-candidate) pairs tried
  uint64_t matches_seen = 0;     ///< matches enumerated across all groups
  uint64_t literal_evals = 0;    ///< per-match per-rule LHS/RHS evaluations
  bool truncated = false;        ///< some cap or budget cut the run short
};

struct DetectionResult {
  /// Sorted by (gfd_index, pivot, match); see Violation::operator<=>.
  std::vector<Violation> violations;
  DetectStats stats;
};

/// Budgets of one incremental run. Caps are deliberately absent: the
/// added/removed diff is only well-defined when both sides enumerate
/// completely (a capped run could report a "removed" violation that was
/// merely cut off by a budget).
struct IncrementalOptions {
  /// Worker threads over the affected pivot ranges. Output is
  /// deterministic at any worker count.
  size_t workers = 1;
  /// Backtracking budget per (group, pivot) enumeration. Leave unlimited
  /// unless incomplete diffs are acceptable.
  MatchOptions match;
};

struct IncrementalStats {
  size_t affected_nodes = 0;     ///< anchor seeds of the run
  size_t anchor_plans = 0;       ///< (group, variable) plans consulted
  uint64_t anchors_scanned = 0;  ///< (plan, anchor) enumerations, both sides
  uint64_t matches_seen = 0;     ///< delta-touching matches, both sides
  uint64_t literal_evals = 0;    ///< per-match per-rule LHS/RHS evaluations
  size_t violations_before = 0;  ///< violations at touched matches, old side
  size_t violations_after = 0;   ///< violations at touched matches, new side
  size_t groups_scanned = 0;     ///< pattern groups the run enumerated
  size_t groups_skipped = 0;     ///< groups pruned by the footprint gate
};

/// The violation diff induced by one delta: exactly the records that
/// diffing two full Detect runs (old graph vs. new graph) would produce.
struct IncrementalDiff {
  std::vector<Violation> added;    ///< sorted per Violation ordering
  std::vector<Violation> removed;  ///< sorted per Violation ordering
  IncrementalStats stats;
};

/// What one update batch touches, read off its ops and the live view
/// `pre` just before it (node, label and attribute ids in that view's
/// space). A step diff seeds and attributes at `anchors`: every attribute
/// target, and ONE endpoint per edge op -- the one with the smaller
/// degree in `pre`, ties to the smaller node id -- so a batch touching a
/// hub no longer enumerates every match through it. The footprint gate
/// reads `rewired` for its edge clause and `anchors` (which hold every
/// attribute target) for its attribute clause.
struct BatchFootprint {
  std::vector<NodeId> anchors;  ///< attr targets + one endpoint per edge op
  std::vector<NodeId> rewired;  ///< both endpoints of every edge op
  std::vector<AttrId> keys;     ///< attribute keys set
  // All three sorted ascending and unique.

  static BatchFootprint Of(std::span<const GraphDelta::Op> ops,
                           const GraphView& pre);
};

/// The two anchored sides of one step diff, each sorted per Violation
/// ordering; StepDiff turns them into the diff.
struct StepSides {
  std::vector<Violation> before;
  std::vector<Violation> after;
  IncrementalStats stats;
  uint64_t detect_ns = 0;  ///< spent in the two sides, not in `apply`
};

/// A loaded rule set, grouped and compiled once, reusable across any
/// number of graphs and detection runs. Immutable after construction.
class ViolationEngine {
 public:
  /// Groups `rules` by pattern isomorphism and compiles one match plan
  /// per group. Precondition: every pattern is connected (as produced by
  /// discovery and by gfd/serialize.h).
  explicit ViolationEngine(std::vector<Gfd> rules);

  size_t NumRules() const { return rules_.size(); }
  size_t NumGroups() const { return groups_.size(); }
  const Gfd& rule(size_t i) const { return rules_[i]; }
  std::span<const Gfd> rules() const { return rules_; }

  /// Finds violations of every rule in `g`. Parallel over pivot ranges
  /// when opts.workers > 1.
  DetectionResult Detect(const PropertyGraph& g,
                         const DetectOptions& opts = {}) const;

  /// Full detection over a delta-overlay view (same records a Detect over
  /// view.Materialize() would produce, without materializing).
  DetectionResult Detect(const GraphView& g,
                         const DetectOptions& opts = {}) const;

  /// Sharded run over a vertex-cut fragmentation: fragment f evaluates
  /// exactly the pivots it owns (frag.node_owner), one Cluster worker per
  /// fragment, and ships its violations to the master (accounted in
  /// `cstats`). Uncapped output is identical to Detect; when a cap or
  /// global budget bites, fragments race for the remaining slots, so
  /// *which* violations are kept can differ (same caveat as
  /// DetectOptions::workers > 1).
  DetectionResult DetectSharded(const PropertyGraph& g,
                                const Fragmentation& frag,
                                const DetectOptions& opts = {},
                                ClusterStats* cstats = nullptr) const;

  /// The violation diff of applying `batch` to `g`: exactly the records
  /// diffing Detect(g) against Detect of the updated graph would produce.
  /// One DetectStep over an empty-overlay view of `g`, anchored at the
  /// batch's footprint, with absorbing the batch as its `apply`. Returns
  /// nullopt (with *error set to GraphView::Apply's text) when the batch
  /// does not apply to `g`.
  std::optional<IncrementalDiff> DetectIncremental(
      const PropertyGraph& g, const GraphDelta& batch,
      const IncrementalOptions& opts = {}, std::string* error = nullptr) const;

  /// The one diff algorithm (the serving backends in serve/graph_store.h
  /// and serve/coordinator.h, and DetectIncremental): `live` holds the
  /// state just before one batch with footprint `batch`, and `apply` must
  /// apply exactly that batch to `live` in place (false on failure, which
  /// returns nullopt). Runs the anchored side on `live`, calls `apply`,
  /// runs it again; both sides share one footprint-gated group list, so
  /// the cost tracks the batch, never the overlay behind it. Enumeration
  /// is seeded from `seeds` (a sorted subset of batch.anchors) while
  /// attribution sees all of batch.anchors, so a match is evaluated
  /// exactly once, where its minimum-variable anchor is a seed: a single
  /// store passes batch.anchors, a coordinator fragment the anchors it
  /// owns, and the fragments' diffs partition the store-wide one.
  ///
  /// Exactness: the sorted set difference of the two sides (StepDiff) is
  /// identical to diffing two full Detect runs. Each pattern group has
  /// one plan per variable (the paper's work unit Q(F_s) |><| e(F_t),
  /// Section 6.2, anchored at the batch instead of a fragment), and a
  /// stateless minimum-variable attribution rule evaluates every anchored
  /// match exactly once per side. A match whose violation status differs
  /// between the sides either contains a changed edge -- and so binds
  /// both its endpoints, the anchored one included -- or binds a node
  /// whose attribute was written, which is an anchor too. Every other
  /// match exists on both sides with identical attribute reads, so it
  /// cancels in the set difference.
  std::optional<StepSides> DetectStep(
      const GraphView& live, const BatchFootprint& batch,
      std::span<const NodeId> seeds, const std::function<bool()>& apply,
      const IncrementalOptions& opts = {}) const;

  /// Max undirected eccentricity of any variable of any rule pattern:
  /// the halo radius partitioned storage needs so that every match
  /// anchored (at ANY variable) at an owned node stays within the
  /// fragment's resident view. RadiusAtPivot is not enough -- anchored
  /// incremental plans pivot at every variable, not just the rule pivot.
  uint32_t MaxPatternRadius() const;

 private:
  /// One rule's literals remapped into its group representative's
  /// variable space, plus the inverse map to translate matches back.
  struct Member {
    uint32_t gfd_index;
    std::vector<Literal> lhs;      // over the representative's VarIds
    Literal rhs;                   // over the representative's VarIds
    std::vector<VarId> to_rep;     // member VarId -> representative VarId
  };
  struct Group {
    CompiledPattern plan;
    std::vector<Member> members;
    /// Per-variable anchor plans, built lazily on the first
    /// incremental run (Detect never needs them). The lazy state
    /// lives behind a stable pointer, so Groups move safely even after
    /// the plans were built (anchor_plans.h has the full story).
    LazyAnchorPlans anchors;
    /// The group's static footprint, for DetectStep's skip gate: a
    /// delta whose affected labels / touched attr keys are disjoint from
    /// it cannot create or destroy a match of this group, so both sides
    /// enumerate identical lists and the group cancels exactly (its
    /// gfd_indices appear in no other group). Built once in the engine
    /// constructor; a rule-set change means a new engine, so no runtime
    /// invalidation is needed (vocabulary growth is handled numerically:
    /// new label/attr ids simply never intersect these sorted sets).
    std::vector<LabelId> var_labels;  ///< concrete variable labels, sorted
    std::vector<AttrId> attr_keys;    ///< literal attr keys, sorted
    bool has_wildcard_var = false;    ///< some variable matches any label

    explicit Group(const Pattern& rep) : plan(rep) {}

    const std::vector<CompiledPattern>& AnchorPlans() const {
      return anchors.Get(plan.pattern());
    }
  };

  // Shared mutable state of one run (budget counters; defined in the .cc).
  struct RunState;

  // Common body of the two Detect overloads. GraphT is PropertyGraph or
  // GraphView.
  template <typename GraphT>
  DetectionResult DetectImpl(const GraphT& g, const DetectOptions& opts) const;

  // Evaluates one (group, pivot) pair, appending violations to `out`.
  // Returns false once the global budget is exhausted (callers stop).
  // GraphT is PropertyGraph or GraphView.
  template <typename GraphT>
  bool EvalPivot(const GraphT& g, const Group& group, NodeId v, RunState& st,
                 std::vector<Violation>& out) const;

  // One side of an incremental run: enumerates every match of every
  // group in `scan` (indices into groups_) that binds one of `seeds` at
  // its minimum anchored variable (each exactly once) and returns the
  // violations among them, sorted. Both sides of a diff must pass the
  // SAME `scan` -- the skip gate's cancellation argument needs it.
  std::vector<Violation> RunAnchored(const GraphView& g,
                                     std::span<const size_t> scan,
                                     std::span<const NodeId> seeds,
                                     const std::vector<bool>& is_anchor,
                                     size_t workers, RunState& st) const;

  std::vector<Gfd> rules_;
  std::vector<Group> groups_;
};

/// Classification of a post-update state, for exit-code style reporting
/// on the serving path: an update that merely *removes* violations must
/// not be confused with one that left none behind.
enum class DeltaVerdict {
  kClean,            ///< the updated graph has no violations at all
  kAddedViolations,  ///< the update introduced at least one new violation
  kPreexistingOnly,  ///< nothing added, but violations predating the
                     ///< update (possibly elsewhere in the graph) persist
};

/// Counter-backed classification: `post_count` is the running violation
/// count *after* the batch (count += |added| - |removed| per batch, seeded
/// by one full Detect and persistable in store.meta -- see
/// GraphStore::SetViolationCount). No scan at all: the verdict is read
/// straight off the diff and the counter.
DeltaVerdict ClassifyDelta(const IncrementalDiff& diff, uint64_t post_count);

/// Sorted set difference of a step's two sides: exactly the records
/// diffing two full Detect runs would produce.
IncrementalDiff StepDiff(const StepSides& sides);

/// The baseline the engine is benchmarked against: one full matcher run
/// per rule (the per-GFD FindViolations loop of gfd/validation.h),
/// producing the same records. Used by bench_detect and the property
/// tests that cross-check the batched engine.
DetectionResult DetectNaive(const PropertyGraph& g, std::span<const Gfd> rules,
                            const DetectOptions& opts = {});

}  // namespace gfd

#endif  // GFD_DETECT_ENGINE_H_
