// Batched multi-GFD violation detection with shared match plans.
//
// Evaluating a discovered cover rule by rule repeats the expensive part --
// subgraph-isomorphism enumeration -- once per GFD, even though mined rule
// sets are dominated by literal variants over a handful of distinct
// pattern topologies (the same observation ParCover exploits via Lemma 6).
// The ViolationEngine instead:
//   1. groups its rules by pivot-preserving pattern isomorphism
//      (pattern/canonical.h canonical codes),
//   2. compiles each group's pattern once -- one plan rooted at each
//      variable -- and every member's literals into slot literals over
//      the group's distinct (variable, attribute) reads, in the
//      representative's variable space, and
//   3. per enumerated match, reads each slot once and tests every member
//      with value-id compares, in a single backtracking pass per group,
// so the matcher cost is paid |groups| times instead of |rules| times,
// and the attribute lookups once per match instead of once per rule.
//
// The full scan (Detect) and the anchored step scan (DetectStep) run one
// kernel: one plan over one node range, its counters added once per
// range. In parallel, workers take flat units -- (group, pivot range) or
// (group, variable) -- from one shared cursor into private buffers that
// are merged after a single barrier (util/thread_pool.h).
#ifndef GFD_DETECT_ENGINE_H_
#define GFD_DETECT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "detect/violation.h"
#include "gfd/gfd.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "match/matcher.h"
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
  /// Worker threads. Each takes (group, pivot range) units from one
  /// shared cursor into its own buffer and counters, merged after one
  /// barrier. 1 = sequential (fully deterministic even with caps). With
  /// caps and >1 workers, *which* violations are kept can vary run to
  /// run, though every cap holds exactly; uncapped output and counters
  /// are identical at any worker count, sorted per Violation ordering.
  size_t workers = 1;
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
  /// Worker threads over (group, variable) units of each side. Output
  /// and counters are identical at any worker count.
  size_t workers = 1;
};

struct IncrementalStats {
  size_t affected_nodes = 0;     ///< anchor seeds of the run
  size_t anchor_plans = 0;       ///< (group, variable) plans consulted
  uint64_t anchors_scanned = 0;  ///< (plan, seed) pairs the plan's root
                                 ///< step admits, both sides
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
  /// The diff in the changefeed payload format (serve/changefeed.h),
  /// rendered against the post-batch state. Only a serving step
  /// (ServingStore::AppendAndDiff) fills it; one-shot and per-fragment
  /// diffs leave it empty.
  std::string payload;
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

  /// Finds violations of every rule in `g`. Parallel over (group, pivot
  /// range) units when opts.workers > 1.
  DetectionResult Detect(const PropertyGraph& g,
                         const DetectOptions& opts = {}) const;

  /// Full detection over a delta-overlay view (same records a Detect over
  /// view.Materialize() would produce, without materializing).
  DetectionResult Detect(const GraphView& g,
                         const DetectOptions& opts = {}) const;

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
  /// store passes batch.anchors, a coordinator fragment the anchors the
  /// master planned for it (each anchor at one fragment whose views hold
  /// the anchor's pattern-radius ball), and the fragments' diffs
  /// partition the store-wide one.
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
  /// fragment's resident view, and the ball a coordinator's seed planner
  /// checks around each anchor. RadiusAtPivot is not enough -- anchored
  /// incremental plans pivot at every variable, not just the rule pivot.
  /// Computed once, with the engine.
  uint32_t MaxPatternRadius() const { return max_pattern_radius_; }

 private:
  /// One attribute read of a group: variable `var` (in the
  /// representative's space) at key `key`.
  struct SlotRead {
    VarId var;
    AttrId key;
  };
  /// A literal compiled against its group's reads: `x` and `y` index
  /// Group::reads. Per match the kernel fills vals[i] with reads[i]'s
  /// value (kNoValue when absent), and then
  ///   x.A = c   holds iff vals[x] != kNoValue && vals[x] == c,
  ///   x.A = y.B holds iff vals[x] != kNoValue && vals[x] == vals[y],
  ///   false     never holds --
  /// exactly MatchSatisfies: a missing attribute satisfies nothing, and
  /// two missing attributes are not equal.
  struct SlotLiteral {
    LiteralKind kind = LiteralKind::kFalse;
    uint32_t x = 0;
    uint32_t y = 0;
    ValueId c = kNoValue;

    bool Holds(const ValueId* vals) const {
      switch (kind) {
        case LiteralKind::kVarConst:
          return vals[x] != kNoValue && vals[x] == c;
        case LiteralKind::kVarVar:
          return vals[x] != kNoValue && vals[x] == vals[y];
        case LiteralKind::kFalse:
          break;
      }
      return false;
    }
  };
  /// One rule of a group: its literals compiled against the group's
  /// reads, plus the map that translates a representative match back
  /// into the rule's own variable space.
  struct Member {
    uint32_t gfd_index;
    std::vector<VarId> to_rep;  // member VarId -> representative VarId
    std::vector<SlotLiteral> lhs;
    SlotLiteral rhs;

    /// h |= X and h |/= l, given the group's slot values of match h.
    bool Violates(const ValueId* vals) const {
      for (const SlotLiteral& l : lhs) {
        if (!l.Holds(vals)) return false;
      }
      return !rhs.Holds(vals);
    }
  };
  struct Group {
    /// One plan per variable of the representative pattern: plans[u]
    /// enumerates exactly the matches binding u to a given node. The
    /// full scan runs the pivot's; DetectStep runs all of them. Built
    /// with the engine, so a shared engine is read-only.
    std::vector<CompiledPattern> plans;
    VarId pivot = 0;
    std::vector<Member> members;
    /// The distinct (variable, key) pairs any member literal reads, in
    /// first-use order; every SlotLiteral indexes into it.
    std::vector<SlotRead> reads;
    /// The group's static footprint, for DetectStep's skip gate: a
    /// delta whose affected labels / touched attr keys are disjoint from
    /// it cannot create or destroy a match of this group, so both sides
    /// enumerate identical lists and the group cancels exactly (its
    /// gfd_indices appear in no other group). Built once in the engine
    /// constructor; a rule-set change means a new engine, so no runtime
    /// invalidation is needed (vocabulary growth is handled numerically:
    /// new label/attr ids simply never intersect these sorted sets).
    std::vector<LabelId> var_labels;  ///< concrete variable labels, sorted
    std::vector<AttrId> attr_keys;    ///< the keys of `reads`, sorted
    bool has_wildcard_var = false;    ///< some variable matches any label

    explicit Group(const Pattern& rep);

    const CompiledPattern& PivotPlan() const { return plans[pivot]; }
    const Pattern& pattern() const { return PivotPlan().pattern(); }

    /// Compiles rule `gfd_index` (`phi`, whose variable u is the
    /// representative's to_rep[u]) into a member, adding its reads.
    void AddMember(uint32_t gfd_index, const Gfd& phi,
                   std::vector<VarId> to_rep);

    /// Fills vals[i] with reads[i]'s value at `match` (kNoValue when
    /// absent). GraphT is PropertyGraph or GraphView.
    template <typename GraphT>
    void ReadSlots(const GraphT& g, const Match& match, ValueId* vals) const {
      for (size_t i = 0; i < reads.size(); ++i) {
        vals[i] =
            g.GetAttr(match[reads[i].var], reads[i].key).value_or(kNoValue);
      }
    }
  };

  // The shared caps of one capped full scan, and one worker's output of
  // a scan (both defined in the .cc).
  struct Budget;
  struct Tally;

  // Common body of the two Detect overloads. GraphT is PropertyGraph or
  // GraphView.
  template <typename GraphT>
  DetectionResult DetectImpl(const GraphT& g, const DetectOptions& opts) const;

  // The kernel of both scans: runs `plan` (one of the group's plans) at
  // every node of `nodes` its root step admits,
  // evaluates every member on each match `attributed` accepts, and adds
  // the violations and the pivot / match / literal-eval counts to
  // `tally` once at the end. `budget` is null for uncapped runs; a
  // capped full scan claims its atomics once per emitted violation.
  template <typename GraphT, typename Nodes, typename Attributed>
  void ScanPlan(const GraphT& g, const Group& group,
                const CompiledPattern& plan, const Nodes& nodes,
                const Attributed& attributed, Budget* budget,
                Tally& tally) const;

  // One side of an incremental run: enumerates every match of every
  // group in `scan` (indices into groups_) that binds one of `seeds` at
  // its minimum anchored variable (each exactly once) and returns the
  // violations among them, sorted, with the side's counters. Both sides
  // of a diff must pass the SAME `scan` -- the skip gate's cancellation
  // argument needs it.
  Tally RunAnchored(const GraphView& g, std::span<const size_t> scan,
                    std::span<const NodeId> seeds,
                    const std::vector<bool>& is_anchor,
                    const IncrementalOptions& opts) const;

  // The violation record of `m` at representative match `match`.
  Violation MakeViolation(const Member& m, NodeId pivot,
                          const Match& match) const;

  std::vector<Gfd> rules_;
  std::vector<Group> groups_;
  uint32_t max_pattern_radius_ = 0;
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
