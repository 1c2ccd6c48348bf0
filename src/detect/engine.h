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
//   3. per enumerated match, reads each slot once and tests, with
//      value-id compares, only the members that match can violate: a
//      member whose LHS holds a constant literal x.A = c is keyed by one
//      such literal (MemberIndex) and skipped where x.A is not c -- the
//      CFD-style selection by a pattern tuple's constants -- while a
//      member with none is tested everywhere; all in a single
//      backtracking pass per group,
// so the matcher cost is paid |groups| times instead of |rules| times,
// the attribute lookups once per match instead of once per rule, and the
// member tests once per rule whose constants the match carries.
//
// The full scan (Detect) and the step scan (DetectStep) run one kernel:
// one plan over a list of roots, its counters added once per list. In
// parallel, workers take flat units -- (group, pivot range), or a step's
// (group, variable) write units and (group, pattern edge) edge units --
// from one shared cursor into private buffers that are merged after a
// single barrier (util/thread_pool.h).
#ifndef GFD_DETECT_ENGINE_H_
#define GFD_DETECT_ENGINE_H_

#include <algorithm>
#include <array>
#include <compare>
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
  uint64_t literal_evals = 0;    ///< member tests made: (match, rule)
                                 ///< pairs whose LHS/RHS were evaluated
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
  /// Worker threads over the units of each side. Output and counters are
  /// identical at any worker count.
  size_t workers = 1;
};

struct IncrementalStats {
  size_t write_units = 0;        ///< (group, variable) units rooted at a
                                 ///< written key some member reads (see
                                 ///< ViolationEngine::PlanStep)
  size_t edge_units = 0;         ///< (group, pattern edge) units rooted
                                 ///< at a changed edge key
  uint64_t roots_scanned = 0;    ///< (unit, root) pairs whose root node
                                 ///< the plan's root step admits, both
                                 ///< sides
  uint64_t matches_seen = 0;     ///< matches evaluated (each at the one
                                 ///< unit it is attributed to), both sides
  uint64_t literal_evals = 0;    ///< member tests made, both sides
  size_t violations_before = 0;  ///< violations at touched matches, old side
  size_t violations_after = 0;   ///< violations at touched matches, new side
  size_t groups_scanned = 0;     ///< pattern groups with at least one unit
};

/// The violation diff induced by one delta: exactly the records that
/// diffing two full Detect runs (old graph vs. new graph) would produce.
struct IncrementalDiff {
  std::vector<Violation> added;    ///< sorted per Violation ordering
  std::vector<Violation> removed;  ///< sorted per Violation ordering
  IncrementalStats stats;
  /// The diff in the changefeed payload format (serve/changefeed.h),
  /// rendered against the post-batch state. Only a serving step
  /// (ServingStore::AppendAndDiff) fills it; one-shot diffs leave it
  /// empty.
  std::string payload;
};

/// What one update batch touches, read off its ops alone (node, label
/// and attribute ids in the space of the view it applies to): the (node,
/// key) pairs it writes and the (src, dst, label) keys of its edge ops,
/// its changed keys. A step diff roots its work units there
/// (ViolationEngine::PlanStep) and attributes each match by them
/// (ViolationEngine::DetectStep).
struct BatchFootprint {
  /// Attribute `key` of `node` was set.
  struct Write {
    NodeId node = kNoNode;
    AttrId key = 0;
    friend auto operator<=>(const Write&, const Write&) = default;
  };
  /// The key of an edge op.
  struct EdgeKey {
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    LabelId label = 0;
    friend auto operator<=>(const EdgeKey&, const EdgeKey&) = default;
  };

  std::vector<Write> writes;   ///< every (node, key) set
  std::vector<EdgeKey> edges;  ///< every edge op's key: the changed keys
  // Both sorted ascending and unique.

  static BatchFootprint Of(std::span<const GraphDelta::Op> ops);

  /// Whether the batch set attribute `key` of `v`.
  bool Wrote(NodeId v, AttrId key) const {
    return MayTouch(v) && SearchWrites(v, key);
  }
  /// Whether some changed key src -l-> dst has a label l that matches
  /// `label`, a pattern edge label (possibly the wildcard).
  bool Changed(NodeId src, NodeId dst, LabelId label) const {
    return MayTouch(src) && SearchEdges(src, dst, label);
  }

 private:
  // A fixed-size filter over nodes, filled by Of: the bit of every
  // write's node and every changed key's source is set, so a clear bit
  // answers Wrote and Changed with one test; a set bit falls through to
  // the binary searches.
  static constexpr uint32_t kFilterBits = 1024;
  static uint32_t FilterBit(NodeId v) {
    return (v * 0x9E3779B1u) >> 22;  // the top 10 bits: Fibonacci hashing
  }
  bool MayTouch(NodeId v) const {
    const uint32_t bit = FilterBit(v);
    return (filter_[bit / 64] >> (bit % 64)) & 1;
  }
  bool SearchWrites(NodeId v, AttrId key) const;
  bool SearchEdges(NodeId src, NodeId dst, LabelId label) const;

  std::array<uint64_t, kFilterBits / 64> filter_{};
};

/// The two anchored sides of one step diff, each sorted per Violation
/// ordering; StepDiff turns them into the diff.
struct StepSides {
  std::vector<Violation> before;
  std::vector<Violation> after;
  IncrementalStats stats;
  uint64_t detect_ns = 0;  ///< spent in the two sides, not in the apply
};

struct ViolationEngineInternals;

/// The work units of one step diff, planned once per batch on the view
/// just before it (ViolationEngine::PlanStep): write units (group,
/// variable) rooted at nodes and edge units (group, pattern edge) rooted
/// at node pairs, every root at one of the batch's writes or changed
/// keys. Which units exist depends on node labels, which no batch
/// changes, so one plan serves both sides of the step.
class StepPlan {
 public:
  size_t write_units() const;
  size_t edge_units() const;

 private:
  friend class ViolationEngine;
  friend struct ViolationEngineInternals;

  struct Unit {
    uint32_t group;
    uint32_t index;  // the write unit's variable, the edge unit's edge
    bool edge;
    uint32_t begin;  // its roots: [begin, end) of nodes_ or of pairs_
    uint32_t end;
  };
  /// An edge unit's root: the nodes its plan binds first and second.
  struct PairRoot {
    NodeId first;
    NodeId second;
  };

  std::vector<Unit> units_;
  std::vector<NodeId> nodes_;  // a write unit's root is its written node
  std::vector<PairRoot> pairs_;
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
  /// One DetectStep over an empty-overlay view of `g`, rooted at the
  /// batch's footprint, with absorbing the batch as its `apply`. Returns
  /// nullopt (with *error set to GraphView::Apply's text) when the batch
  /// does not apply to `g`.
  std::optional<IncrementalDiff> DetectIncremental(
      const PropertyGraph& g, const GraphDelta& batch,
      const IncrementalOptions& opts = {}, std::string* error = nullptr) const;

  /// Plans the step that diffs `batch` on `pre`, the view just before
  /// it: its units and their roots.
  ///
  /// Units. A write unit (group, variable u) is rooted at each node
  /// with a written key that some member reads at u, and enumerates the
  /// matches binding u there; an edge unit (group, pattern edge j) is
  /// rooted at each changed key s -l-> d whose label matches j's, and
  /// enumerates the matches binding j's source to s and its target to d
  /// (a plan that binds both first, CompiledPattern::ForEachMatchAtPair;
  /// the paper's work unit Q(F_s) |><| e(F_t), Section 6.2, joined with
  /// the updated edge). A group with no unit is not scanned at all.
  ///
  /// Cost. Each write and changed key is looked up in an index built with
  /// the engine -- (node label, key) to write units, edge label to edge
  /// units -- so planning tracks the batch and the units it roots, not
  /// the number of groups.
  StepPlan PlanStep(const GraphView& pre, const BatchFootprint& batch) const;

  /// The one diff algorithm (the serving step in serve/graph_store.h,
  /// its re-derivation, and DetectIncremental): `live` holds the state
  /// just before one batch with footprint `batch`, `plan` is PlanStep's
  /// on it, and `apply` applies exactly that batch to `live` in place.
  /// The batch was validated against `live` before the step, so the
  /// apply cannot fail. Runs the plan's before side on `live`, calls
  /// `apply` once, then runs its after side; both sides run the same
  /// units, so the cost tracks the batch, never the overlay behind it.
  ///
  /// Attribution is stateless: a match is evaluated at its
  /// lowest-numbered variable that reads a written key; failing that, at
  /// its lowest-numbered pattern edge that maps onto a changed key;
  /// failing both, nowhere.
  ///
  /// Exactness: the sorted set difference of the two sides (StepDiff) is
  /// identical to diffing two full Detect runs. A match that reads no
  /// written key and maps no pattern edge onto a changed key exists on
  /// both sides -- its edges' keys are untouched -- with identical
  /// attribute reads, so it cancels and need not be evaluated. Every
  /// other match of a side is enumerated by its attributed unit, whose
  /// root it binds, and evaluated there exactly once; the attribution
  /// reads only the match and the batch, so it is the same on both
  /// sides.
  StepSides DetectStep(const GraphView& live, const BatchFootprint& batch,
                       const StepPlan& plan,
                       const std::function<void()>& apply,
                       const IncrementalOptions& opts = {}) const;

  /// Max undirected eccentricity of any variable of any rule pattern:
  /// the halo radius partitioned storage needs so that every match
  /// through an owned node (at ANY variable) stays within the fragment's
  /// resident view. RadiusAtPivot is not enough -- a step's units
  /// root at any variable or pattern edge, not just the rule pivot.
  /// Computed once, with the engine.
  uint32_t MaxPatternRadius() const { return max_pattern_radius_; }

 private:
  // White-box tests reach the groups and the plans through it; only they
  // define it.
  friend struct ViolationEngineInternals;

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
  /// into the rule's own variable space, both held flat by the group.
  struct Member {
    uint32_t gfd_index;
    uint32_t to_rep;     // member VarId u -> Group::to_rep[to_rep + u]
    uint32_t lhs_begin;  // its LHS: Group::lhs[lhs_begin, lhs_end)
    uint32_t lhs_end;
    SlotLiteral rhs;
  };
  struct Group {
    static constexpr uint32_t kNoPlan = UINT32_MAX;
    /// The plan of one edge unit: plans[plan] binds the pattern edge's
    /// endpoints first, its target first when `root_is_dst`. A self-loop
    /// edge's plan is rooted at its one variable.
    struct EdgePlan {
      uint32_t plan = kNoPlan;
      bool root_is_dst = false;
    };
    /// The plans the scans run, flat, built with the engine (so a shared
    /// engine is read-only): plans[0] is rooted at the pivot, the full
    /// scan's. var_plan[u] indexes the plan rooted at variable u, which
    /// exists for the pivot, for each variable some member reads (its
    /// write units' plan) and for a self-loop's variable; edge_plan[j]
    /// names pattern edge j's. An edge reuses a variable plan that binds
    /// its other endpoint second and gets a pair-rooted plan of its own
    /// only when none does.
    std::vector<CompiledPattern> plans;
    std::vector<uint32_t> var_plan;
    std::vector<EdgePlan> edge_plan;
    VarId pivot = 0;
    std::vector<Member> members;
    std::vector<SlotLiteral> lhs;  // every member's LHS, in member order
    std::vector<VarId> to_rep;     // every member's variable map, likewise
    /// The distinct (variable, key) pairs any member literal reads, in
    /// first-use order; every SlotLiteral indexes into it.
    std::vector<SlotRead> reads;

    /// Compiles the pivot plan; CompileStepPlans adds the rest once the
    /// members are in.
    explicit Group(const Pattern& rep);

    const CompiledPattern& PivotPlan() const { return plans[0]; }
    const Pattern& pattern() const { return PivotPlan().pattern(); }

    /// Compiles rule `gfd_index` (`phi`, whose variable u is the
    /// representative's var_map[u]) into a member, adding its reads.
    void AddMember(uint32_t gfd_index, const Gfd& phi,
                   std::span<const VarId> var_map);

    std::span<const SlotLiteral> Lhs(const Member& m) const {
      return {lhs.data() + m.lhs_begin, m.lhs_end - m.lhs_begin};
    }

    /// h |= X and h |/= l for member `m`, given the slot values of h.
    bool Violates(const Member& m, const ValueId* vals) const {
      for (const SlotLiteral& l : Lhs(m)) {
        if (!l.Holds(vals)) return false;
      }
      return !m.rhs.Holds(vals);
    }

    /// Fills var_plan and edge_plan from `reads` and the pattern.
    void CompileStepPlans();

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

  /// The step's units by what roots them, built with the engine, so
  /// PlanStep walks a batch's writes and changed keys instead of every
  /// group. A group has a write unit for each variable some member reads
  /// at and an edge unit for each pattern edge. Units are numbered in
  /// plan order: group by group, a group's write units (by variable)
  /// before its edge units (by pattern edge).
  struct UnitIndex {
    struct Unit {
      uint32_t group;
      uint32_t index;  // the write unit's variable, the edge unit's edge
      bool edge;
    };
    /// Write unit `unit` reads `key` at a variable labelled `label`.
    struct Write {
      LabelId label;
      AttrId key;
      uint32_t unit;
      friend auto operator<=>(const Write&, const Write&) = default;
    };
    /// Edge unit `unit`'s pattern edge: its label, its endpoints' labels
    /// and whether it is a self-loop.
    struct Edge {
      LabelId label;
      uint32_t unit;
      LabelId src_label;
      LabelId dst_label;
      bool self_loop;
      friend auto operator<=>(const Edge&, const Edge&) = default;
    };
    std::vector<Unit> units;    // by unit number
    std::vector<Write> writes;  // sorted; wildcard variables file under
                                // kWildcardLabel
    std::vector<Edge> edges;    // sorted; wildcard edges likewise

    UnitIndex() = default;
    explicit UnitIndex(std::span<const Group> groups);
  };

  /// The members a match must test on the uncapped path, built with the
  /// engine. A member whose LHS holds a constant literal x.A = c is
  /// keyed by one of them -- the one on the read most of its group's
  /// members hold a constant at, ties to the earlier read -- since a
  /// match whose value there is not c (or absent) cannot satisfy the LHS
  /// and so cannot violate the rule. A member with no constant literal
  /// in its LHS is keyless and tested at every match.
  ///
  /// Flat, each array sized exactly before it is filled: group gi's
  /// keyless members are keyless[group_keyless[gi] .. group_keyless[gi +
  /// 1]), its key reads keys[group_keys[gi] .. group_keys[gi + 1]), and a
  /// key read's members keyed[begin .. end), sorted by (value, member).
  /// Members are indexes into Group::members.
  struct MemberIndex {
    struct Key {
      uint32_t slot;   // indexes Group::reads
      uint32_t begin;  // its members: [begin, end) of keyed
      uint32_t end;
    };
    struct Keyed {
      ValueId value;
      uint32_t member;
      friend auto operator<=>(const Keyed&, const Keyed&) = default;
    };
    std::vector<uint32_t> group_keyless;  // NumGroups() + 1 offsets
    std::vector<uint32_t> keyless;
    std::vector<uint32_t> group_keys;  // NumGroups() + 1 offsets
    std::vector<Key> keys;
    std::vector<Keyed> keyed;

    MemberIndex() = default;
    explicit MemberIndex(std::span<const Group> groups);

    /// Calls test(member) for every member of group `gi` that a match
    /// with slot values `vals` can violate, each once; returns how many.
    template <typename Test>
    uint64_t ForEachCandidate(uint32_t gi, const ValueId* vals,
                              const Test& test) const {
      uint64_t tests = group_keyless[gi + 1] - group_keyless[gi];
      for (uint32_t i = group_keyless[gi]; i < group_keyless[gi + 1]; ++i) {
        test(keyless[i]);
      }
      for (uint32_t k = group_keys[gi]; k < group_keys[gi + 1]; ++k) {
        const ValueId v = vals[keys[k].slot];
        if (v == kNoValue) continue;
        const Keyed* const end = keyed.data() + keys[k].end;
        const Keyed* it = std::lower_bound(keyed.data() + keys[k].begin, end,
                                           Keyed{v, 0});
        for (; it != end && it->value == v; ++it) {
          test(it->member);
          ++tests;
        }
      }
      return tests;
    }
  };

  // The shared caps of one capped full scan and one worker's output of a
  // scan (both defined in the .cc).
  struct Budget;
  struct Tally;

  // Common body of the two Detect overloads. GraphT is PropertyGraph or
  // GraphView.
  template <typename GraphT>
  DetectionResult DetectImpl(const GraphT& g, const DetectOptions& opts) const;

  // The kernel of both scans: runs `plan` (one of group `gi`'s plans) at
  // every root of `roots` whose node its root step admits -- a NodeId
  // binds the plan's root variable; a StepPlan::PairRoot binds its first
  // two (ForEachMatchAtPair), or only the root when both are one node (a
  // self-loop edge's unit) -- tests the group's members on each match
  // `attributed` accepts, and adds the violations and the root / match /
  // member-test counts to `tally` once at the end. `budget` is null for
  // uncapped runs, which test only the members member_index_ names for
  // the match; a capped full scan tests every member in order, so which
  // violations a cap keeps is unchanged, and claims its atomics once per
  // emitted violation.
  template <typename GraphT, typename Roots, typename Attributed>
  void ScanPlan(const GraphT& g, uint32_t gi, const CompiledPattern& plan,
                const Roots& roots, const Attributed& attributed,
                Budget* budget, Tally& tally) const;

  // One side of a step: runs every unit of `plan`, evaluating each match
  // at its attributed unit only, and returns the violations, sorted,
  // with the side's counters. Both sides of a diff must run the SAME
  // units -- the cancellation argument needs it.
  Tally RunSide(const GraphView& g, const StepPlan& plan,
                const BatchFootprint& batch,
                const IncrementalOptions& opts) const;

  // The violation record of `group`'s member `m` at representative
  // match `match`.
  Violation MakeViolation(const Group& group, const Member& m, NodeId pivot,
                          const Match& match) const;

  std::vector<Gfd> rules_;
  std::vector<Group> groups_;
  UnitIndex unit_index_;
  MemberIndex member_index_;
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
