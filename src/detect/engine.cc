#include "detect/engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <ranges>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "detect/metrics.h"
#include "obs/trace.h"
#include "pattern/canonical.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gfd {

namespace {

// An embedding between exactly-isomorphic patterns may still pair a
// wildcard with a concrete label (ForEachEmbedding checks subsumption,
// not equality); compiling a member's literals against the
// representative needs a label-exact isomorphism so that matches of the
// representative are exactly the matches of the member. Returns f:
// member VarId -> rep VarId, or empty if none found.
std::vector<VarId> ExactIsomorphism(const Pattern& member,
                                    const Pattern& rep) {
  std::vector<VarId> iso;
  ForEachEmbedding(member, rep, /*require_pivot=*/true,
                   [&](const std::vector<VarId>& f) {
                     for (VarId u = 0; u < member.NumNodes(); ++u) {
                       if (member.NodeLabel(u) != rep.NodeLabel(f[u])) {
                         return true;  // not exact; keep searching
                       }
                     }
                     for (const auto& e : member.edges()) {
                       bool found = false;
                       for (const auto& re : rep.edges()) {
                         if (re.src == f[e.src] && re.dst == f[e.dst] &&
                             re.label == e.label) {
                           found = true;
                           break;
                         }
                       }
                       if (!found) return true;
                     }
                     iso = f;
                     return false;  // exact isomorphism found, stop
                   });
  return iso;
}

template <typename T>
void SortUnique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

// The caps of one capped full scan, shared by its workers. A worker
// touches them once per violation it would emit, never per match.
struct ViolationEngine::Budget {
  enum class Claim {
    kEmit,       // emit it; the rule wants more
    kEmitLast,   // emit it; the rule reached its cap with this one
    kRuleFull,   // drop it: the rule was already capped
    kExhausted,  // drop it: the global budget is spent, stop the run
  };

  const DetectOptions& opts;
  std::unique_ptr<std::atomic<size_t>[]> per_rule;  // claimed per rule
  std::atomic<size_t> total{0};
  std::atomic<bool> stop{false};  // global budget exhausted
  std::atomic<bool> truncated{false};

  Budget(const DetectOptions& o, size_t num_rules)
      : opts(o), per_rule(new std::atomic<size_t>[num_rules]) {
    for (size_t i = 0; i < num_rules; ++i) per_rule[i] = 0;
  }

  bool RuleCapped(uint32_t r) const {
    return opts.max_violations_per_gfd != 0 &&
           per_rule[r].load(std::memory_order_relaxed) >=
               opts.max_violations_per_gfd;
  }

  // Claims a per-rule slot first, then a global one; fetch_add makes
  // both caps exact under concurrency.
  Claim Take(uint32_t r) {
    const size_t cap = opts.max_violations_per_gfd;
    if (cap != 0 &&
        per_rule[r].fetch_add(1, std::memory_order_relaxed) >= cap) {
      truncated.store(true, std::memory_order_relaxed);
      return Claim::kRuleFull;
    }
    const size_t budget = opts.max_total_violations;
    if (budget != 0 &&
        total.fetch_add(1, std::memory_order_relaxed) >= budget) {
      truncated.store(true, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
      return Claim::kExhausted;
    }
    if (cap != 0 && RuleCapped(r)) {
      truncated.store(true, std::memory_order_relaxed);
      return Claim::kEmitLast;
    }
    return Claim::kEmit;
  }
};

// One worker's share of a scan, merged into the run's result after the
// barrier.
struct ViolationEngine::Tally {
  std::vector<Violation> violations;
  uint64_t pivots = 0;
  uint64_t matches = 0;
  uint64_t literal_evals = 0;
  std::vector<uint64_t> group_matches;  // full scans: matches per group
  std::vector<ValueId> slots;  // scratch: the current match's slot values

  // Concatenates `parts` (one per worker) and sorts the violations.
  static Tally Merge(std::vector<Tally> parts) {
    Tally out = std::move(parts[0]);
    for (size_t w = 1; w < parts.size(); ++w) {
      Tally& t = parts[w];
      out.violations.insert(out.violations.end(),
                            std::make_move_iterator(t.violations.begin()),
                            std::make_move_iterator(t.violations.end()));
      out.pivots += t.pivots;
      out.matches += t.matches;
      out.literal_evals += t.literal_evals;
      for (size_t gi = 0; gi < t.group_matches.size(); ++gi) {
        out.group_matches[gi] += t.group_matches[gi];
      }
    }
    std::sort(out.violations.begin(), out.violations.end());
    return out;
  }
};

namespace {

// Runs body(i, tally) for every i in [0, n): inline at one worker, else
// on `workers` threads that each take the next index from one shared
// cursor into their own copy of `empty`. The pool's Wait is the run's
// one barrier.
template <typename Tally, typename Body>
std::vector<Tally> RunUnits(size_t n, size_t workers, const Tally& empty,
                            const Body& body) {
  std::vector<Tally> tallies(
      std::clamp<size_t>(workers, 1, std::max<size_t>(n, 1)), empty);
  if (tallies.size() == 1) {
    for (size_t i = 0; i < n; ++i) body(i, tallies[0]);
    return tallies;
  }
  std::atomic<size_t> next{0};
  ThreadPool pool(tallies.size());
  for (Tally& tally : tallies) {
    pool.Submit([&] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i, tally);
      }
    });
  }
  pool.Wait();
  return tallies;
}

}  // namespace

ViolationEngine::ViolationEngine(std::vector<Gfd> rules)
    : rules_(std::move(rules)) {
  // Group rule indices by pivot-fixed canonical code: detection is
  // pivot-centric (violations are pinned to the pivot's image), so only
  // patterns agreeing on the pivot may share a plan.
  std::unordered_map<std::vector<uint32_t>, std::vector<uint32_t>, VecHash>
      by_code;
  for (uint32_t i = 0; i < rules_.size(); ++i) {
    by_code[CanonicalCode(rules_[i].pattern, /*fix_pivot=*/true)].push_back(
        i);
  }
  // Deterministic group order regardless of hash-map iteration: by first
  // member index.
  std::vector<std::vector<uint32_t>> member_lists;
  member_lists.reserve(by_code.size());
  for (auto& [code, members] : by_code) {
    member_lists.push_back(std::move(members));
  }
  std::sort(member_lists.begin(), member_lists.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });

  auto identity = [](const Pattern& q) {
    std::vector<VarId> f(q.NumNodes());
    for (VarId u = 0; u < q.NumNodes(); ++u) f[u] = u;
    return f;
  };
  for (auto& members : member_lists) {
    const Pattern& rep = rules_[members[0]].pattern;
    Group group(rep);
    // Each member array sized once.
    size_t literals = 0;
    for (uint32_t idx : members) literals += rules_[idx].lhs.size();
    group.members.reserve(members.size());
    group.lhs.reserve(literals);
    group.to_rep.reserve(members.size() * rep.NumNodes());
    for (uint32_t idx : members) {
      const Gfd& phi = rules_[idx];
      std::vector<VarId> f = ExactIsomorphism(phi.pattern, rep);
      if (f.empty() && idx != members[0]) {
        // Defensive: equal canonical codes guarantee an exact isomorphism
        // exists, but if the search ever fails, fall back to a private
        // plan rather than produce wrong answers.
        Group own(phi.pattern);
        own.AddMember(idx, phi, identity(phi.pattern));
        groups_.push_back(std::move(own));
        continue;
      }
      if (f.empty()) f = identity(phi.pattern);  // the representative
      group.AddMember(idx, phi, f);
    }
    groups_.push_back(std::move(group));
  }

  // The step's plans and the patterns' widest radius, built over every
  // group -- including the defensive private plans above -- once per
  // engine lifetime; a rule-set change means a new engine, so they never
  // go stale.
  for (Group& group : groups_) {
    group.CompileStepPlans();
    const Pattern& rep = group.pattern();

    // Eccentricity of every variable by BFS over the undirected variable
    // graph; patterns are tiny (k nodes), so n BFS runs are cheap.
    const size_t n = rep.NumNodes();
    for (VarId s = 0; s < n; ++s) {
      std::vector<uint32_t> dist(n, UINT32_MAX);
      std::vector<VarId> queue{s};
      dist[s] = 0;
      for (size_t head = 0; head < queue.size(); ++head) {
        VarId u = queue[head];
        for (VarId w : rep.Neighbors(u)) {
          if (dist[w] != UINT32_MAX) continue;
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
      }
      for (VarId u = 0; u < n; ++u) {
        if (dist[u] != UINT32_MAX) {
          max_pattern_radius_ = std::max(max_pattern_radius_, dist[u]);
        }
      }
    }
  }
  unit_index_ = UnitIndex(groups_);
  member_index_ = MemberIndex(groups_);
}

ViolationEngine::UnitIndex::UnitIndex(std::span<const Group> groups) {
  // A write unit for each variable some member reads at, an edge unit for
  // each pattern edge. Sized first, so each array is allocated once.
  static constexpr uint32_t kUnread = UINT32_MAX;
  std::vector<uint32_t> var_unit;  // a group's variable -> its write unit
  auto mark_read = [&var_unit](const Group& group) {
    var_unit.assign(group.pattern().NumNodes(), kUnread);
    size_t read = 0;
    for (const SlotRead& r : group.reads) {
      if (var_unit[r.var] == kUnread) ++read;
      var_unit[r.var] = 0;
    }
    return read;
  };
  size_t num_units = 0;
  size_t num_writes = 0;
  size_t num_edges = 0;
  for (const Group& group : groups) {
    num_units += mark_read(group) + group.pattern().NumEdges();
    num_writes += group.reads.size();
    num_edges += group.pattern().NumEdges();
  }
  units.reserve(num_units);
  writes.reserve(num_writes);
  edges.reserve(num_edges);
  for (uint32_t gi = 0; gi < groups.size(); ++gi) {
    const Group& group = groups[gi];
    const Pattern& rep = group.pattern();
    mark_read(group);
    for (VarId u = 0; u < rep.NumNodes(); ++u) {
      if (var_unit[u] == kUnread) continue;
      var_unit[u] = static_cast<uint32_t>(units.size());
      units.push_back({gi, u, false});
    }
    for (uint32_t j = 0; j < rep.NumEdges(); ++j) {
      const PatternEdge& e = rep.edges()[j];
      const uint32_t unit = static_cast<uint32_t>(units.size());
      units.push_back({gi, j, true});
      edges.push_back({e.label, unit, rep.NodeLabel(e.src),
                       rep.NodeLabel(e.dst), e.src == e.dst});
    }
    for (const SlotRead& r : group.reads) {
      writes.push_back({rep.NodeLabel(r.var), r.key, var_unit[r.var]});
    }
  }
  std::sort(writes.begin(), writes.end());
  std::sort(edges.begin(), edges.end());
}

ViolationEngine::MemberIndex::MemberIndex(std::span<const Group> groups) {
  // Each member's key read, all groups' members in a row: of the reads
  // its constant LHS literals sit on, the one most members of its group
  // hold a constant at (each member counted once per read), ties to the
  // earlier read; kNoKey when its LHS has no constant literal.
  constexpr uint32_t kNoKey = UINT32_MAX;
  std::vector<uint32_t> key;
  std::vector<uint32_t> holders;
  std::vector<uint32_t> seen;  // the last member counted at each read
  std::vector<bool> keys_by;   // whether some member keys by each read
  size_t num_keys = 0;
  size_t num_keyed = 0;
  for (const Group& group : groups) {
    holders.assign(group.reads.size(), 0);
    seen.assign(group.reads.size(), UINT32_MAX);
    for (uint32_t mi = 0; mi < group.members.size(); ++mi) {
      for (const SlotLiteral& l : group.Lhs(group.members[mi])) {
        if (l.kind != LiteralKind::kVarConst || seen[l.x] == mi) continue;
        seen[l.x] = mi;
        ++holders[l.x];
      }
    }
    keys_by.assign(group.reads.size(), false);
    for (const Member& m : group.members) {
      uint32_t best = kNoKey;
      for (const SlotLiteral& l : group.Lhs(m)) {
        if (l.kind != LiteralKind::kVarConst) continue;
        if (best == kNoKey || holders[l.x] > holders[best] ||
            (holders[l.x] == holders[best] && l.x < best)) {
          best = l.x;
        }
      }
      key.push_back(best);
      if (best == kNoKey) continue;
      ++num_keyed;
      if (!keys_by[best]) ++num_keys;
      keys_by[best] = true;
    }
  }

  // Sized, so every array is allocated once, exactly.
  group_keyless.reserve(groups.size() + 1);
  group_keys.reserve(groups.size() + 1);
  keyless.reserve(key.size() - num_keyed);
  keys.reserve(num_keys);
  keyed.reserve(num_keyed);
  const uint32_t* member_key = key.data();
  for (const Group& group : groups) {
    group_keyless.push_back(static_cast<uint32_t>(keyless.size()));
    group_keys.push_back(static_cast<uint32_t>(keys.size()));
    for (uint32_t mi = 0; mi < group.members.size(); ++mi) {
      if (member_key[mi] == kNoKey) keyless.push_back(mi);
    }
    // One Key per read that keys a member, in read order, over its
    // members' (constant, member) pairs.
    for (uint32_t slot = 0; slot < group.reads.size(); ++slot) {
      const uint32_t begin = static_cast<uint32_t>(keyed.size());
      for (uint32_t mi = 0; mi < group.members.size(); ++mi) {
        if (member_key[mi] != slot) continue;
        for (const SlotLiteral& l : group.Lhs(group.members[mi])) {
          if (l.kind == LiteralKind::kVarConst && l.x == slot) {
            keyed.push_back({l.c, mi});
            break;
          }
        }
      }
      if (keyed.size() == begin) continue;
      std::sort(keyed.begin() + begin, keyed.end());
      keys.push_back({slot, begin, static_cast<uint32_t>(keyed.size())});
    }
    member_key += group.members.size();
  }
  group_keyless.push_back(static_cast<uint32_t>(keyless.size()));
  group_keys.push_back(static_cast<uint32_t>(keys.size()));
}

ViolationEngine::Group::Group(const Pattern& rep) : pivot(rep.pivot()) {
  plans.emplace_back(rep);
}

void ViolationEngine::Group::CompileStepPlans() {
  const Pattern rep = pattern();  // a copy: plans grows below
  auto add_plan = [&](VarId root, VarId second) {
    Pattern q = rep;
    q.set_pivot(root);
    plans.emplace_back(q, second);
    return static_cast<uint32_t>(plans.size() - 1);
  };
  var_plan.assign(rep.NumNodes(), kNoPlan);
  var_plan[pivot] = 0;
  for (const SlotRead& r : reads) {
    if (var_plan[r.var] == kNoPlan) var_plan[r.var] = add_plan(r.var, kNoVar);
  }
  edge_plan.assign(rep.NumEdges(), {});
  for (size_t j = 0; j < rep.NumEdges(); ++j) {
    const PatternEdge& e = rep.edges()[j];
    if (e.src == e.dst) {  // the root step of its variable checks it
      if (var_plan[e.src] == kNoPlan) {
        var_plan[e.src] = add_plan(e.src, kNoVar);
      }
      edge_plan[j] = {var_plan[e.src], false};
      continue;
    }
    // Any plan so far -- a variable's, or an earlier edge's between the
    // same two variables -- that binds one endpoint first and the other
    // second.
    for (uint32_t p = 0; p < plans.size(); ++p) {
      const VarId root = plans[p].pattern().pivot();
      const VarId second = plans[p].SecondVar();
      if (root == e.src && second == e.dst) edge_plan[j] = {p, false};
      if (root == e.dst && second == e.src) edge_plan[j] = {p, true};
      if (edge_plan[j].plan != kNoPlan) break;
    }
    if (edge_plan[j].plan == kNoPlan) {
      edge_plan[j] = {add_plan(e.src, e.dst), false};
    }
  }
}

void ViolationEngine::Group::AddMember(uint32_t gfd_index, const Gfd& phi,
                                       std::span<const VarId> var_map) {
  // Slot of (var, key) in `reads`, appended on first use. Groups read a
  // handful of distinct pairs, so a linear probe is enough.
  auto slot = [this](VarId var, AttrId key) {
    for (uint32_t i = 0; i < reads.size(); ++i) {
      if (reads[i].var == var && reads[i].key == key) return i;
    }
    reads.push_back({var, key});
    return static_cast<uint32_t>(reads.size() - 1);
  };
  auto compile = [&](const Literal& l) {
    SlotLiteral s;
    s.kind = l.kind;
    if (l.kind == LiteralKind::kFalse) return s;
    s.x = slot(var_map[l.x], l.a);
    if (l.kind == LiteralKind::kVarVar) {
      s.y = slot(var_map[l.y], l.b);
    } else {
      s.c = l.c;
    }
    return s;
  };
  Member m{gfd_index, static_cast<uint32_t>(to_rep.size()),
           static_cast<uint32_t>(lhs.size()), 0, compile(phi.rhs)};
  for (const Literal& l : phi.lhs) lhs.push_back(compile(l));
  m.lhs_end = static_cast<uint32_t>(lhs.size());
  to_rep.insert(to_rep.end(), var_map.begin(), var_map.end());
  members.push_back(m);
}

Violation ViolationEngine::MakeViolation(const Group& group, const Member& m,
                                         NodeId pivot,
                                         const Match& match) const {
  const Gfd& rule = rules_[m.gfd_index];
  Violation viol;
  viol.gfd_index = m.gfd_index;
  viol.pivot = pivot;
  viol.failed_rhs = rule.rhs;
  viol.match.resize(rule.pattern.NumNodes());
  for (VarId u = 0; u < rule.pattern.NumNodes(); ++u) {
    viol.match[u] = match[group.to_rep[m.to_rep + u]];
  }
  return viol;
}

template <typename GraphT, typename Roots, typename Attributed>
void ViolationEngine::ScanPlan(const GraphT& g, uint32_t gi,
                               const CompiledPattern& plan, const Roots& roots,
                               const Attributed& attributed, Budget* budget,
                               Tally& tally) const {
  // Set up once per range, without touching the heap on the uncapped
  // path: the worker's slot buffer, the match callback (std::function
  // stores the reference to `visit` inline) and local counters, added
  // to the tally at the end.
  const Group& group = groups_[gi];
  const VarId pivot = group.pivot;
  std::vector<ValueId>& vals = tally.slots;
  vals.resize(group.reads.size());
  uint64_t matches = 0;
  uint64_t evals = 0;
  // Capped runs only: the members whose rule this range saw capped, and
  // how many still want violations.
  std::vector<bool> capped(budget ? group.members.size() : 0, false);
  size_t wanting = group.members.size();
  for (size_t i = 0; i < capped.size(); ++i) {
    if (budget->RuleCapped(group.members[i].gfd_index)) {
      capped[i] = true;
      --wanting;
    }
  }
  auto visit = [&](const Match& h) {
    if (!attributed(h)) return true;
    ++matches;
    group.ReadSlots(g, h, vals.data());
    if (budget == nullptr) {
      evals += member_index_.ForEachCandidate(gi, vals.data(), [&](uint32_t i) {
        const Member& m = group.members[i];
        if (group.Violates(m, vals.data())) {
          tally.violations.push_back(MakeViolation(group, m, h[pivot], h));
        }
      });
      return true;
    }
    for (size_t i = 0; i < group.members.size(); ++i) {
      if (capped[i]) continue;
      ++evals;
      const Member& m = group.members[i];
      if (!group.Violates(m, vals.data())) continue;
      const Budget::Claim claim = budget->Take(m.gfd_index);
      if (claim == Budget::Claim::kExhausted) return false;
      if (claim != Budget::Claim::kRuleFull) {
        tally.violations.push_back(MakeViolation(group, m, h[pivot], h));
      }
      if (claim != Budget::Claim::kEmit) {
        capped[i] = true;
        --wanting;
      }
    }
    return wanting > 0;  // stop this pivot once every member is capped
  };
  const std::function<bool(const Match&)> on_match = std::ref(visit);
  for (const auto& root : roots) {
    NodeId v = 0;
    NodeId second = kNoNode;
    if constexpr (std::is_same_v<std::decay_t<decltype(root)>,
                                 StepPlan::PairRoot>) {
      v = root.first;
      if (root.second != v) second = root.second;
    } else {
      v = root;
    }
    if (!plan.AdmitsPivot(g, v)) continue;
    if (budget &&
        (wanting == 0 || budget->stop.load(std::memory_order_relaxed))) {
      break;
    }
    ++tally.pivots;
    if (second == kNoNode) {
      plan.ForEachMatchAtPivot(g, v, on_match);
    } else {
      plan.ForEachMatchAtPair(g, v, second, on_match);
    }
  }
  tally.matches += matches;
  tally.literal_evals += evals;
}

template <typename GraphT>
DetectionResult ViolationEngine::DetectImpl(const GraphT& g,
                                            const DetectOptions& opts) const {
  obs::ScopedTimer run_timer(&DetectFullLatency());
  // Flat units: every group's candidate pivots -- its label index span,
  // or [0, |V|) for a wildcard pivot -- cut into ranges of kUnitNodes.
  // A unit indexes that span, so no pivot list is copied.
  constexpr size_t kUnitNodes = 256;
  struct Unit {
    uint32_t group;
    uint32_t lo;
    uint32_t hi;
  };
  std::vector<Unit> units;
  for (uint32_t gi = 0; gi < groups_.size(); ++gi) {
    const LabelId l = groups_[gi].PivotPlan().PivotLabel();
    const size_t n =
        l == kWildcardLabel ? g.NumNodes() : g.NodesWithLabel(l).size();
    for (size_t lo = 0; lo < n; lo += kUnitNodes) {
      units.push_back({gi, static_cast<uint32_t>(lo),
                       static_cast<uint32_t>(std::min(n, lo + kUnitNodes))});
    }
  }

  std::optional<Budget> budget;
  if (opts.max_violations_per_gfd != 0 || opts.max_total_violations != 0) {
    budget.emplace(opts, rules_.size());
  }
  Budget* caps = budget ? &*budget : nullptr;
  auto every_match = [](const Match&) { return true; };
  Tally empty;
  empty.group_matches.assign(groups_.size(), 0);
  Tally run = Tally::Merge(RunUnits(
      units.size(), opts.workers, empty, [&](size_t i, Tally& tally) {
        const Unit& unit = units[i];
        const uint64_t entry = tally.matches;
        const CompiledPattern& plan = groups_[unit.group].PivotPlan();
        const LabelId l = plan.PivotLabel();
        if (l == kWildcardLabel) {
          ScanPlan(g, unit.group, plan, std::views::iota(unit.lo, unit.hi),
                   every_match, caps, tally);
        } else {
          ScanPlan(g, unit.group, plan,
                   g.NodesWithLabel(l).subspan(unit.lo, unit.hi - unit.lo),
                   every_match, caps, tally);
        }
        tally.group_matches[unit.group] += tally.matches - entry;
      }));

  for (size_t gi = 0; gi < run.group_matches.size(); ++gi) {
    DetectGroupMatches(gi).Inc(run.group_matches[gi]);
  }
  DetectionResult result;
  result.violations = std::move(run.violations);
  result.stats.num_rules = rules_.size();
  result.stats.num_groups = groups_.size();
  result.stats.pivots_scanned = run.pivots;
  result.stats.matches_seen = run.matches;
  result.stats.literal_evals = run.literal_evals;
  result.stats.truncated = budget && budget->truncated.load();
  DetectMatchesEnumerated().Inc(result.stats.matches_seen);
  DetectLiteralEvals().Inc(result.stats.literal_evals);
  return result;
}

DetectionResult ViolationEngine::Detect(const PropertyGraph& g,
                                        const DetectOptions& opts) const {
  return DetectImpl(g, opts);
}

DetectionResult ViolationEngine::Detect(const GraphView& g,
                                        const DetectOptions& opts) const {
  return DetectImpl(g, opts);
}

StepPlan ViolationEngine::PlanStep(const GraphView& pre,
                                   const BatchFootprint& batch) const {
  StepPlan plan;
  // Every (unit, write or changed key) pair that roots work, as the
  // unit's number over the op's index: sorted, the pairs come unit by
  // unit in plan order, and each unit's ops in the batch's order. Roots
  // are filtered by the labels of their nodes, which no batch changes,
  // so both sides get the same units. A label looks up its own units and
  // the wildcard's.
  std::vector<uint64_t> hits;
  auto hit = [&](uint32_t unit, size_t op) {
    hits.push_back(uint64_t{unit} << 32 | op);
  };
  auto for_labels = [](LabelId l, const auto& fn) {
    fn(l);
    if (l != kWildcardLabel) fn(kWildcardLabel);
  };
  for (size_t i = 0; i < batch.writes.size(); ++i) {
    const BatchFootprint::Write& w = batch.writes[i];
    for_labels(pre.NodeLabel(w.node), [&](LabelId l) {
      const UnitIndex::Write least{l, w.key, 0};
      for (auto it = std::lower_bound(unit_index_.writes.begin(),
                                      unit_index_.writes.end(), least);
           it != unit_index_.writes.end() && it->label == l &&
           it->key == w.key;
           ++it) {
        hit(it->unit, i);
      }
    });
  }
  for (size_t i = 0; i < batch.edges.size(); ++i) {
    const BatchFootprint::EdgeKey& k = batch.edges[i];
    for_labels(k.label, [&](LabelId l) {
      const UnitIndex::Edge least{l, 0, 0, 0, false};
      for (auto it = std::lower_bound(unit_index_.edges.begin(),
                                      unit_index_.edges.end(), least);
           it != unit_index_.edges.end() && it->label == l; ++it) {
        // A self-loop edge maps onto self-loops only; injectivity keeps
        // any other edge off them.
        if ((k.src == k.dst) == it->self_loop &&
            LabelMatches(pre.NodeLabel(k.src), it->src_label) &&
            LabelMatches(pre.NodeLabel(k.dst), it->dst_label)) {
          hit(it->unit, i);
        }
      }
    });
  }
  std::sort(hits.begin(), hits.end());

  for (size_t h = 0; h < hits.size();) {
    const uint32_t number = static_cast<uint32_t>(hits[h] >> 32);
    const UnitIndex::Unit& unit = unit_index_.units[number];
    const Group& group = groups_[unit.group];
    size_t last = h;  // this unit's hits are [h, last)
    while (last < hits.size() && hits[last] >> 32 == number) ++last;
    const uint32_t begin = static_cast<uint32_t>(
        unit.edge ? plan.pairs_.size() : plan.nodes_.size());
    if (!unit.edge) {
      for (; h < last; ++h) {  // writes by node
        const NodeId node = batch.writes[static_cast<uint32_t>(hits[h])].node;
        if (plan.nodes_.size() > begin && plan.nodes_.back() == node) {
          continue;
        }
        plan.nodes_.push_back(node);
      }
    } else {
      const bool root_is_dst = group.edge_plan[unit.index].root_is_dst;
      for (; h < last; ++h) {
        const BatchFootprint::EdgeKey& k =
            batch.edges[static_cast<uint32_t>(hits[h])];
        StepPlan::PairRoot root{k.src, k.dst};
        if (root_is_dst) std::swap(root.first, root.second);
        // Keys sorted by (src, dst): parallel labels come in a row.
        if (plan.pairs_.size() > begin &&
            plan.pairs_.back().first == root.first &&
            plan.pairs_.back().second == root.second) {
          continue;
        }
        plan.pairs_.push_back(root);
      }
    }
    const uint32_t end = static_cast<uint32_t>(
        unit.edge ? plan.pairs_.size() : plan.nodes_.size());
    plan.units_.push_back({unit.group, unit.index, unit.edge, begin, end});
  }
  return plan;
}

size_t StepPlan::write_units() const {
  return static_cast<size_t>(std::ranges::count(units_, false, &Unit::edge));
}

size_t StepPlan::edge_units() const {
  return static_cast<size_t>(std::ranges::count(units_, true, &Unit::edge));
}

ViolationEngine::Tally ViolationEngine::RunSide(
    const GraphView& g, const StepPlan& plan, const BatchFootprint& batch,
    const IncrementalOptions& opts) const {
  // Attribution reads only the match and the footprint, so it is
  // independent of the side, the execution order and the worker count: a
  // match is evaluated at its lowest variable that reads a written key,
  // else at its lowest pattern edge that maps onto a changed key.
  return Tally::Merge(RunUnits(
      plan.units_.size(), opts.workers, Tally{}, [&](size_t i, Tally& tally) {
        const StepPlan::Unit& unit = plan.units_[i];
        const Group& group = groups_[unit.group];
        auto roots = [&](const auto& all) {
          return std::span(all).subspan(unit.begin, unit.end - unit.begin);
        };
        if (!unit.edge) {
          const size_t u = unit.index;
          auto attributed = [&](const Match& h) {
            for (const SlotRead& r : group.reads) {
              if (r.var < u && batch.Wrote(h[r.var], r.key)) return false;
            }
            return true;
          };
          ScanPlan(g, unit.group, group.plans[group.var_plan[u]],
                   roots(plan.nodes_), attributed, nullptr, tally);
          return;
        }
        const std::vector<PatternEdge>& edges = group.pattern().edges();
        const size_t j = unit.index;
        auto attributed = [&](const Match& h) {
          for (const SlotRead& r : group.reads) {
            if (batch.Wrote(h[r.var], r.key)) return false;
          }
          for (size_t k = 0; k < j; ++k) {
            const PatternEdge& e = edges[k];
            if (batch.Changed(h[e.src], h[e.dst], e.label)) return false;
          }
          return true;
        };
        ScanPlan(g, unit.group, group.plans[group.edge_plan[j].plan],
                 roots(plan.pairs_), attributed, nullptr, tally);
      }));
}

BatchFootprint BatchFootprint::Of(std::span<const GraphDelta::Op> ops) {
  BatchFootprint fp;
  for (const GraphDelta::Op& op : ops) {
    const uint32_t bit = FilterBit(op.src);
    fp.filter_[bit / 64] |= uint64_t{1} << (bit % 64);
    if (op.kind == GraphDelta::OpKind::kSetAttr) {
      fp.writes.push_back({op.src, op.key});
    } else {
      fp.edges.push_back({op.src, op.dst, op.label});
    }
  }
  SortUnique(fp.writes);
  SortUnique(fp.edges);
  return fp;
}

bool BatchFootprint::SearchWrites(NodeId v, AttrId key) const {
  return std::binary_search(writes.begin(), writes.end(), Write{v, key});
}

bool BatchFootprint::SearchEdges(NodeId src, NodeId dst,
                                 LabelId label) const {
  const EdgeKey least{src, dst, 0};  // no key src -> dst sorts before it
  auto it = std::lower_bound(edges.begin(), edges.end(), least);
  for (; it != edges.end() && it->src == src && it->dst == dst; ++it) {
    if (LabelMatches(it->label, label)) return true;
  }
  return false;
}

std::optional<IncrementalDiff> ViolationEngine::DetectIncremental(
    const PropertyGraph& g, const GraphDelta& batch,
    const IncrementalOptions& opts, std::string* error) const {
  GraphView view = *GraphView::Apply(g, GraphDelta{});
  // Validate first: the step's apply cannot fail, and PlanStep reads the
  // label of every op endpoint, which must be a node of `g`.
  if (!view.ValidateAppended(batch, 0, error)) return std::nullopt;
  const BatchFootprint fp = BatchFootprint::Of(batch.ops);
  auto absorb = [&] { view.ApplyAppended(batch, 0); };
  return StepDiff(DetectStep(view, fp, PlanStep(view, fp), absorb, opts));
}

StepSides ViolationEngine::DetectStep(const GraphView& live,
                                      const BatchFootprint& batch,
                                      const StepPlan& plan,
                                      const std::function<void()>& apply,
                                      const IncrementalOptions& opts) const {
  StepSides sides;
  IncrementalStats& stats = sides.stats;
  if ((batch.writes.empty() && batch.edges.empty()) || rules_.empty()) {
    apply();
    return sides;
  }
  // Timed per side, so the apply between them is not counted.
  auto run_side = [&] {
    StopwatchNs watch;
    Tally side = RunSide(live, plan, batch, opts);
    sides.detect_ns += watch.ElapsedNs();
    return side;
  };
  Tally before = run_side();
  apply();
  Tally after = run_side();
  for (size_t u = 0; u < plan.units_.size(); ++u) {
    if (u == 0 || plan.units_[u].group != plan.units_[u - 1].group) {
      ++stats.groups_scanned;
    }
  }
  stats.write_units = plan.write_units();
  stats.edge_units = plan.edge_units();
  sides.before = std::move(before.violations);
  sides.after = std::move(after.violations);
  stats.violations_before = sides.before.size();
  stats.violations_after = sides.after.size();
  stats.roots_scanned = before.pivots + after.pivots;
  stats.matches_seen = before.matches + after.matches;
  stats.literal_evals = before.literal_evals + after.literal_evals;
  DetectIncrementalLatency().Observe(static_cast<double>(sides.detect_ns) *
                                     1e-9);
  DetectGroupsScanned().Inc(stats.groups_scanned);
  DetectMatchesEnumerated().Inc(stats.matches_seen);
  DetectLiteralEvals().Inc(stats.literal_evals);
  return sides;
}

DeltaVerdict ClassifyDelta(const IncrementalDiff& diff, uint64_t post_count) {
  if (!diff.added.empty()) return DeltaVerdict::kAddedViolations;
  return post_count == 0 ? DeltaVerdict::kClean
                         : DeltaVerdict::kPreexistingOnly;
}

IncrementalDiff StepDiff(const StepSides& sides) {
  // A violation's status can only change if its match touches the batch,
  // so these set differences equal the diff of two full runs: untouched
  // matches are byte-identical on both sides and cancel.
  IncrementalDiff diff;
  std::set_difference(sides.after.begin(), sides.after.end(),
                      sides.before.begin(), sides.before.end(),
                      std::back_inserter(diff.added));
  std::set_difference(sides.before.begin(), sides.before.end(),
                      sides.after.begin(), sides.after.end(),
                      std::back_inserter(diff.removed));
  diff.stats = sides.stats;
  DetectDiffAdded().Inc(diff.added.size());
  DetectDiffRemoved().Inc(diff.removed.size());
  return diff;
}

DetectionResult DetectNaive(const PropertyGraph& g, std::span<const Gfd> rules,
                            const DetectOptions& opts) {
  DetectionResult result;
  result.stats.num_rules = rules.size();
  result.stats.num_groups = rules.size();  // one private plan per rule
  size_t total = 0;
  for (uint32_t i = 0; i < rules.size(); ++i) {
    const Gfd& phi = rules[i];
    CompiledPattern plan(phi.pattern);
    size_t emitted = 0;
    bool stop = false;
    for (NodeId v : plan.PivotCandidates(g)) {
      ++result.stats.pivots_scanned;
      plan.ForEachMatchAtPivot(
          g, v,
          [&](const Match& m) {
            ++result.stats.matches_seen;
            ++result.stats.literal_evals;
            if (MatchSatisfiesAll(g, m, phi.lhs) &&
                !MatchSatisfies(g, m, phi.rhs)) {
              result.violations.push_back({i, v, m, phi.rhs});
              ++emitted;
              ++total;
              if (opts.max_violations_per_gfd != 0 &&
                  emitted >= opts.max_violations_per_gfd) {
                result.stats.truncated = true;
                return false;
              }
              if (opts.max_total_violations != 0 &&
                  total >= opts.max_total_violations) {
                result.stats.truncated = true;
                stop = true;
                return false;
              }
            }
            return true;
          });
      if (stop) break;
      if (opts.max_violations_per_gfd != 0 &&
          emitted >= opts.max_violations_per_gfd) {
        break;
      }
    }
    if (stop) break;
  }
  std::sort(result.violations.begin(), result.violations.end());
  return result;
}

}  // namespace gfd
