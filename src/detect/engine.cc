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

// A root of an edge unit: the nodes its plan binds first and second.
using NodePair = std::pair<NodeId, NodeId>;

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

// A step's work units (DetectStep): a write unit (group, variable) over
// node roots, or an edge unit (group, pattern edge) over pair roots, each
// a range of the shared root lists.
struct ViolationEngine::StepUnits {
  struct Unit {
    size_t group;
    size_t index;  // the write unit's variable, the edge unit's edge
    bool edge;
    size_t begin;  // its roots: [begin, end) of nodes or of pairs
    size_t end;
  };
  std::vector<Unit> units;
  std::vector<NodeId> nodes;
  std::vector<NodePair> pairs;
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
      group.AddMember(idx, phi, std::move(f));
    }
    groups_.push_back(std::move(group));
  }

  // The step's plans, static group footprints for DetectStep's skip
  // gate -- the concrete labels a match of the group must bind, and the
  // attr keys its members' literals read -- and the patterns' widest
  // radius. Built over every group -- including the defensive private
  // plans above -- once per engine lifetime; a rule-set change means a
  // new engine, so these never go stale.
  for (Group& group : groups_) {
    group.CompileStepPlans();
    const Pattern& rep = group.pattern();
    for (VarId u = 0; u < rep.NumNodes(); ++u) {
      const LabelId l = rep.NodeLabel(u);
      if (l == kWildcardLabel) {
        group.has_wildcard_var = true;
      } else {
        group.var_labels.push_back(l);
      }
    }
    SortUnique(group.var_labels);
    for (const SlotRead& r : group.reads) group.attr_keys.push_back(r.key);
    SortUnique(group.attr_keys);

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
                                       std::vector<VarId> to_rep) {
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
    s.x = slot(to_rep[l.x], l.a);
    if (l.kind == LiteralKind::kVarVar) {
      s.y = slot(to_rep[l.y], l.b);
    } else {
      s.c = l.c;
    }
    return s;
  };
  Member m{gfd_index, {}, {}, compile(phi.rhs)};
  m.lhs.reserve(phi.lhs.size());
  for (const Literal& l : phi.lhs) m.lhs.push_back(compile(l));
  m.to_rep = std::move(to_rep);
  members.push_back(std::move(m));
}

Violation ViolationEngine::MakeViolation(const Member& m, NodeId pivot,
                                         const Match& match) const {
  const Gfd& rule = rules_[m.gfd_index];
  Violation viol;
  viol.gfd_index = m.gfd_index;
  viol.pivot = pivot;
  viol.failed_rhs = rule.rhs;
  viol.match.resize(rule.pattern.NumNodes());
  for (VarId u = 0; u < rule.pattern.NumNodes(); ++u) {
    viol.match[u] = match[m.to_rep[u]];
  }
  return viol;
}

template <typename GraphT, typename Roots, typename Attributed>
void ViolationEngine::ScanPlan(const GraphT& g, const Group& group,
                               const CompiledPattern& plan, const Roots& roots,
                               const Attributed& attributed, Budget* budget,
                               Tally& tally) const {
  // Set up once per range, without touching the heap on the uncapped
  // path: the worker's slot buffer, the match callback (std::function
  // stores the reference to `visit` inline) and local counters, added
  // to the tally at the end.
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
      evals += group.members.size();
      for (const Member& m : group.members) {
        if (m.Violates(vals.data())) {
          tally.violations.push_back(MakeViolation(m, h[pivot], h));
        }
      }
      return true;
    }
    for (size_t i = 0; i < group.members.size(); ++i) {
      if (capped[i]) continue;
      ++evals;
      const Member& m = group.members[i];
      if (!m.Violates(vals.data())) continue;
      const Budget::Claim claim = budget->Take(m.gfd_index);
      if (claim == Budget::Claim::kExhausted) return false;
      if (claim != Budget::Claim::kRuleFull) {
        tally.violations.push_back(MakeViolation(m, h[pivot], h));
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
    if constexpr (std::is_same_v<std::decay_t<decltype(root)>, NodePair>) {
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
        const Group& group = groups_[unit.group];
        const uint64_t entry = tally.matches;
        const CompiledPattern& plan = group.PivotPlan();
        const LabelId l = plan.PivotLabel();
        if (l == kWildcardLabel) {
          ScanPlan(g, group, plan, std::views::iota(unit.lo, unit.hi),
                   every_match, caps, tally);
        } else {
          ScanPlan(g, group, plan,
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

ViolationEngine::StepUnits ViolationEngine::PlanUnits(
    const GraphView& g, const BatchFootprint& batch,
    std::span<const NodeId> seeds, std::span<const size_t> scan) const {
  // The writes and the changed keys rooted at this call's seeds.
  auto seeded = [&](NodeId v) {
    return std::binary_search(seeds.begin(), seeds.end(), v);
  };
  std::vector<BatchFootprint::Write> writes;
  for (const BatchFootprint::Write& w : batch.writes) {
    if (seeded(w.node)) writes.push_back(w);
  }
  std::vector<BatchFootprint::EdgeKey> keys;
  for (const BatchFootprint::EdgeKey& k : batch.edges) {
    if (seeded(k.anchor)) keys.push_back(k);
  }
  // Roots are filtered by the labels of their nodes, which no batch
  // changes, so both sides get the same units.
  StepUnits step;
  auto add_unit = [&](size_t gi, size_t index, bool edge, size_t begin) {
    const size_t end = edge ? step.pairs.size() : step.nodes.size();
    if (end > begin) step.units.push_back({gi, index, edge, begin, end});
  };
  for (size_t gi : scan) {
    const Group& group = groups_[gi];
    const Pattern& rep = group.pattern();
    for (VarId u = 0; u < rep.NumNodes(); ++u) {
      const size_t begin = step.nodes.size();
      for (const BatchFootprint::Write& w : writes) {  // sorted by node
        if (step.nodes.size() > begin && step.nodes.back() == w.node) continue;
        if (LabelMatches(g.NodeLabel(w.node), rep.NodeLabel(u)) &&
            group.ReadsAt(u, w.key)) {
          step.nodes.push_back(w.node);
        }
      }
      add_unit(gi, u, false, begin);
    }
    for (size_t j = 0; j < rep.NumEdges(); ++j) {
      const PatternEdge& e = rep.edges()[j];
      const size_t begin = step.pairs.size();
      for (const BatchFootprint::EdgeKey& k : keys) {
        // A self-loop edge maps onto self-loops only; injectivity keeps
        // any other edge off them.
        if ((k.src == k.dst) != (e.src == e.dst) ||
            !LabelMatches(k.label, e.label) ||
            !LabelMatches(g.NodeLabel(k.src), rep.NodeLabel(e.src)) ||
            !LabelMatches(g.NodeLabel(k.dst), rep.NodeLabel(e.dst))) {
          continue;
        }
        NodePair root{k.src, k.dst};
        if (group.edge_plan[j].root_is_dst) std::swap(root.first, root.second);
        // Keys sorted by (src, dst): parallel labels come in a row.
        if (step.pairs.size() > begin && step.pairs.back() == root) continue;
        step.pairs.push_back(root);
      }
      add_unit(gi, j, true, begin);
    }
  }
  return step;
}

ViolationEngine::Tally ViolationEngine::RunSide(
    const GraphView& g, const StepUnits& step, const BatchFootprint& batch,
    const IncrementalOptions& opts) const {
  // Attribution reads only the match and the whole footprint, so it is
  // independent of the side, the seeds, the execution order and the
  // worker count: a match is evaluated at its lowest variable that reads
  // a written key, else at its lowest pattern edge that maps onto a
  // changed key.
  return Tally::Merge(RunUnits(
      step.units.size(), opts.workers, Tally{}, [&](size_t i, Tally& tally) {
        const StepUnits::Unit& unit = step.units[i];
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
          ScanPlan(g, group, group.plans[group.var_plan[u]], roots(step.nodes),
                   attributed, nullptr, tally);
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
        ScanPlan(g, group, group.plans[group.edge_plan[j].plan],
                 roots(step.pairs), attributed, nullptr, tally);
      }));
}

BatchFootprint BatchFootprint::Of(std::span<const GraphDelta::Op> ops,
                                  const GraphView& pre) {
  BatchFootprint fp;
  for (const GraphDelta::Op& op : ops) {
    if (op.kind == GraphDelta::OpKind::kSetAttr) {
      fp.anchors.push_back(op.src);
      fp.keys.push_back(op.key);
      fp.writes.push_back({op.src, op.key});
      continue;
    }
    // Every match the op creates or destroys binds both endpoints, so
    // one suffices: the lower-degree one, whose ball is smaller.
    const size_t src_degree = pre.Degree(op.src);
    const size_t dst_degree = pre.Degree(op.dst);
    const bool src_lower = src_degree != dst_degree ? src_degree < dst_degree
                                                    : op.src < op.dst;
    const NodeId anchor = src_lower ? op.src : op.dst;
    fp.anchors.push_back(anchor);
    fp.rewired.push_back(op.src);
    fp.rewired.push_back(op.dst);
    fp.edges.push_back({op.src, op.dst, op.label, anchor});
  }
  SortUnique(fp.anchors);
  SortUnique(fp.rewired);
  SortUnique(fp.keys);
  SortUnique(fp.writes);
  SortUnique(fp.edges);
  return fp;
}

bool BatchFootprint::Wrote(NodeId v, AttrId key) const {
  return std::binary_search(writes.begin(), writes.end(), Write{v, key});
}

bool BatchFootprint::Changed(NodeId src, NodeId dst, LabelId label) const {
  const EdgeKey least{src, dst, 0, 0};  // no key src -> dst sorts before it
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
  // Validate first: BatchFootprint::Of reads the degree of every op
  // endpoint, which must be a node of `g`.
  if (!view.ValidateAppended(batch, 0, error)) return std::nullopt;
  const BatchFootprint fp = BatchFootprint::Of(batch.ops, view);
  auto absorb = [&] { return view.AbsorbAppended(batch, 0, error); };
  auto sides = DetectStep(view, fp, fp.anchors, absorb, opts);
  if (!sides) return std::nullopt;
  return StepDiff(*sides);
}

std::optional<StepSides> ViolationEngine::DetectStep(
    const GraphView& live, const BatchFootprint& batch,
    std::span<const NodeId> seeds, const std::function<bool()>& apply,
    const IncrementalOptions& opts) const {
  StepSides sides;
  sides.stats.affected_nodes = seeds.size();
  if (seeds.empty() || rules_.empty()) {
    if (!apply()) return std::nullopt;
    return sides;
  }

  // Footprint gate: a group can only gain or lose a violation if the
  // batch (a) rewired adjacency at a node whose label one of its
  // variables can bind -- every created/destroyed match contains both
  // endpoints of the changed edge -- or (b) wrote an attr key its
  // literals read at such a node (every attr target is an anchor, so
  // (b) reads the anchors). The batch alone decides: the two sides
  // differ by exactly its ops, and both sides enumerate the same `scan`,
  // so a skipped group's (identical) lists would cancel. Node labels are
  // delta-invariant base ids; rule labels / attr keys beyond the base
  // vocabulary bounds-check or sorted-merge to "no hit", which is how
  // vocabulary growth invalidates nothing.
  const PropertyGraph& base = live.base();
  std::vector<bool> edge_label(base.labels().size(), false);
  std::vector<bool> attr_label(base.labels().size(), false);
  for (NodeId v : batch.rewired) edge_label[base.NodeLabel(v)] = true;
  for (NodeId v : batch.anchors) attr_label[base.NodeLabel(v)] = true;
  auto keys_touched = [&](std::span<const AttrId> keys) {
    size_t i = 0;
    size_t j = 0;
    while (i < keys.size() && j < batch.keys.size()) {
      if (keys[i] == batch.keys[j]) return true;
      if (keys[i] < batch.keys[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return false;
  };
  std::vector<size_t> scan;
  scan.reserve(groups_.size());
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const Group& group = groups_[gi];
    bool hit = group.has_wildcard_var;
    for (size_t li = 0; !hit && li < group.var_labels.size(); ++li) {
      const LabelId l = group.var_labels[li];
      if (l >= edge_label.size()) break;  // sorted: rest out of range too
      hit = edge_label[l] || (attr_label[l] && keys_touched(group.attr_keys));
    }
    if (hit) scan.push_back(gi);
  }
  sides.stats.groups_scanned = scan.size();
  sides.stats.groups_skipped = groups_.size() - scan.size();
  DetectGroupsScanned().Inc(sides.stats.groups_scanned);
  DetectGroupsSkipped().Inc(sides.stats.groups_skipped);

  // Units root at the seeds while attribution reads the whole footprint:
  // a match is evaluated at its attributed unit or nowhere in this call,
  // never re-attributed to a seed's unit -- that is what makes
  // per-fragment step diffs disjoint.
  StopwatchNs watch;
  const StepUnits step = PlanUnits(live, batch, seeds, scan);
  for (const StepUnits::Unit& unit : step.units) {
    ++(unit.edge ? sides.stats.edge_units : sides.stats.write_units);
  }

  // Timed per side: `apply` is a durable append on the serving path.
  Tally before = RunSide(live, step, batch, opts);
  sides.detect_ns = watch.ElapsedNs();
  if (!apply()) return std::nullopt;
  watch.Restart();
  Tally after = RunSide(live, step, batch, opts);
  sides.detect_ns += watch.ElapsedNs();
  const double detect_s = static_cast<double>(sides.detect_ns) * 1e-9;
  DetectIncrementalLatency().Observe(detect_s);
  sides.before = std::move(before.violations);
  sides.after = std::move(after.violations);
  sides.stats.violations_before = sides.before.size();
  sides.stats.violations_after = sides.after.size();
  sides.stats.roots_scanned = before.pivots + after.pivots;
  sides.stats.matches_seen = before.matches + after.matches;
  sides.stats.literal_evals = before.literal_evals + after.literal_evals;
  DetectMatchesEnumerated().Inc(sides.stats.matches_seen);
  DetectLiteralEvals().Inc(sides.stats.literal_evals);
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
