#include "detect/engine.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <unordered_map>

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
// not equality); literal remapping needs a label-exact isomorphism so
// that matches of the representative are exactly the matches of the
// member. Returns f: member VarId -> rep VarId, or empty if none found.
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

struct ViolationEngine::RunState {
  const DetectOptions& opts;
  std::unique_ptr<std::atomic<size_t>[]> per_rule;  // emitted per rule
  std::atomic<size_t> total{0};
  std::atomic<bool> stop{false};  // global budget exhausted
  std::atomic<bool> truncated{false};
  std::atomic<uint64_t> pivots{0};
  std::atomic<uint64_t> matches{0};
  std::atomic<uint64_t> literal_evals{0};

  RunState(const DetectOptions& o, size_t num_rules)
      : opts(o), per_rule(new std::atomic<size_t>[num_rules]) {
    for (size_t i = 0; i < num_rules; ++i) per_rule[i] = 0;
  }

  bool RuleCapped(uint32_t r) const {
    return opts.max_violations_per_gfd != 0 &&
           per_rule[r].load(std::memory_order_relaxed) >=
               opts.max_violations_per_gfd;
  }
};

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
        Member m{idx, phi.lhs, phi.rhs, {}};
        m.to_rep.resize(phi.pattern.NumNodes());
        for (VarId u = 0; u < phi.pattern.NumNodes(); ++u) m.to_rep[u] = u;
        own.members.push_back(std::move(m));
        groups_.push_back(std::move(own));
        continue;
      }
      if (f.empty()) {  // representative: identity map
        f.resize(phi.pattern.NumNodes());
        for (VarId u = 0; u < phi.pattern.NumNodes(); ++u) f[u] = u;
      }
      Member m{idx, {}, MapLiteral(phi.rhs, f), f};
      m.lhs.reserve(phi.lhs.size());
      for (const Literal& l : phi.lhs) m.lhs.push_back(MapLiteral(l, f));
      group.members.push_back(std::move(m));
    }
    groups_.push_back(std::move(group));
  }

  // Static group footprints for DetectStep's skip gate: the concrete
  // labels a match of the group must bind, and the attr keys its
  // members' literals read. Built over every group -- including the
  // defensive private plans above -- once per engine lifetime; a
  // rule-set change means a new engine, so these never go stale.
  for (Group& group : groups_) {
    const Pattern& rep = group.plan.pattern();
    for (VarId u = 0; u < rep.NumNodes(); ++u) {
      const LabelId l = rep.NodeLabel(u);
      if (l == kWildcardLabel) {
        group.has_wildcard_var = true;
      } else {
        group.var_labels.push_back(l);
      }
    }
    SortUnique(group.var_labels);
    auto add_keys = [&group](const Literal& l) {
      if (l.kind == LiteralKind::kFalse) return;
      group.attr_keys.push_back(l.a);
      if (l.kind == LiteralKind::kVarVar) group.attr_keys.push_back(l.b);
    };
    for (const Member& m : group.members) {
      for (const Literal& l : m.lhs) add_keys(l);
      add_keys(m.rhs);
    }
    SortUnique(group.attr_keys);
  }
}

template <typename GraphT>
bool ViolationEngine::EvalPivot(const GraphT& g, const Group& group,
                                NodeId v, RunState& st,
                                std::vector<Violation>& out) const {
  if (st.stop.load(std::memory_order_relaxed)) return false;
  // Members whose rule still wants violations at this pivot.
  std::vector<const Member*> active;
  active.reserve(group.members.size());
  for (const Member& m : group.members) {
    if (!st.RuleCapped(m.gfd_index)) active.push_back(&m);
  }
  if (active.empty()) return true;
  st.pivots.fetch_add(1, std::memory_order_relaxed);

  group.plan.ForEachMatchAtPivot(
      g, v,
      [&](const Match& match) {
        st.matches.fetch_add(1, std::memory_order_relaxed);
        for (size_t i = 0; i < active.size();) {
          const Member& m = *active[i];
          st.literal_evals.fetch_add(1, std::memory_order_relaxed);
          bool violates = MatchSatisfiesAll(g, match, m.lhs) &&
                          !MatchSatisfies(g, match, m.rhs);
          if (violates) {
            // Claim a per-rule slot first, then a global one; fetch_add
            // makes both caps exact under concurrency.
            size_t cap = st.opts.max_violations_per_gfd;
            size_t prev = st.per_rule[m.gfd_index].fetch_add(
                1, std::memory_order_relaxed);
            if (cap != 0 && prev >= cap) {
              st.truncated.store(true, std::memory_order_relaxed);
              active.erase(active.begin() + i);
              continue;
            }
            size_t budget = st.opts.max_total_violations;
            if (budget != 0 &&
                st.total.fetch_add(1, std::memory_order_relaxed) >= budget) {
              st.truncated.store(true, std::memory_order_relaxed);
              st.stop.store(true, std::memory_order_relaxed);
              return false;
            }
            if (budget == 0) {
              st.total.fetch_add(1, std::memory_order_relaxed);
            }
            const Gfd& rule = rules_[m.gfd_index];
            Violation viol;
            viol.gfd_index = m.gfd_index;
            viol.pivot = v;
            viol.failed_rhs = rule.rhs;
            viol.match.resize(rule.pattern.NumNodes());
            for (VarId u = 0; u < rule.pattern.NumNodes(); ++u) {
              viol.match[u] = match[m.to_rep[u]];
            }
            out.push_back(std::move(viol));
            if (cap != 0 && st.RuleCapped(m.gfd_index)) {
              st.truncated.store(true, std::memory_order_relaxed);
              active.erase(active.begin() + i);
              continue;
            }
          }
          ++i;
        }
        return !active.empty();
      },
      st.opts.match);
  return !st.stop.load(std::memory_order_relaxed);
}

template <typename GraphT>
DetectionResult ViolationEngine::DetectImpl(const GraphT& g,
                                            const DetectOptions& opts) const {
  obs::ScopedTimer run_timer(&DetectFullLatency());
  RunState st(opts, rules_.size());
  DetectionResult result;
  result.stats.num_rules = rules_.size();
  result.stats.num_groups = groups_.size();

  // Per-group match attribution rides the existing per-group barrier:
  // one load before / after each group, never per match.
  size_t workers = std::max<size_t>(1, opts.workers);
  if (workers == 1) {
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      const Group& group = groups_[gi];
      const uint64_t group_entry = st.matches.load(std::memory_order_relaxed);
      for (NodeId v : group.plan.PivotCandidates(g)) {
        if (!EvalPivot(g, group, v, st, result.violations)) break;
      }
      DetectGroupMatches(gi).Inc(st.matches.load(std::memory_order_relaxed) -
                                 group_entry);
      if (st.stop.load(std::memory_order_relaxed)) break;
    }
  } else {
    ThreadPool pool(workers);
    std::vector<std::vector<Violation>> buffers(workers);
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      const Group& group = groups_[gi];
      const uint64_t group_entry = st.matches.load(std::memory_order_relaxed);
      // Contiguous pivot ranges, one per worker; worker-local buffers
      // avoid any locking on the hot path.
      std::vector<NodeId> pivots = group.plan.PivotCandidates(g);
      size_t chunk = (pivots.size() + workers - 1) / workers;
      for (size_t w = 0; w < workers && w * chunk < pivots.size(); ++w) {
        size_t lo = w * chunk;
        size_t hi = std::min(pivots.size(), lo + chunk);
        pool.Submit([&, lo, hi, w] {
          for (size_t i = lo; i < hi; ++i) {
            if (!EvalPivot(g, group, pivots[i], st, buffers[w])) break;
          }
        });
      }
      pool.Wait();
      DetectGroupMatches(gi).Inc(st.matches.load(std::memory_order_relaxed) -
                                 group_entry);
      if (st.stop.load(std::memory_order_relaxed)) break;
    }
    for (auto& buf : buffers) {
      result.violations.insert(result.violations.end(),
                               std::make_move_iterator(buf.begin()),
                               std::make_move_iterator(buf.end()));
    }
  }

  std::sort(result.violations.begin(), result.violations.end());
  result.stats.pivots_scanned = st.pivots.load();
  result.stats.matches_seen = st.matches.load();
  result.stats.literal_evals = st.literal_evals.load();
  result.stats.truncated = st.truncated.load();
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

DetectionResult ViolationEngine::DetectSharded(const PropertyGraph& g,
                                               const Fragmentation& frag,
                                               const DetectOptions& opts,
                                               ClusterStats* cstats) const {
  RunState st(opts, rules_.size());
  DetectionResult result;
  result.stats.num_rules = rules_.size();
  result.stats.num_groups = groups_.size();

  size_t shards = std::max<size_t>(1, frag.partition.num_fragments);
  Cluster cluster(shards);
  // Candidate lists are computed once (a full-graph scan each) and read
  // by all fragments, instead of shards x groups recomputations.
  std::vector<std::vector<NodeId>> candidates;
  candidates.reserve(groups_.size());
  for (const Group& group : groups_) {
    candidates.push_back(group.plan.PivotCandidates(g));
  }
  std::vector<std::vector<Violation>> buffers(shards);
  cluster.RunStep([&](size_t w) {
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      for (NodeId v : candidates[gi]) {
        // Pivot-aligned ownership: every pivot is evaluated by exactly
        // one fragment, so the union over fragments is the full answer.
        if (frag.partition.node_owner[v] != w) continue;
        if (!EvalPivot(g, groups_[gi], v, st, buffers[w])) return;
      }
    }
  });
  for (size_t w = 0; w < shards; ++w) {
    if (buffers[w].empty()) continue;
    // Each fragment ships its violation list to the master; a violation
    // record is its fixed header plus one NodeId per pattern variable.
    size_t bytes = 0;
    for (const Violation& viol : buffers[w]) {
      bytes += sizeof(Violation) + viol.match.size() * sizeof(NodeId);
    }
    cluster.CountShipment(buffers[w].size(),
                          bytes / std::max<size_t>(1, buffers[w].size()));
    result.violations.insert(result.violations.end(),
                             std::make_move_iterator(buffers[w].begin()),
                             std::make_move_iterator(buffers[w].end()));
  }
  if (cstats) {
    cstats->messages = cluster.messages();
    cstats->bytes_shipped = cluster.bytes();
    cstats->replication = frag.partition.replication;
  }

  std::sort(result.violations.begin(), result.violations.end());
  result.stats.pivots_scanned = st.pivots.load();
  result.stats.matches_seen = st.matches.load();
  result.stats.literal_evals = st.literal_evals.load();
  result.stats.truncated = st.truncated.load();
  return result;
}

std::vector<Violation> ViolationEngine::RunAnchored(
    const GraphView& g, std::span<const size_t> scan,
    std::span<const NodeId> seeds, const std::vector<bool>& is_anchor,
    size_t workers, RunState& st) const {
  // One side of the diff. For every group, every variable u, and every
  // seed a, enumerate the matches with h(u) = a. A match binding several
  // anchors is attributed to its minimum such variable, so it is
  // evaluated exactly once regardless of execution order -- which also
  // makes the output independent of the worker count.
  auto eval_anchor = [&](const Group& group, VarId u, NodeId a,
                         std::vector<Violation>& out) {
    st.pivots.fetch_add(1, std::memory_order_relaxed);
    const Pattern& rep = group.plan.pattern();
    group.AnchorPlans()[u].ForEachMatchAtPivot(
        g, a,
        [&](const Match& match) {
          for (VarId w = 0; w < u; ++w) {
            if (is_anchor[match[w]]) return true;  // attributed to w
          }
          st.matches.fetch_add(1, std::memory_order_relaxed);
          NodeId pivot_node = match[rep.pivot()];
          for (const Member& m : group.members) {
            st.literal_evals.fetch_add(1, std::memory_order_relaxed);
            if (MatchSatisfiesAll(g, match, m.lhs) &&
                !MatchSatisfies(g, match, m.rhs)) {
              const Gfd& rule = rules_[m.gfd_index];
              Violation viol;
              viol.gfd_index = m.gfd_index;
              viol.pivot = pivot_node;
              viol.failed_rhs = rule.rhs;
              viol.match.resize(rule.pattern.NumNodes());
              for (VarId x = 0; x < rule.pattern.NumNodes(); ++x) {
                viol.match[x] = match[m.to_rep[x]];
              }
              out.push_back(std::move(viol));
            }
          }
          return true;
        },
        st.opts.match);
  };

  std::vector<Violation> out;
  if (workers <= 1) {
    for (size_t gi : scan) {
      const Group& group = groups_[gi];
      for (VarId u = 0; u < group.plan.pattern().NumNodes(); ++u) {
        for (NodeId a : seeds) eval_anchor(group, u, a, out);
      }
    }
  } else {
    ThreadPool pool(workers);
    std::vector<std::vector<Violation>> buffers(workers);
    size_t chunk = (seeds.size() + workers - 1) / workers;
    for (size_t w = 0; w < workers && w * chunk < seeds.size(); ++w) {
      size_t lo = w * chunk;
      size_t hi = std::min(seeds.size(), lo + chunk);
      pool.Submit([&, lo, hi, w] {
        for (size_t gi : scan) {
          const Group& group = groups_[gi];
          for (VarId u = 0; u < group.plan.pattern().NumNodes(); ++u) {
            for (size_t i = lo; i < hi; ++i) {
              eval_anchor(group, u, seeds[i], buffers[w]);
            }
          }
        }
      });
    }
    pool.Wait();
    for (auto& buf : buffers) {
      out.insert(out.end(), std::make_move_iterator(buf.begin()),
                 std::make_move_iterator(buf.end()));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

BatchFootprint BatchFootprint::Of(std::span<const GraphDelta::Op> ops,
                                  const GraphView& pre) {
  BatchFootprint fp;
  for (const GraphDelta::Op& op : ops) {
    if (op.kind == GraphDelta::OpKind::kSetAttr) {
      fp.anchors.push_back(op.src);
      fp.keys.push_back(op.key);
      continue;
    }
    // Every match the op creates or destroys binds both endpoints, so
    // one suffices: the lower-degree one, which fewer matches go through.
    const size_t src_degree = pre.Degree(op.src);
    const size_t dst_degree = pre.Degree(op.dst);
    const bool src_lower = src_degree != dst_degree ? src_degree < dst_degree
                                                    : op.src < op.dst;
    fp.anchors.push_back(src_lower ? op.src : op.dst);
    fp.rewired.push_back(op.src);
    fp.rewired.push_back(op.dst);
  }
  SortUnique(fp.anchors);
  SortUnique(fp.rewired);
  SortUnique(fp.keys);
  return fp;
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

uint32_t ViolationEngine::MaxPatternRadius() const {
  uint32_t radius = 0;
  for (const Group& group : groups_) {
    const Pattern& p = group.plan.pattern();
    const size_t n = p.NumNodes();
    // Eccentricity of every variable by BFS over the undirected
    // variable graph; patterns are tiny (k nodes), so n BFS runs are
    // cheap and run once per engine lifetime.
    for (VarId s = 0; s < n; ++s) {
      std::vector<uint32_t> dist(n, UINT32_MAX);
      std::vector<VarId> queue{s};
      dist[s] = 0;
      for (size_t head = 0; head < queue.size(); ++head) {
        VarId u = queue[head];
        for (VarId w : p.Neighbors(u)) {
          if (dist[w] != UINT32_MAX) continue;
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
      }
      for (VarId u = 0; u < n; ++u) {
        if (dist[u] != UINT32_MAX) radius = std::max(radius, dist[u]);
      }
    }
  }
  return radius;
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
    if (hit) {
      scan.push_back(gi);
      sides.stats.anchor_plans += group.plan.pattern().NumNodes();
    }
  }
  sides.stats.groups_scanned = scan.size();
  sides.stats.groups_skipped = groups_.size() - scan.size();
  DetectGroupsScanned().Inc(sides.stats.groups_scanned);
  DetectGroupsSkipped().Inc(sides.stats.groups_skipped);

  // Attribution sees every anchor, not just the seeds: a match is
  // evaluated at its minimum anchored variable or nowhere in this call,
  // never re-attributed to a seed -- that is what makes per-fragment
  // step diffs disjoint.
  std::vector<bool> is_anchor(base.NumNodes(), false);
  for (NodeId v : batch.anchors) is_anchor[v] = true;

  DetectOptions uncapped;
  uncapped.match = opts.match;
  RunState st(uncapped, rules_.size());
  const size_t workers = std::max<size_t>(1, opts.workers);
  // Timed per side: `apply` is a durable append on the serving path.
  StopwatchNs watch;
  sides.before = RunAnchored(live, scan, seeds, is_anchor, workers, st);
  sides.detect_ns = watch.ElapsedNs();
  if (!apply()) return std::nullopt;
  watch.Restart();
  sides.after = RunAnchored(live, scan, seeds, is_anchor, workers, st);
  sides.detect_ns += watch.ElapsedNs();
  const double detect_s = static_cast<double>(sides.detect_ns) * 1e-9;
  DetectIncrementalLatency().Observe(detect_s);
  sides.stats.violations_before = sides.before.size();
  sides.stats.violations_after = sides.after.size();
  sides.stats.anchors_scanned = st.pivots.load();
  sides.stats.matches_seen = st.matches.load();
  sides.stats.literal_evals = st.literal_evals.load();
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
          },
          opts.match);
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
