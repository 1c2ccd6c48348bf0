#include "match/matcher.h"

#include <algorithm>
#include <cassert>

namespace gfd {

CompiledPattern::CompiledPattern(const Pattern& q, VarId second)
    : pattern_(q) {
  assert(q.NumNodes() > 0);
  assert(q.IsConnected());
#ifndef NDEBUG
  if (second != kNoVar) {
    const std::vector<VarId> adjacent = q.Neighbors(q.pivot());
    assert(second != q.pivot());
    assert(std::ranges::find(adjacent, second) != adjacent.end());
  }
#endif
  const size_t n = q.NumNodes();

  // Degree lower bounds per variable: the number of *distinct* out/in
  // neighbor variables. Distinct neighbor variables map to distinct graph
  // nodes, each needing its own graph edge; multiple pattern edges to the
  // same variable (e.g. wildcard + concrete label) can be witnessed by a
  // single graph edge, so counting raw pattern edges would be unsound.
  std::vector<uint32_t> out_deg(n, 0), in_deg(n, 0);
  for (VarId v = 0; v < n; ++v) {
    std::vector<VarId> outs, ins;
    for (const auto& e : q.edges()) {
      if (e.src == v) outs.push_back(e.dst);
      if (e.dst == v) ins.push_back(e.src);
    }
    auto distinct = [](std::vector<VarId>& vars) {
      std::sort(vars.begin(), vars.end());
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
      return static_cast<uint32_t>(vars.size());
    };
    out_deg[v] = distinct(outs);
    in_deg[v] = distinct(ins);
  }

  // Greedy ordering: pivot first (then `second`, when given), then
  // repeatedly pick the unbound variable with the most edges into the
  // bound set (most constrained candidate generation). Pattern
  // connectivity guarantees an anchor always exists.
  std::vector<bool> bound(n, false);
  std::vector<VarId> order;
  order.reserve(n);
  order.push_back(q.pivot());
  bound[q.pivot()] = true;
  if (second != kNoVar) {
    order.push_back(second);
    bound[second] = true;
  }
  while (order.size() < n) {
    VarId best = kNoVar;
    int best_score = -1;
    for (VarId v = 0; v < n; ++v) {
      if (bound[v]) continue;
      int score = 0;
      for (const auto& e : q.edges()) {
        if ((e.src == v && bound[e.dst]) || (e.dst == v && bound[e.src])) {
          ++score;
        }
      }
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    assert(best != kNoVar && best_score > 0);
    order.push_back(best);
    bound[best] = true;
  }

  // Build per-step plans.
  std::vector<bool> done(n, false);
  steps_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Step s;
    s.var = order[i];
    s.label = q.NodeLabel(s.var);
    s.anchor = kNoVar;
    s.anchor_out = false;
    s.anchor_label = kWildcardLabel;
    s.min_out_deg = out_deg[s.var];
    s.min_in_deg = in_deg[s.var];
    // Pick one incident edge to a done variable as the candidate
    // generator, preferring a concrete edge label over a wildcard one (a
    // labeled adjacency walk generates strictly fewer candidates, and
    // every demoted edge is re-verified as a check, so the preference
    // only changes enumeration order, never the match set); all other
    // incident edges to done variables become checks.
    VarId anchor_var = kNoVar;
    bool anchor_src_is_var = false;
    LabelId anchor_edge_label = kWildcardLabel;
    for (const auto& e : q.edges()) {
      bool src_is_var = (e.src == s.var), dst_is_var = (e.dst == s.var);
      if ((!src_is_var && !dst_is_var) || (src_is_var && dst_is_var)) continue;
      VarId other = src_is_var ? e.dst : e.src;
      if (!done[other]) continue;
      if (anchor_var == kNoVar ||
          (anchor_edge_label == kWildcardLabel &&
           e.label != kWildcardLabel)) {
        anchor_var = other;
        anchor_src_is_var = src_is_var;
        anchor_edge_label = e.label;
      }
    }
    bool anchor_taken = false;
    for (const auto& e : q.edges()) {
      bool src_is_var = (e.src == s.var), dst_is_var = (e.dst == s.var);
      if (!src_is_var && !dst_is_var) continue;
      if (src_is_var && dst_is_var) {
        // Self-loop: verified directly on the candidate node.
        s.checks.push_back({s.var, true, e.label});
        continue;
      }
      VarId other = src_is_var ? e.dst : e.src;
      if (!done[other]) continue;  // verified when `other` gets bound later
      if (!anchor_taken && other == anchor_var &&
          src_is_var == anchor_src_is_var && e.label == anchor_edge_label) {
        s.anchor = other;
        s.anchor_out = !src_is_var;  // anchor(other) -> var if var is dst
        s.anchor_label = e.label;
        anchor_taken = true;
      } else {
        s.checks.push_back({other, src_is_var, e.label});  // var -> other
      }
    }
    done[s.var] = true;
    steps_.push_back(std::move(s));
  }
}

template <typename GraphT>
inline bool CompiledPattern::Extends(const GraphT& g, const Step& s,
                                     NodeId cand, const Match& h) const {
  // Cheapest filters first: one label load, two degree loads, then the
  // injectivity scan, then per-check adjacency probes.
  if (!LabelMatches(g.NodeLabel(cand), s.label)) return false;
  if (g.OutDegree(cand) < s.min_out_deg || g.InDegree(cand) < s.min_in_deg) {
    return false;
  }
  // Injectivity: patterns are tiny, so scanning h (its unbound slots
  // hold kNoNode, which no candidate equals) beats a per-call |V|-sized
  // bitset by orders of magnitude.
  if (std::find(h.begin(), h.end(), cand) != h.end()) return false;
  for (const auto& c : s.checks) {
    NodeId other = (c.other == s.var) ? cand : h[c.other];
    bool ok = c.out ? g.HasEdge(cand, other, c.label)
                    : g.HasEdge(other, cand, c.label);
    if (!ok) return false;
  }
  return true;
}

template <typename GraphT>
bool CompiledPattern::Backtrack(
    const GraphT& g, size_t depth, Match& h,
    const std::function<bool(const Match&)>& on_match,
    const MatchOptions& opts, MatchCounters& counters, bool& stop) const {
  if (depth == steps_.size()) {
    ++counters.matches_found;
    if (!on_match(h)) stop = true;
    return true;
  }
  const Step& s = steps_[depth];

  auto try_candidate = [&](NodeId cand) {
    if (++counters.steps > opts.max_steps) {
      counters.budget_exhausted = true;
      stop = true;
      return;
    }
    if (!Extends(g, s, cand, h)) return;
    h[s.var] = cand;
    Backtrack(g, depth + 1, h, on_match, opts, counters, stop);
    h[s.var] = kNoNode;
  };

  // Only the pivot step lacks an anchor, and the pivot is pre-bound by
  // ForEachMatchAtPivot.
  assert(s.anchor != kNoVar);

  NodeId a = h[s.anchor];
  NodeId prev = kNoNode;
  if (s.anchor_out) {
    for (EdgeId e : g.OutEdges(a)) {
      if (!LabelMatches(g.EdgeLabel(e), s.anchor_label)) continue;
      NodeId cand = g.EdgeDst(e);
      if (cand == prev) continue;  // parallel edges: skip duplicate target
      prev = cand;
      try_candidate(cand);
      if (stop) return true;
    }
  } else {
    for (EdgeId e : g.InEdges(a)) {
      if (!LabelMatches(g.EdgeLabel(e), s.anchor_label)) continue;
      NodeId cand = g.EdgeSrc(e);
      if (cand == prev) continue;
      prev = cand;
      try_candidate(cand);
      if (stop) return true;
    }
  }
  return true;
}

template <typename GraphT>
bool CompiledPattern::ForEachMatchAtPivot(
    const GraphT& g, NodeId v,
    const std::function<bool(const Match&)>& on_match,
    const MatchOptions& opts, MatchCounters* counters) const {
  MatchCounters local;
  MatchCounters& ctr = counters ? *counters : local;
  const Step& s0 = steps_[0];
  if (!AdmitsPivot(g, v)) return true;
  for (const auto& c : s0.checks) {
    // Pivot-step checks are self-loops only.
    if (!g.HasEdge(v, v, c.label)) return true;
  }
  Match h(pattern_.NumNodes(), kNoNode);
  h[s0.var] = v;
  bool stop = false;
  if (steps_.size() == 1) {
    ++ctr.matches_found;
    on_match(h);
    return true;
  }
  Backtrack(g, 1, h, on_match, opts, ctr, stop);
  return !ctr.budget_exhausted;
}

template <typename GraphT>
bool CompiledPattern::ForEachMatchAtPair(
    const GraphT& g, NodeId a, NodeId b,
    const std::function<bool(const Match&)>& on_match,
    const MatchOptions& opts, MatchCounters* counters) const {
  assert(steps_.size() > 1);
  MatchCounters local;
  MatchCounters& ctr = counters ? *counters : local;
  const Step& s0 = steps_[0];
  const Step& s1 = steps_[1];
  if (!AdmitsPivot(g, a)) return true;
  for (const auto& c : s0.checks) {
    if (!g.HasEdge(a, a, c.label)) return true;
  }
  Match h(pattern_.NumNodes(), kNoNode);
  h[s0.var] = a;
  // b skips the adjacency walk from a, so the anchor edge is probed too.
  if (++ctr.steps > opts.max_steps) {
    ctr.budget_exhausted = true;
    return false;
  }
  const bool anchored = s1.anchor_out ? g.HasEdge(a, b, s1.anchor_label)
                                      : g.HasEdge(b, a, s1.anchor_label);
  if (!anchored || !Extends(g, s1, b, h)) return true;
  h[s1.var] = b;
  bool stop = false;
  Backtrack(g, 2, h, on_match, opts, ctr, stop);
  return !ctr.budget_exhausted;
}

template <typename GraphT>
bool CompiledPattern::ForEachMatch(
    const GraphT& g, const std::function<bool(const Match&)>& on_match,
    const MatchOptions& opts, MatchCounters* counters) const {
  MatchCounters local;
  MatchCounters& ctr = counters ? *counters : local;
  bool aborted = false;
  auto wrapper = [&](const Match& m) {
    if (!on_match(m)) {
      aborted = true;
      return false;
    }
    return true;
  };
  for (NodeId v : PivotCandidates(g)) {
    if (!ForEachMatchAtPivot(g, v, wrapper, opts, &ctr)) return false;
    if (aborted) break;
  }
  return !ctr.budget_exhausted;
}

template <typename GraphT>
std::vector<NodeId> CompiledPattern::PivotCandidates(const GraphT& g) const {
  // Filtering drops only nodes ForEachMatchAtPivot would reject before
  // enumerating anything: it changes which pivots get scanned, never the
  // match set.
  std::vector<NodeId> out;
  if (PivotLabel() != kWildcardLabel) {
    auto span = g.NodesWithLabel(PivotLabel());
    out.reserve(span.size());
    for (NodeId v : span) {
      if (AdmitsPivot(g, v)) out.push_back(v);
    }
    return out;
  }
  out.reserve(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (AdmitsPivot(g, v)) out.push_back(v);
  }
  return out;
}

// Instantiate the enumeration for the immutable CSR graph and for the
// delta-overlay view (see the extern declarations in matcher.h).
#define GFD_INSTANTIATE_MATCHER(GraphT)                                      \
  template bool CompiledPattern::ForEachMatchAtPivot<GraphT>(                \
      const GraphT&, NodeId, const std::function<bool(const Match&)>&,       \
      const MatchOptions&, MatchCounters*) const;                            \
  template bool CompiledPattern::ForEachMatchAtPair<GraphT>(                 \
      const GraphT&, NodeId, NodeId,                                         \
      const std::function<bool(const Match&)>&, const MatchOptions&,         \
      MatchCounters*) const;                                                 \
  template bool CompiledPattern::ForEachMatch<GraphT>(                       \
      const GraphT&, const std::function<bool(const Match&)>&,               \
      const MatchOptions&, MatchCounters*) const;                            \
  template std::vector<NodeId> CompiledPattern::PivotCandidates<GraphT>(     \
      const GraphT&) const;

GFD_INSTANTIATE_MATCHER(PropertyGraph)
GFD_INSTANTIATE_MATCHER(GraphView)
#undef GFD_INSTANTIATE_MATCHER

std::vector<NodeId> PivotSupportSet(const PropertyGraph& g,
                                    const CompiledPattern& q,
                                    const MatchOptions& opts) {
  std::vector<NodeId> out;
  for (NodeId v : q.PivotCandidates(g)) {
    bool found = false;
    q.ForEachMatchAtPivot(
        g, v,
        [&found](const Match&) {
          found = true;
          return false;  // one match per pivot suffices
        },
        opts);
    if (found) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t PatternSupport(const PropertyGraph& g, const CompiledPattern& q,
                        const MatchOptions& opts) {
  return PivotSupportSet(g, q, opts).size();
}

bool HasAnyMatch(const PropertyGraph& g, const CompiledPattern& q,
                 const MatchOptions& opts) {
  for (NodeId v : q.PivotCandidates(g)) {
    bool found = false;
    q.ForEachMatchAtPivot(
        g, v,
        [&found](const Match&) {
          found = true;
          return false;
        },
        opts);
    if (found) return true;
  }
  return false;
}

uint64_t CountMatches(const PropertyGraph& g, const CompiledPattern& q,
                      const MatchOptions& opts) {
  uint64_t count = 0;
  q.ForEachMatch(
      g,
      [&count](const Match&) {
        ++count;
        return true;
      },
      opts);
  return count;
}

}  // namespace gfd
