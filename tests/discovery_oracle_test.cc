// Discovery oracle: SeqDis and ParDis against a brute-force reference that
// follows the definitions of Sections 4.1-4.3 and never touches the
// miners' machinery (no generation tree, PatternProfile or lattice).
//
// Per seed, a random graph of at most 12 nodes. The reference
//   - grows every connected pattern of at most k nodes and k^2 edges from
//     the single-node patterns, one edge at a time from patterns with
//     support >= sigma (concrete edges over triples seen >= sigma times;
//     with wildcard upgrades also all-wildcard patterns over the diverse
//     edge labels), deduplicated by CanonicalCode;
//   - takes each pattern's literal space from BuildLiteralPoolFromMatches
//     over constants counted from its matches, with caps that do not bind;
//   - decides support, satisfaction and triviality by definition
//     (CountSupportingPivots, SatisfiesGfd, IsTrivialGfd);
//   - collects every valid non-trivial GFD with |X| <= max_lhs_size and
//     support >= sigma, the negatives Q(∅ -> false) of zero-support
//     patterns with a frequent parent, and the negatives X ∪ {b} of the
//     lattice's bases that no match satisfies but some match observes
//     (the OWA gate);
//   - keeps the <<-minimal elements of each set (GfdReduces).
// The miners must return the same GFDs, up to variable renaming, with the
// same supports, and their covers must imply each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/cover.h"
#include "core/literal_pool.h"
#include "core/seqdis.h"
#include "gfd/problems.h"
#include "gfd/validation.h"
#include "parallel/parcover.h"
#include "parallel/pardis.h"
#include "pattern/canonical.h"
#include "util/rng.h"

namespace gfd {
namespace {

// A random graph: 9-12 nodes over 2-3 labels, two edge labels, and two
// attributes with three values each. Attributes are sometimes missing
// (so the OWA gate matters) and correlated with the label and with each
// other (so there are rules to find).
PropertyGraph RandomGraph(uint64_t seed) {
  Rng rng(seed);
  PropertyGraph::Builder b;
  const size_t n = 9 + rng.Below(4);
  const size_t labels = 2 + rng.Below(2);
  constexpr const char* kLabels[] = {"A", "B", "C"};
  constexpr const char* kValues[] = {"0", "1", "2"};
  for (size_t i = 0; i < n; ++i) {
    const size_t l = rng.Below(labels);
    NodeId v = b.AddNode(kLabels[l]);
    size_t p = rng.Chance(0.6) ? l : rng.Below(3);
    if (rng.Chance(0.8)) b.SetAttr(v, "p", kValues[p]);
    if (rng.Chance(0.7)) {
      b.SetAttr(v, "q", kValues[rng.Chance(0.6) ? p : rng.Below(3)]);
    }
  }
  std::set<std::tuple<NodeId, NodeId, int>> edges;
  const size_t m = n + rng.Below(n);
  for (size_t i = 0; i < m; ++i) {
    NodeId s = rng.Below(n), d = rng.Below(n);
    int l = static_cast<int>(rng.Below(2));
    if (s == d || !edges.insert({s, d, l}).second) continue;
    b.AddEdge(s, d, l == 0 ? "e" : "f");
  }
  return std::move(b).Build();
}

bool MoreFrequent(const VarConstFreq& l, const VarConstFreq& r) {
  return l.count > r.count;
}

// Maps a literal through a variable renaming.
Literal Rename(const Literal& l, const std::vector<VarId>& to) {
  switch (l.kind) {
    case LiteralKind::kFalse:
      return l;
    case LiteralKind::kVarConst:
      return Literal::Const(to[l.x], l.a, l.c);
    case LiteralKind::kVarVar:
      return Literal::Vars(to[l.x], l.a, to[l.y], l.b);
  }
  return l;
}

// A key equal for two GFDs iff one is the other with its variables
// renamed (pivot to pivot): the least encoding over all renamings that
// send the pivot to 0. Patterns here have at most 3 variables.
std::string GfdKey(const Gfd& phi) {
  const Pattern& q = phi.pattern;
  std::vector<VarId> perm(q.NumNodes());
  std::iota(perm.begin(), perm.end(), VarId{0});
  std::string best;
  do {
    if (perm[q.pivot()] != 0) continue;
    std::string key;
    auto put = [&key](uint64_t x) { key += std::to_string(x) + ','; };
    auto put_literal = [&put](const Literal& l) {
      put(static_cast<uint64_t>(l.kind));
      put(l.x);
      put(l.a);
      put(l.y);
      put(l.b);
      put(l.c);
    };
    std::vector<LabelId> labels(q.NumNodes());
    for (VarId v = 0; v < q.NumNodes(); ++v) labels[perm[v]] = q.NodeLabel(v);
    for (LabelId l : labels) put(l);
    key += '|';
    std::vector<std::tuple<VarId, VarId, LabelId>> edges;
    for (const auto& e : q.edges()) {
      edges.emplace_back(perm[e.src], perm[e.dst], e.label);
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& [src, dst, label] : edges) {
      put(src);
      put(dst);
      put(label);
    }
    key += '|';
    std::vector<Literal> lhs;
    for (const auto& l : phi.lhs) lhs.push_back(Rename(l, perm));
    NormalizeLhs(lhs);
    for (const auto& l : lhs) put_literal(l);
    key += '|';
    put_literal(Rename(phi.rhs, perm));
    if (best.empty() || key < best) best = key;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

// The reference's answer: per GFD key, the supports of its GFDs
// (isomorphic duplicates, from automorphic literals, are separate GFDs),
// sorted. A positive's support is |Q(G, X ∪ {l}, z)|. A negative's is the
// maximum over its bases (Section 4.2): over the frequent parents for
// Q(∅ -> false), and over the bases X -> l that spawn X' = X ∪ {b}.
using Expectation = std::map<std::string, std::vector<uint64_t>>;
struct Expected {
  Expectation positives;
  Expectation negatives;
  std::map<std::string, std::string> text;  // key -> a rendering
  std::vector<Gfd> all;
};

class Reference {
 public:
  Reference(const PropertyGraph& g, const DiscoveryConfig& cfg)
      : g_(g), cfg_(cfg) {}

  Expected Run() {
    CollectVocabulary();
    GrowPatterns();
    for (const Entry& entry : patterns_) {
      if (entry.support >= cfg_.support_threshold) {
        MineLiterals(entry.q);
      } else if (entry.support == 0 && cfg_.discover_negative) {
        AddPatternNegative(entry.q);
      }
    }
    Expected out;
    for (const auto& [phi, supp] : Minimal(positives_)) {
      out.positives[GfdKey(phi)].push_back(supp);
      out.text[GfdKey(phi)] = phi.ToString(g_);
      out.all.push_back(phi);
    }
    for (const auto& [phi, supp] : Minimal(negatives_)) {
      out.negatives[GfdKey(phi)].push_back(supp);
      out.text[GfdKey(phi)] = phi.ToString(g_);
      out.all.push_back(phi);
    }
    return out;
  }

 private:
  struct Entry {
    Pattern q;
    uint64_t support;
  };
  using Found = std::pair<Gfd, uint64_t>;

  // Frequent triples, diverse edge labels, and the active attributes.
  void CollectVocabulary() {
    std::map<std::tuple<LabelId, LabelId, LabelId>, uint64_t> triples;
    std::map<LabelId, std::set<std::pair<LabelId, LabelId>>> pairs;
    for (EdgeId e = 0; e < g_.NumEdges(); ++e) {
      const LabelId s = g_.NodeLabel(g_.EdgeSrc(e));
      const LabelId d = g_.NodeLabel(g_.EdgeDst(e));
      ++triples[{s, g_.EdgeLabel(e), d}];
      pairs[g_.EdgeLabel(e)].insert({s, d});
    }
    for (const auto& [t, count] : triples) {
      if (count >= cfg_.support_threshold) frequent_triples_.insert(t);
      edge_labels_.insert(std::get<1>(t));
    }
    for (const auto& [l, p] : pairs) {
      if (p.size() >= cfg_.wildcard_min_pairs) wildcard_edges_.insert(l);
    }
    for (NodeId v = 0; v < g_.NumNodes(); ++v) {
      ++label_counts_[g_.NodeLabel(v)];
      for (const auto& attr : g_.NodeAttrs(v)) gamma_.insert(attr.key);
    }
  }

  // Every pattern reachable from a single node by adding one edge at a
  // time to patterns with support >= sigma.
  void GrowPatterns() {
    std::vector<Pattern> level;
    for (const auto& [l, count] : label_counts_) {
      if (count >= cfg_.support_threshold) {
        level.push_back(SingleNodePattern(l));
      }
    }
    if (cfg_.wildcard_upgrades) {
      level.push_back(SingleNodePattern(kWildcardLabel));
    }
    for (const Pattern& p : level) Add(p);
    for (size_t edges = 1; edges <= cfg_.k * cfg_.k; ++edges) {
      std::vector<Pattern> next;
      for (const Pattern& p : level) {
        if (Support(p) < cfg_.support_threshold) continue;
        for (Pattern& c : Children(p)) {
          if (Add(c)) next.push_back(std::move(c));
        }
      }
      level = std::move(next);
    }
  }

  uint64_t Support(const Pattern& q) const {
    return patterns_[by_code_.at(CanonicalCode(q))].support;
  }

  bool Add(const Pattern& q) {
    const auto code = CanonicalCode(q);
    if (by_code_.count(code)) return false;
    by_code_[code] = patterns_.size();
    const uint64_t support = CountSupportingPivots(g_, CompiledPattern(q), {});
    patterns_.push_back({q, support});
    return true;
  }

  bool Wild(const Pattern& q) const {
    return q.NodeLabel(q.pivot()) == kWildcardLabel;
  }

  static bool HasEdge(const Pattern& q, const PatternEdge& edge) {
    const auto& edges = q.edges();
    return std::find(edges.begin(), edges.end(), edge) != edges.end();
  }

  // May an edge src -label-> dst appear in a pattern of q's family?
  bool EdgeAllowed(const Pattern& q, LabelId src, LabelId label,
                   LabelId dst) const {
    return Wild(q) ? wildcard_edges_.count(label) > 0
                   : frequent_triples_.count({src, label, dst}) > 0;
  }

  // One more edge: between two variables, or to/from a fresh one.
  std::vector<Pattern> Children(const Pattern& q) const {
    std::vector<LabelId> fresh_labels;
    if (Wild(q)) {
      fresh_labels.push_back(kWildcardLabel);
    } else {
      for (const auto& [l, count] : label_counts_) fresh_labels.push_back(l);
    }
    std::vector<Pattern> out;
    const VarId n = static_cast<VarId>(q.NumNodes());
    for (LabelId e : edge_labels_) {
      for (VarId u = 0; u < n; ++u) {
        for (VarId v = 0; v < n; ++v) {
          if (u == v || HasEdge(q, {u, v, e})) continue;
          if (!EdgeAllowed(q, q.NodeLabel(u), e, q.NodeLabel(v))) continue;
          out.push_back(q);
          out.back().AddEdge(u, v, e);
        }
        if (n >= cfg_.k) continue;
        for (LabelId l : fresh_labels) {
          for (bool out_edge : {true, false}) {
            const LabelId src = out_edge ? q.NodeLabel(u) : l;
            const LabelId dst = out_edge ? l : q.NodeLabel(u);
            if (!EdgeAllowed(q, src, e, dst)) continue;
            Pattern c = q;
            const VarId w = c.AddNode(l);
            c.AddEdge(out_edge ? u : w, out_edge ? w : u, e);
            out.push_back(std::move(c));
          }
        }
      }
    }
    return out;
  }

  // The patterns q grows from: q minus one edge, minus the non-pivot
  // node that edge alone attached, when the rest stays connected.
  static std::vector<Pattern> Parents(const Pattern& q) {
    std::vector<Pattern> out;
    for (size_t i = 0; i < q.NumEdges(); ++i) {
      std::vector<size_t> degree(q.NumNodes(), 0);
      for (size_t j = 0; j < q.NumEdges(); ++j) {
        if (j == i) continue;
        ++degree[q.edges()[j].src];
        ++degree[q.edges()[j].dst];
      }
      std::vector<VarId> keep_as(q.NumNodes(), kNoVar);
      Pattern p;
      for (VarId v = 0; v < q.NumNodes(); ++v) {
        if (degree[v] > 0 || v == q.pivot()) {
          keep_as[v] = p.AddNode(q.NodeLabel(v));
        }
      }
      for (size_t j = 0; j < q.NumEdges(); ++j) {
        if (j == i) continue;
        const auto& e = q.edges()[j];
        p.AddEdge(keep_as[e.src], keep_as[e.dst], e.label);
      }
      p.set_pivot(keep_as[q.pivot()]);
      if (p.IsConnected()) out.push_back(std::move(p));
    }
    return out;
  }

  // NVSpawn's negative Q(∅ -> false) of a zero-support pattern, with the
  // support of its most supported frequent parent.
  void AddPatternNegative(const Pattern& q) {
    uint64_t base = 0;
    for (const Pattern& p : Parents(q)) {
      auto it = by_code_.find(CanonicalCode(p));
      if (it == by_code_.end()) continue;
      const uint64_t s = patterns_[it->second].support;
      if (s >= cfg_.support_threshold) base = std::max(base, s);
    }
    if (base > 0) negatives_.push_back({Gfd(q, {}, Literal::False()), base});
  }

  // The lattice's search space on one pattern with support >= sigma.
  void MineLiterals(const Pattern& q) {
    const CompiledPattern cq(q);
    std::vector<Match> matches;
    cq.ForEachMatch(g_, [&](const Match& m) {
      matches.push_back(m);
      return true;
    });
    // Constants among the matches, as the pool builder expects them.
    std::map<std::tuple<VarId, AttrId, ValueId>, uint64_t> counts;
    for (const Match& m : matches) {
      for (VarId v = 0; v < m.size(); ++v) {
        for (AttrId a : gamma_) {
          if (auto c = g_.GetAttr(m[v], a)) ++counts[{v, a, *c}];
        }
      }
    }
    std::vector<VarConstFreq> constants;
    for (const auto& [key, count] : counts) {
      const auto& [v, a, c] = key;
      constants.push_back({v, a, c, count});
    }
    std::stable_sort(constants.begin(), constants.end(), MoreFrequent);
    const std::vector<AttrId> gamma(gamma_.begin(), gamma_.end());
    const auto pool = BuildLiteralPoolFromMatches(q, gamma, constants, cfg_);
    const size_t var_pairs = q.NumNodes() * (q.NumNodes() - 1) / 2;
    ASSERT_LT(pool.size(), DiscoveryConfig::kMaxPool);
    ASSERT_EQ(pool.size(), counts.size() + var_pairs * gamma.size())
        << "a pool cap binds";

    const uint64_t sigma = cfg_.support_threshold;
    std::map<std::vector<size_t>, uint64_t> supp_memo;
    auto lits = [&](const std::vector<size_t>& bits) {
      std::vector<Literal> out;
      for (size_t b : bits) out.push_back(pool[b]);
      return out;
    };
    auto supp = [&](std::vector<size_t> bits) {
      std::sort(bits.begin(), bits.end());
      auto it = supp_memo.find(bits);
      if (it != supp_memo.end()) return it->second;
      return supp_memo[bits] = CountSupportingPivots(g_, cq, lits(bits));
    };
    std::vector<size_t> usable;  // literals the lattice may combine
    for (size_t b = 0; b < pool.size(); ++b) {
      const uint64_t s = supp({b});
      if (cfg_.prune ? s >= sigma : s > 0) usable.push_back(b);
    }
    // LHS sets over `usable`, by size, each in ascending bit order.
    std::vector<std::vector<size_t>> lhs_sets = {{}};
    for (size_t i = 0; i < lhs_sets.size(); ++i) {
      if (lhs_sets[i].size() == cfg_.max_lhs_size) continue;
      for (size_t b : usable) {
        if (!lhs_sets[i].empty() && b <= lhs_sets[i].back()) continue;
        lhs_sets.push_back(lhs_sets[i]);
        lhs_sets.back().push_back(b);
      }
    }

    // Valid, non-trivial, frequent GFDs X -> l (lattice order: RHS bit,
    // then X); under pruning, a base for negatives must also have no
    // valid proper subset of X (the lattice stops a satisfied branch).
    struct Valid {
      size_t rhs;
      std::vector<size_t> lhs;
      uint64_t supp;
    };
    std::vector<Valid> valid;
    for (size_t r : usable) {
      for (const auto& x : lhs_sets) {
        if (std::count(x.begin(), x.end(), r)) continue;
        std::vector<size_t> xl = x;
        xl.push_back(r);
        const uint64_t s = supp(xl);
        if (s < sigma) continue;
        Gfd phi(q, lits(x), pool[r]);
        if (IsTrivialGfd(phi) || !SatisfiesGfd(g_, phi)) continue;
        valid.push_back({r, x, s});
        positives_.push_back({std::move(phi), s});
      }
    }
    if (!cfg_.discover_negative) return;
    std::map<std::vector<size_t>, uint64_t> spawned;
    for (const Valid& base : valid) {
      if (base.lhs.size() + 1 > cfg_.max_negative_lhs_size) continue;
      const std::vector<size_t>& x = base.lhs;
      bool minimal = true;
      for (const Valid& v : valid) {
        const std::vector<size_t>& y = v.lhs;
        if (v.rhs != base.rhs || y.size() >= x.size()) continue;
        if (std::includes(x.begin(), x.end(), y.begin(), y.end())) {
          minimal = false;
        }
      }
      if (cfg_.prune && !minimal) continue;
      for (size_t b : usable) {
        if (b == base.rhs || std::count(x.begin(), x.end(), b)) continue;
        std::vector<size_t> x2 = x;
        x2.push_back(b);
        std::sort(x2.begin(), x2.end());
        if (supp(x2) > 0 || !Observed(matches, lits(x2))) continue;
        if (IsTrivialGfd(Gfd(q, lits(x2), Literal::False()))) continue;
        spawned[x2] = std::max(spawned[x2], base.supp);
      }
    }
    for (const auto& [x2, supp] : spawned) {
      negatives_.push_back({Gfd(q, lits(x2), Literal::False()), supp});
    }
  }

  // OWA: some match has every attribute `x2` reads.
  bool Observed(const std::vector<Match>& matches,
                const std::vector<Literal>& x2) const {
    for (const Match& m : matches) {
      bool present = true;
      for (const Literal& l : x2) {
        if (!g_.GetAttr(m[l.x], l.a)) present = false;
        if (l.kind == LiteralKind::kVarVar && !g_.GetAttr(m[l.y], l.b)) {
          present = false;
        }
      }
      if (present) return true;
    }
    return false;
  }

  // The <<-minimal elements. phi1 << phi2 maps l1 onto l2, so only GFDs
  // whose consequences agree on kind, attributes and constant are compared.
  static std::vector<Found> Minimal(const std::vector<Found>& all) {
    auto shape = [](const Literal& l) {
      return std::tuple(l.kind, std::min(l.a, l.b), std::max(l.a, l.b), l.c);
    };
    std::map<decltype(shape(Literal{})), std::vector<const Gfd*>> by_rhs;
    for (const auto& [phi, supp] : all) {
      by_rhs[shape(phi.rhs)].push_back(&phi);
    }
    std::vector<Found> out;
    for (const auto& found : all) {
      bool reduced = false;
      for (const Gfd* psi : by_rhs[shape(found.first.rhs)]) {
        reduced = reduced || GfdReduces(*psi, found.first);
      }
      if (!reduced) out.push_back(found);
    }
    return out;
  }

  const PropertyGraph& g_;
  const DiscoveryConfig cfg_;
  std::set<std::tuple<LabelId, LabelId, LabelId>> frequent_triples_;
  std::set<LabelId> edge_labels_;
  std::set<LabelId> wildcard_edges_;
  std::map<LabelId, uint64_t> label_counts_;
  std::set<AttrId> gamma_;
  std::map<std::vector<uint32_t>, size_t> by_code_;
  std::vector<Entry> patterns_;
  std::vector<Found> positives_;
  std::vector<Found> negatives_;
};

// Checks a miner's GFDs against the reference's, key by key.
void ExpectMatches(const Expectation& expected, const std::vector<Gfd>& gfds,
                   const std::vector<uint64_t>& supports, const Expected& ref,
                   const PropertyGraph& g) {
  std::map<std::string, std::vector<uint64_t>> got;
  std::map<std::string, std::string> text;
  for (size_t i = 0; i < gfds.size(); ++i) {
    const std::string key = GfdKey(gfds[i]);
    got[key].push_back(supports[i]);
    text[key] = gfds[i].ToString(g);
  }
  for (auto& [key, supps] : got) {
    auto it = expected.find(key);
    if (it == expected.end()) {
      ADD_FAILURE() << "not in the reference: " << text[key];
      continue;
    }
    std::vector<uint64_t> want = it->second;
    std::sort(supps.begin(), supps.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(supps, want) << ref.text.at(key);
  }
  for (const auto& [key, supps] : expected) {
    EXPECT_TRUE(got.count(key)) << "missed: " << ref.text.at(key);
  }
}

void ExpectCoversEquivalent(const std::vector<Gfd>& ca,
                            const std::vector<Gfd>& cb,
                            const PropertyGraph& g) {
  for (const Gfd& phi : ca) EXPECT_TRUE(Implies(cb, phi)) << phi.ToString(g);
  for (const Gfd& phi : cb) EXPECT_TRUE(Implies(ca, phi)) << phi.ToString(g);
}

void CheckSeed(int seed, bool prune, bool wildcards) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << ", prune " << prune
                                    << ", wildcards " << wildcards);
  const PropertyGraph g = RandomGraph(static_cast<uint64_t>(seed) * 7919 + 13);
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 2 + seed % 2;
  cfg.prune = prune;
  cfg.wildcard_upgrades = wildcards;
  const Expected ref = Reference(g, cfg).Run();
  if (::testing::Test::HasFatalFailure()) return;
  // The reference cover tests every GFD against all live ones (the
  // ungrouped ablation at one worker), so the miners' grouped covers are
  // not checked against the grouped elimination itself.
  const std::vector<Gfd> ref_cover =
      ParCoverNoGrouping(ref.all, {.workers = 1});

  auto check = [&](const DiscoveryResult& r) {
    EXPECT_FALSE(r.stats.level_cap_hit);
    EXPECT_FALSE(r.stats.budget_exceeded);
    ExpectMatches(ref.positives, r.positives, r.positive_supports, ref, g);
    ExpectMatches(ref.negatives, r.negatives, r.negative_supports, ref, g);
    ExpectCoversEquivalent(SeqCover(r.AllGfds()), ref_cover, g);
  };
  {
    SCOPED_TRACE("SeqDis");
    check(SeqDis(g, cfg));
  }
  for (bool balance : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "ParDis, 3 workers, balance "
                                      << balance);
    check(ParDis(g, cfg, {.workers = 3, .load_balance = balance}));
  }
}

class DiscoveryOracle : public ::testing::TestWithParam<int> {};

TEST_P(DiscoveryOracle, PrunedMinersEqualReference) {
  CheckSeed(GetParam(), /*prune=*/true, /*wildcards=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryOracle, ::testing::Range(0, 25));

TEST(DiscoveryOracleVariants, UnprunedMinersEqualReference) {
  for (int seed = 100; seed < 104; ++seed) CheckSeed(seed, false, false);
}

TEST(DiscoveryOracleVariants, WildcardUpgradesEqualReference) {
  for (int seed = 200; seed < 206; ++seed) CheckSeed(seed, true, true);
}

}  // namespace
}  // namespace gfd
