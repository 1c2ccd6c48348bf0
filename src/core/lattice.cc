#include "core/lattice.h"

#include <algorithm>

#include "gfd/problems.h"

namespace gfd {

namespace {

RhsSig SignatureOf(const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kFalse:
      return {0, 0, 0, 0};
    case LiteralKind::kVarConst:
      return {1, l.a, 0, l.c};
    case LiteralKind::kVarVar:
      return {2, std::min(l.a, l.b), std::max(l.a, l.b), 0};
  }
  return {0, 0, 0, 0};
}

// Expands a bitset over `pool` into the corresponding literal vector.
std::vector<Literal> LitsOfMask(const LitMask& mask,
                                const std::vector<Literal>& pool) {
  std::vector<Literal> lits;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (mask.test(i)) lits.push_back(pool[i]);
  }
  return lits;
}

}  // namespace

bool LiteralLatticeMiner::ChargeCandidate() {
  ++result_.stats.candidates_generated;
  if (result_.stats.candidates_generated > cfg_.candidate_budget) {
    result_.stats.budget_exceeded = true;
    return false;
  }
  return true;
}

bool LiteralLatticeMiner::MinePattern(int pattern_key, const Pattern& pattern,
                                      const std::vector<Literal>& pool,
                                      const PatternProfile& profile) {
  return MinePattern(pattern_key, pattern, pool,
                     [&profile](std::span<const LatticeQuery> batch) {
                       std::vector<LatticeAnswer> answers;
                       answers.reserve(batch.size());
                       for (const auto& q : batch) {
                         answers.push_back(profile.Answer(q));
                       }
                       return answers;
                     });
}

bool LiteralLatticeMiner::MinePattern(int pattern_key, const Pattern& pattern,
                                      const std::vector<Literal>& pool,
                                      const RowSource& rows) {
  // Literal-level anti-monotonicity: a literal whose own pivot support is
  // below sigma can never appear in a sigma-frequent GFD. With pruning
  // disabled (ParGFDn), fall back to mere witnessing.
  std::vector<LatticeQuery> singles(pool.size());
  for (size_t b = 0; b < pool.size(); ++b) singles[b].mask.set(b);
  const auto single_answers = rows(singles);
  LitMask usable;
  for (size_t b = 0; b < pool.size(); ++b) {
    if (cfg_.prune ? single_answers[b].supp >= cfg_.support_threshold
                   : single_answers[b].any_sat) {
      usable.set(b);
    }
  }

  struct XNode {
    uint32_t rhs;
    LitMask mask;
    int max_bit;  // highest set bit, for index-ordered expansion
  };
  std::vector<XNode> frontier;
  for (size_t r = 0; r < pool.size(); ++r) {
    if (usable.test(r)) {
      frontier.push_back({static_cast<uint32_t>(r), LitMask{}, -1});
    }
  }
  // Satisfied LHS masks per RHS bit (Lemma 4(b)).
  std::vector<std::vector<LitMask>> closed(pool.size());

  for (size_t depth = 0; depth <= cfg_.max_lhs_size && !frontier.empty();
       ++depth) {
    // Filters and trivial checks here, then one candidate batch.
    std::vector<XNode> to_eval;
    std::vector<LatticeQuery> batch;
    for (const auto& xn : frontier) {
      if (!ChargeCandidate()) return false;
      // Lemma 4(b) across generation orders: supersets of a satisfied
      // LHS are not reduced.
      bool superseded = false;
      if (cfg_.prune) {
        for (const auto& c : closed[xn.rhs]) {
          if ((xn.mask & c) == c) {
            superseded = true;
            break;
          }
        }
      }
      if (superseded) {
        ++result_.stats.candidates_pruned_reduced;
        continue;
      }
      if (IsTrivialGfd(
              Gfd(pattern, LitsOfMask(xn.mask, pool), pool[xn.rhs]))) {
        ++result_.stats.candidates_pruned_trivial;
        continue;  // supersets stay trivial: prune the branch
      }
      to_eval.push_back(xn);
      batch.push_back({LatticeQuery::kCandidate, xn.mask, xn.rhs});
    }
    result_.stats.candidates_validated += batch.size();
    const auto answers = rows(batch);

    // Decide, and queue NHSpawn's emptiness checks.
    std::vector<XNode> next;
    std::vector<uint64_t> neg_base_supp;
    std::vector<LatticeQuery> neg_batch;
    for (size_t i = 0; i < to_eval.size(); ++i) {
      const XNode& xn = to_eval[i];
      const LatticeAnswer& a = answers[i];
      if (!a.violated) {
        closed[xn.rhs].push_back(xn.mask);
        if (a.supp >= cfg_.support_threshold) {
          Gfd phi(pattern, LitsOfMask(xn.mask, pool), pool[xn.rhs]);
          if (IsReducedAway(phi)) {
            ++result_.stats.candidates_pruned_reduced;
          } else {
            AddPositive(std::move(phi), a.supp);
          }
          // NHSpawn fires on every *validated frequent* positive
          // (Section 5.1) -- including ones reduced away as positives:
          // the negatives they trigger are not expressible on the
          // smaller pattern.
          if (cfg_.discover_negative &&
              xn.mask.count() + 1 <= cfg_.max_negative_lhs_size) {
            for (size_t b = 0; b < pool.size(); ++b) {
              if (b == xn.rhs || xn.mask.test(b) || !usable.test(b)) {
                continue;
              }
              LatticeQuery q{LatticeQuery::kEmptiness, xn.mask};
              q.mask.set(b);
              neg_batch.push_back(q);
              neg_base_supp.push_back(a.supp);
            }
          }
        }
        if (cfg_.prune) continue;  // Lemma 4(b): stop this branch
      }
      if (depth == cfg_.max_lhs_size) continue;
      for (size_t b = xn.max_bit + 1; b < pool.size(); ++b) {
        if (b == xn.rhs || xn.mask.test(b) || !usable.test(b)) continue;
        XNode child{xn.rhs, xn.mask, static_cast<int>(b)};
        child.mask.set(b);
        next.push_back(child);
      }
    }

    if (!neg_batch.empty()) {
      const auto neg_answers = rows(neg_batch);
      for (size_t i = 0; i < neg_batch.size(); ++i) {
        if (neg_answers[i].any_sat) continue;       // Q(G, X', z) != 0
        if (!neg_answers[i].any_present) continue;  // OWA gate
        Gfd neg(pattern, LitsOfMask(neg_batch[i].mask, pool),
                Literal::False());
        if (IsTrivialGfd(neg)) continue;  // X' symbolically unsatisfiable
        AddNegative(pattern_key, std::move(neg), neg_base_supp[i]);
      }
    }
    frontier = std::move(next);
  }
  return !result_.stats.budget_exceeded;
}

bool LiteralLatticeMiner::IsReducedAway(const Gfd& phi) const {
  auto it = by_rhs_.find(SignatureOf(phi.rhs));
  if (it == by_rhs_.end()) return false;
  for (size_t idx : it->second) {
    if (GfdReduces(result_.positives[idx], phi)) return true;
  }
  return false;
}

void LiteralLatticeMiner::AddPositive(Gfd phi, uint64_t supp) {
  by_rhs_[SignatureOf(phi.rhs)].push_back(result_.positives.size());
  result_.positives.push_back(std::move(phi));
  result_.positive_supports.push_back(supp);
  ++result_.stats.positives_found;
}

void LiteralLatticeMiner::AddNegative(int pattern_key, Gfd phi,
                                      uint64_t base_supp) {
  // A negative several bases spawn is one GFD: its support is the
  // maximum over them (Section 4.2), whichever base arrives first.
  auto [seen, fresh] =
      seen_negatives_.try_emplace(std::pair(pattern_key, phi.lhs), kDropped);
  if (!fresh) {
    if (seen->second != kDropped) {
      uint64_t& supp = result_.negative_supports[seen->second];
      supp = std::max(supp, base_supp);
    }
    return;
  }
  // Reduced-negative filter: a more general negative already covers this
  // one (wildcard-first / small-pattern-first feeding order makes general
  // negatives arrive before their specializations).
  for (const auto& neg : result_.negatives) {
    if (GfdReduces(neg, phi)) {
      ++result_.stats.candidates_pruned_reduced;
      return;
    }
  }
  seen->second = result_.negatives.size();
  result_.negatives.push_back(std::move(phi));
  result_.negative_supports.push_back(base_supp);
  ++result_.stats.negatives_found;
}

}  // namespace gfd
