#include "core/profile.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "gfd/gfd.h"

namespace gfd {

MatchStore EnumerateMatches(const PropertyGraph& g, const CompiledPattern& cq,
                            size_t max_matches) {
  MatchStore store;
  cq.ForEachMatch(g, [&](const Match& m) {
    store.matches.push_back(m);
    if (store.matches.size() >= max_matches) {
      store.truncated = true;
      return false;
    }
    return true;
  });
  return store;
}

uint64_t CountPivots(std::span<const Match> matches, VarId pivot) {
  std::vector<NodeId> pivots;
  pivots.reserve(matches.size());
  for (const auto& m : matches) pivots.push_back(m[pivot]);
  std::sort(pivots.begin(), pivots.end());
  return std::unique(pivots.begin(), pivots.end()) - pivots.begin();
}

namespace {

// Sums the counts of equal (var, attr, value) keys in one pass, then
// orders the distinct keys for the pool builder.
class ConstantCounter {
 public:
  void Add(VarId v, AttrId a, ValueId c, uint64_t count) {
    const uint64_t key = (static_cast<uint64_t>(v) << 56) ^
                         (static_cast<uint64_t>(a & 0xffffff) << 32) ^ c;
    auto [it, inserted] = index_.try_emplace(key, out_.size());
    if (inserted) out_.push_back({v, a, c, 0});
    out_[it->second].count += count;
  }
  std::vector<VarConstFreq> Ordered() && {
    std::sort(out_.begin(), out_.end(),
              [](const VarConstFreq& l, const VarConstFreq& r) {
                if (l.count != r.count) return l.count > r.count;
                if (l.var != r.var) return l.var < r.var;
                if (l.attr != r.attr) return l.attr < r.attr;
                return l.value < r.value;
              });
    return std::move(out_);
  }

 private:
  std::vector<VarConstFreq> out_;
  std::unordered_map<uint64_t, size_t> index_;
};

}  // namespace

std::vector<VarConstFreq> CollectMatchConstants(
    const PropertyGraph& g, std::span<const Match> matches,
    const std::vector<AttrId>& gamma) {
  ConstantCounter counter;
  for (const auto& m : matches) {
    for (VarId v = 0; v < m.size(); ++v) {
      for (AttrId a : gamma) {
        if (auto val = g.GetAttr(m[v], a)) counter.Add(v, a, *val, 1);
      }
    }
  }
  return std::move(counter).Ordered();
}

std::vector<VarConstFreq> MergeMatchConstants(
    std::span<const std::vector<VarConstFreq>> parts) {
  ConstantCounter counter;
  for (const auto& part : parts) {
    for (const auto& c : part) counter.Add(c.var, c.attr, c.value, c.count);
  }
  return std::move(counter).Ordered();
}

ProfileRow ProfileMatch(const PropertyGraph& g, const Match& m, NodeId pivot,
                        const std::vector<Literal>& pool) {
  ProfileRow row;
  row.pivot = m[pivot];
  for (size_t i = 0; i < pool.size(); ++i) {
    const Literal& l = pool[i];
    if (MatchSatisfies(g, m, l)) row.sat.set(i);
    bool present = false;
    switch (l.kind) {
      case LiteralKind::kFalse:
        present = false;
        break;
      case LiteralKind::kVarConst:
        present = g.GetAttr(m[l.x], l.a).has_value();
        break;
      case LiteralKind::kVarVar:
        present = g.GetAttr(m[l.x], l.a).has_value() &&
                  g.GetAttr(m[l.y], l.b).has_value();
        break;
    }
    if (present) row.present.set(i);
  }
  return row;
}

PatternProfile::PatternProfile(const PropertyGraph& g, const MatchStore& store,
                               VarId pivot, const std::vector<Literal>& pool)
    : pool_size_(pool.size()), truncated_(store.truncated) {
  assert(pool.size() <= DiscoveryConfig::kMaxPool);
  std::vector<ProfileRow> rows;
  rows.reserve(store.matches.size());
  for (const auto& m : store.matches) {
    rows.push_back(ProfileMatch(g, m, pivot, pool));
  }
  GroupRows(rows);
}

PatternProfile PatternProfile::FromRows(std::vector<ProfileRow> rows,
                                        size_t pool_size, bool truncated) {
  PatternProfile p;
  p.pool_size_ = pool_size;
  p.truncated_ = truncated;
  p.GroupRows(rows);
  return p;
}

void PatternProfile::GroupRows(std::vector<ProfileRow>& rows) {
  std::sort(rows.begin(), rows.end(), [](const ProfileRow& a,
                                         const ProfileRow& b) {
    return a.pivot < b.pivot;
  });
  pivots_.clear();
  offsets_.clear();
  masks_.clear();
  presence_.clear();
  masks_.reserve(rows.size());
  presence_.reserve(rows.size());
  for (const auto& row : rows) {
    if (pivots_.empty() || pivots_.back() != row.pivot) {
      pivots_.push_back(row.pivot);
      offsets_.push_back(static_cast<uint32_t>(masks_.size()));
    }
    masks_.push_back(row.sat);
    presence_.push_back(row.present);
  }
  offsets_.push_back(static_cast<uint32_t>(masks_.size()));
}

uint64_t PatternProfile::SupportOf(const LitMask& required) const {
  uint64_t count = 0;
  for (size_t p = 0; p < pivots_.size(); ++p) {
    for (uint32_t i = offsets_[p]; i < offsets_[p + 1]; ++i) {
      if ((masks_[i] & required) == required) {
        ++count;
        break;  // one witnessing match per pivot suffices
      }
    }
  }
  return count;
}

bool PatternProfile::AnyMatchSatisfies(const LitMask& required) const {
  for (const auto& m : masks_) {
    if ((m & required) == required) return true;
  }
  return false;
}

bool PatternProfile::AnyMatchPresents(const LitMask& required) const {
  for (const auto& m : presence_) {
    if ((m & required) == required) return true;
  }
  return false;
}

bool PatternProfile::Satisfied(const LitMask& lhs, size_t rhs_bit) const {
  for (const auto& m : masks_) {
    if ((m & lhs) == lhs && !m.test(rhs_bit)) return false;
  }
  return true;
}

LatticeAnswer PatternProfile::Answer(const LatticeQuery& q) const {
  LatticeAnswer a;
  switch (q.kind) {
    case LatticeQuery::kSupport:
      a.supp = SupportOf(q.mask);
      a.any_sat = a.supp > 0;
      break;
    case LatticeQuery::kCandidate:
      a.violated = !Satisfied(q.mask, q.rhs_bit);
      if (!a.violated) a.supp = SupportOf(q.SupportMask());
      break;
    case LatticeQuery::kEmptiness:
      a.any_sat = AnyMatchSatisfies(q.mask);
      if (!a.any_sat) a.any_present = AnyMatchPresents(q.mask);
      break;
  }
  return a;
}

LitMask MaskOf(const std::vector<Literal>& lits,
               const std::vector<Literal>& pool) {
  LitMask mask;
  for (const auto& l : lits) {
    auto it = std::find(pool.begin(), pool.end(), l);
    assert(it != pool.end());
    mask.set(static_cast<size_t>(it - pool.begin()));
  }
  return mask;
}

}  // namespace gfd
