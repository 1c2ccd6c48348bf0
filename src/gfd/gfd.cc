#include "gfd/gfd.h"

#include <algorithm>
#include <sstream>

#include "pattern/canonical.h"

namespace gfd {

Gfd::Gfd(Pattern q, std::vector<Literal> x, Literal l)
    : pattern(std::move(q)), lhs(std::move(x)), rhs(l) {
  NormalizeLhs(lhs);
}

namespace {

template <typename GraphT>
std::string Render(const Gfd& phi, const GraphT& g) {
  std::ostringstream os;
  os << phi.pattern.ToString(g) << " : ";
  if (phi.lhs.empty()) {
    os << "{}";
  } else {
    os << '{';
    for (size_t i = 0; i < phi.lhs.size(); ++i) {
      if (i) os << ", ";
      os << phi.lhs[i].ToString(g);
    }
    os << '}';
  }
  os << " -> " << phi.rhs.ToString(g);
  return os.str();
}

}  // namespace

std::string Gfd::ToString(const PropertyGraph& g) const {
  return Render(*this, g);
}

std::string Gfd::ToString(const GraphView& g) const {
  return Render(*this, g);
}

Literal MapLiteral(const Literal& l, const std::vector<VarId>& f) {
  switch (l.kind) {
    case LiteralKind::kFalse:
      return Literal::False();
    case LiteralKind::kVarConst:
      return Literal::Const(f[l.x], l.a, l.c);
    case LiteralKind::kVarVar:
      return Literal::Vars(f[l.x], l.a, f[l.y], l.b);
  }
  return Literal::False();
}

void NormalizeLhs(std::vector<Literal>& lhs) {
  std::sort(lhs.begin(), lhs.end());
  lhs.erase(std::unique(lhs.begin(), lhs.end()), lhs.end());
}

bool MatchSatisfies(const PropertyGraph& g, const Match& h, const Literal& l) {
  switch (l.kind) {
    case LiteralKind::kFalse:
      return false;
    case LiteralKind::kVarConst: {
      auto v = g.GetAttr(h[l.x], l.a);
      return v.has_value() && *v == l.c;
    }
    case LiteralKind::kVarVar: {
      auto vx = g.GetAttr(h[l.x], l.a);
      if (!vx.has_value()) return false;
      auto vy = g.GetAttr(h[l.y], l.b);
      return vy.has_value() && *vx == *vy;
    }
  }
  return false;
}

bool MatchSatisfiesAll(const PropertyGraph& g, const Match& h,
                       const std::vector<Literal>& lits) {
  for (const auto& l : lits) {
    if (!MatchSatisfies(g, h, l)) return false;
  }
  return true;
}

bool GfdReduces(const Gfd& phi1, const Gfd& phi2) {
  if (phi1.pattern.NumNodes() > phi2.pattern.NumNodes()) return false;
  if (phi1.pattern.NumEdges() > phi2.pattern.NumEdges()) return false;
  if (phi1.lhs.size() > phi2.lhs.size()) return false;

  bool reduces = false;
  ForEachEmbedding(
      phi1.pattern, phi2.pattern, /*require_pivot=*/true,
      [&](const std::vector<VarId>& f) {
        // f(l1) must equal l2.
        if (MapLiteral(phi1.rhs, f) != phi2.rhs) return true;
        // f(X1) ⊆ X2, tracking strict containment.
        bool subset = true;
        size_t mapped = 0;
        for (const auto& lit : phi1.lhs) {
          Literal ml = MapLiteral(lit, f);
          if (!std::binary_search(phi2.lhs.begin(), phi2.lhs.end(), ml)) {
            subset = false;
            break;
          }
          ++mapped;
        }
        if (!subset) return true;
        bool lhs_strict = mapped < phi2.lhs.size();
        // Pattern strictness under this embedding: fewer nodes/edges or a
        // wildcard generalizing a concrete label.
        bool pat_strict = phi1.pattern.NumNodes() < phi2.pattern.NumNodes() ||
                          phi1.pattern.NumEdges() < phi2.pattern.NumEdges();
        if (!pat_strict) {
          for (VarId v = 0; v < phi1.pattern.NumNodes() && !pat_strict; ++v) {
            if (phi1.pattern.NodeLabel(v) == kWildcardLabel &&
                phi2.pattern.NodeLabel(f[v]) != kWildcardLabel) {
              pat_strict = true;
            }
          }
          for (const auto& e : phi1.pattern.edges()) {
            if (pat_strict) break;
            if (e.label != kWildcardLabel) continue;
            for (const auto& se : phi2.pattern.edges()) {
              if (se.src == f[e.src] && se.dst == f[e.dst] &&
                  se.label != kWildcardLabel) {
                pat_strict = true;
                break;
              }
            }
          }
        }
        if (pat_strict || lhs_strict) {
          reduces = true;
          return false;  // stop enumeration
        }
        return true;
      });
  return reduces;
}

}  // namespace gfd
