// Literals of GFDs (Section 2.2): x.A = c (constant binding, as in CFDs),
// x.A = y.B (variable binding), and the Boolean constant `false` used as
// the consequence of negative GFDs.
#ifndef GFD_GFD_LITERAL_H_
#define GFD_GFD_LITERAL_H_

#include <cstdint>
#include <string>

#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "util/hash.h"
#include "util/ids.h"

namespace gfd {

enum class LiteralKind : uint8_t {
  kVarConst,  ///< x.A = c
  kVarVar,    ///< x.A = y.B
  kFalse,     ///< Boolean false (negative GFD consequence)
};

/// One literal over a pattern's variables.
struct Literal {
  LiteralKind kind = LiteralKind::kFalse;
  VarId x = kNoVar;
  AttrId a = 0;
  VarId y = kNoVar;  // kVarVar only
  AttrId b = 0;      // kVarVar only
  ValueId c = kNoValue;  // kVarConst only

  static Literal Const(VarId x, AttrId a, ValueId c) {
    Literal l;
    l.kind = LiteralKind::kVarConst;
    l.x = x;
    l.a = a;
    l.c = c;
    return l;
  }

  /// Builds x.A = y.B, normalized so the smaller (var, attr) pair comes
  /// first; equality of literals is then syntactic.
  static Literal Vars(VarId x, AttrId a, VarId y, AttrId b) {
    Literal l;
    l.kind = LiteralKind::kVarVar;
    if (std::pair(y, b) < std::pair(x, a)) {
      std::swap(x, y);
      std::swap(a, b);
    }
    l.x = x;
    l.a = a;
    l.y = y;
    l.b = b;
    return l;
  }

  static Literal False() { return Literal{}; }

  bool IsFalse() const { return kind == LiteralKind::kFalse; }

  friend bool operator==(const Literal&, const Literal&) = default;
  friend auto operator<=>(const Literal&, const Literal&) = default;

  /// Renders e.g. "x0.type='producer'" or "x1.name=x2.name", resolving
  /// attribute/value names through `g`.
  std::string ToString(const PropertyGraph& g) const { return Render(g); }
  /// View overload: ids past the base interners (a constant first seen
  /// in the overlay) resolve through the view's extension vocabulary.
  std::string ToString(const GraphView& g) const { return Render(g); }

 private:
  template <typename GraphT>
  std::string Render(const GraphT& g) const {
    if (kind == LiteralKind::kFalse) return "false";
    std::string s = "x" + std::to_string(x) + "." + g.AttrName(a);
    if (kind == LiteralKind::kVarConst) {
      return s + "='" + g.ValueName(c) + "'";
    }
    return s + "=x" + std::to_string(y) + "." + g.AttrName(b);
  }
};

struct LiteralHash {
  size_t operator()(const Literal& l) const {
    size_t h = static_cast<size_t>(l.kind);
    HashCombine(h, l.x);
    HashCombine(h, l.a);
    HashCombine(h, l.y);
    HashCombine(h, l.b);
    HashCombine(h, l.c);
    return h;
  }
};

}  // namespace gfd

#endif  // GFD_GFD_LITERAL_H_
