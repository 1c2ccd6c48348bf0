#include "detect/violation.h"

namespace gfd {

namespace {

// "JohnWinter" when named, "#17" otherwise.
template <typename GraphT>
std::string NodeRef(const GraphT& g, NodeId v) {
  const std::string& name = g.NodeName(v);
  return name.empty() ? "#" + std::to_string(v) : name;
}

// "x0.type is 'high_jumper'" / "x0.type is missing".
template <typename GraphT>
std::string ActualValue(const GraphT& g, const Match& m, VarId x, AttrId a) {
  auto v = g.GetAttr(m[x], a);
  std::string term = "x" + std::to_string(x) + "." + g.AttrName(a);
  if (!v) return term + " is missing";
  return term + " is '" + g.ValueName(*v) + "'";
}

// Everything -- rule text and evidence alike -- resolves through `g`, so a
// rule loaded against a materialized graph may name vocabulary that, in a
// live view, exists only in the overlay's extension tables.
template <typename GraphT>
std::string Describe(const GraphT& g, std::span<const Gfd> rules,
                     const Violation& v) {
  const Gfd& rule = rules[v.gfd_index];
  std::string s = "rule#" + std::to_string(v.gfd_index) + " " +
                  rule.ToString(g) + " at pivot " +
                  NodeRef(g, v.pivot) + ":";
  for (VarId x = 0; x < v.match.size(); ++x) {
    s += " x" + std::to_string(x) + "=" + NodeRef(g, v.match[x]);
  }
  switch (v.failed_rhs.kind) {
    case LiteralKind::kFalse:
      s += " | illegal structure (consequence is false)";
      break;
    case LiteralKind::kVarConst:
      s += " | expected " + v.failed_rhs.ToString(g) + ", yet " +
           ActualValue(g, v.match, v.failed_rhs.x, v.failed_rhs.a);
      break;
    case LiteralKind::kVarVar:
      s += " | expected " + v.failed_rhs.ToString(g) + ", yet " +
           ActualValue(g, v.match, v.failed_rhs.x, v.failed_rhs.a) +
           " while " +
           ActualValue(g, v.match, v.failed_rhs.y, v.failed_rhs.b);
      break;
  }
  return s;
}

}  // namespace

std::string DescribeViolation(const PropertyGraph& g,
                              std::span<const Gfd> rules,
                              const Violation& v) {
  return Describe(g, rules, v);
}

std::string DescribeViolation(const GraphView& g, std::span<const Gfd> rules,
                              const Violation& v) {
  return Describe(g, rules, v);
}

}  // namespace gfd
