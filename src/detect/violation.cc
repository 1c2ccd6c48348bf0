#include "detect/violation.h"

#include <charconv>

#include "util/tsv.h"

namespace gfd {

namespace {

// Appends the pieces of one description to `out`, each name or value
// through EscapeField's escaping when `escape` is set. Digits, spaces
// and the fixed words never need escaping; '=' does.
template <typename GraphT>
class Describer {
 public:
  Describer(const GraphT& g, const Violation& v, bool escape, std::string& out)
      : g_(g), v_(v), escape_(escape), out_(out) {}

  void Text(std::string_view s) {
    if (escape_) {
      AppendEscapedField(s, &out_);
    } else {
      out_.append(s);
    }
  }
  void Number(uint64_t n) {
    char buf[20];
    const auto end = std::to_chars(buf, buf + sizeof(buf), n).ptr;
    out_.append(buf, end);
  }
  void Var(VarId x) {
    out_ += 'x';
    Number(x);
  }
  // "JohnWinter" when named, "#17" otherwise.
  void Node(NodeId n) {
    const std::string& name = g_.NodeName(n);
    if (name.empty()) {
      out_ += '#';
      Number(n);
    } else {
      Text(name);
    }
  }
  // "x0.type is 'high_jumper'" / "x0.type is missing".
  void Actual(VarId x, AttrId a) {
    Var(x);
    out_ += '.';
    Text(g_.AttrName(a));
    const auto value = g_.GetAttr(v_.match[x], a);
    if (!value) {
      out_ += " is missing";
      return;
    }
    out_ += " is '";
    Text(g_.ValueName(*value));
    out_ += '\'';
  }

  void Describe(std::string_view rule_text) {
    out_ += "rule#";
    Number(v_.gfd_index);
    out_ += ' ';
    out_ += rule_text;
    out_ += " at pivot ";
    Node(v_.pivot);
    out_ += ':';
    for (VarId x = 0; x < v_.match.size(); ++x) {
      out_ += ' ';
      Var(x);
      Text("=");
      Node(v_.match[x]);
    }
    const Literal& rhs = v_.failed_rhs;
    if (rhs.kind == LiteralKind::kFalse) {
      out_ += " | illegal structure (consequence is false)";
      return;
    }
    out_ += " | expected ";
    Text(rhs.ToString(g_));
    out_ += ", yet ";
    Actual(rhs.x, rhs.a);
    if (rhs.kind == LiteralKind::kVarVar) {
      out_ += " while ";
      Actual(rhs.y, rhs.b);
    }
  }

 private:
  const GraphT& g_;
  const Violation& v_;
  const bool escape_;
  std::string& out_;
};

// Everything -- rule text and evidence alike -- resolves through `g`, so a
// rule loaded against a materialized graph may name vocabulary that, in a
// live view, exists only in the overlay's extension tables.
template <typename GraphT>
std::string Describe(const GraphT& g, std::span<const Gfd> rules,
                     const Violation& v) {
  std::string out;
  Describer(g, v, /*escape=*/false, out)
      .Describe(rules[v.gfd_index].ToString(g));
  return out;
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

void AppendEscapedDescription(const GraphView& g,
                              std::string_view escaped_rule_text,
                              const Violation& v, std::string* out) {
  Describer(g, v, /*escape=*/true, *out).Describe(escaped_rule_text);
}

}  // namespace gfd
