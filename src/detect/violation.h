// Structured violation records -- the unit of output of the detection
// engine. Where validation.h answers "does G satisfy phi?", a Violation
// pins down one concrete inconsistency: which rule, at which pivot
// entity, under which full binding, and which consequence failed. The
// paper's headline application (Section 1: catching inconsistencies in
// real-life graphs) consumes exactly these records.
#ifndef GFD_DETECT_VIOLATION_H_
#define GFD_DETECT_VIOLATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "gfd/gfd.h"
#include "graph/graph_view.h"
#include "graph/property_graph.h"
#include "match/matcher.h"

namespace gfd {

/// One violating match of one GFD. `match` is indexed by the rule's own
/// VarIds (the engine translates out of its internal shared-plan variable
/// space before emitting), so match[rule.rhs.x] etc. is always valid.
struct Violation {
  uint32_t gfd_index = 0;  ///< index into the engine's rule set
  NodeId pivot = kNoNode;  ///< h(z): the entity the violation is pinned to
  Match match;             ///< full binding, rule's variable order
  Literal failed_rhs;      ///< the consequence that did not hold

  friend bool operator==(const Violation&, const Violation&) = default;

  /// Deterministic output order: by rule, then pivot, then binding.
  friend auto operator<=>(const Violation& a, const Violation& b) {
    if (auto c = a.gfd_index <=> b.gfd_index; c != 0) return c;
    if (auto c = a.pivot <=> b.pivot; c != 0) return c;
    return a.match <=> b.match;
  }
};

/// One-line rendering: rule text, pivot entity, bindings, and the actual
/// attribute values that contradict the consequence.
std::string DescribeViolation(const PropertyGraph& g,
                              std::span<const Gfd> rules, const Violation& v);

/// View overload: the whole description resolves through the view, so
/// evidence names post-update values, and rule text may name vocabulary
/// that exists only in the overlay (a rule loaded against the
/// materialized current graph). For ids below the base interner sizes
/// the text equals the materialized graph's.
std::string DescribeViolation(const GraphView& g, std::span<const Gfd> rules,
                              const Violation& v);

/// Appends EscapeField(DescribeViolation(g, rules, v)) (util/tsv.h) to
/// `*out`, built in place by the renderer DescribeViolation runs, with
/// every name and value escaped on its way in. `escaped_rule_text`
/// stands for EscapeField(rules[v.gfd_index].ToString(g)) and goes in
/// as given, so a caller describing many violations of one rule renders
/// and escapes its text once.
void AppendEscapedDescription(const GraphView& g,
                              std::string_view escaped_rule_text,
                              const Violation& v, std::string* out);

}  // namespace gfd

#endif  // GFD_DETECT_VIOLATION_H_
