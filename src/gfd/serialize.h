// Text serialization of GFDs, so mined rule sets can be persisted,
// inspected, versioned, and re-loaded as data-quality rules.
//
// One GFD per line:
//   nodes=<label>|<label>|... ; edges=<src>:<label>:<dst>,... ; pivot=<i> ;
//   lhs=<lit>,... ; rhs=<lit>
// where <lit> is  <var>.<attr>='<value>'  |  <var>.<attr>=<var>.<attr>  |
// false, and '_' is the wildcard label. Restrictions: label and attribute
// names must not contain the delimiters (; , | :) and values must not
// contain single quotes or newlines -- which holds for every dataset and
// generator in this repository.
#ifndef GFD_GFD_SERIALIZE_H_
#define GFD_GFD_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gfd/gfd.h"
#include "graph/property_graph.h"

namespace gfd {

/// Renders phi against g's vocabulary (labels/attrs/values by name).
std::string SerializeGfd(const Gfd& phi, const PropertyGraph& g);

/// Parses one serialized GFD. Vocabulary is resolved against `g`; unknown
/// labels/attributes/values fail the parse (rules reference things the
/// graph must know about), and so does a pattern that is not connected
/// (the matcher enumerates connected patterns only). On failure returns
/// nullopt and fills *error.
std::optional<Gfd> ParseGfd(std::string_view line, const PropertyGraph& g,
                            std::string* error = nullptr);

/// Writes one GFD per line.
void SaveGfds(std::span<const Gfd> gfds, const PropertyGraph& g,
              std::ostream& out);

/// FNV-1a 64 of the SaveGfds text: the fingerprint a persisted running
/// violation count is keyed by, since the count means something only
/// under the rules it was taken with. Serialization is name-based, so
/// the value is stable across restarts and snapshot rolls.
uint64_t RuleSetFingerprint(std::span<const Gfd> gfds, const PropertyGraph& g);

/// Reads GFDs until EOF; '#' lines and blank lines are skipped.
std::optional<std::vector<Gfd>> LoadGfds(std::istream& in,
                                         const PropertyGraph& g,
                                         std::string* error = nullptr);

/// Lenient variant for *serving* rules against a graph whose vocabulary
/// may have drifted from the mining graph (TSV round trips only persist
/// vocabulary that is in use): every line ParseGfd rejects -- a rule
/// referencing labels / attributes / values the graph does not intern,
/// or a malformed or disconnected pattern -- is skipped instead of
/// failing the whole file, and `*skipped` (if non-null) receives their
/// count. Note the semantic trade: a skipped rule whose RHS names a
/// value the graph has never seen could only ever be violated, so
/// lenient loading is a robustness/completeness trade-off -- callers
/// should surface the skipped count.
std::vector<Gfd> LoadGfdsLenient(std::istream& in, const PropertyGraph& g,
                                 size_t* skipped = nullptr);

}  // namespace gfd

#endif  // GFD_GFD_SERIALIZE_H_
