// TSV serialization of property graphs and of update deltas over them.
//
// Graph format (one record per line, tab-separated):
//   L <label>            optional: pre-intern a node/edge label
//   K <key>              optional: pre-intern an attribute key
//   V <value>            optional: pre-intern an attribute value
//   N <node-string-id> <label> [key=value ...]
//   E <src-string-id> <dst-string-id> <label>
// Lines starting with '#' and blank lines are ignored. Node string ids are
// arbitrary tokens; they are preserved as node names in the loaded graph.
//
// The L/K/V declarations exist for durability: a plain save only writes
// in-use vocabulary in encounter order, so a reloaded graph may intern
// ids in a different order than the graph it was saved from. Snapshots
// that anchor a delta log (serve/graph_store.h) are written with
// SaveGraphTsv(..., /*with_vocab=*/true), which declares every interner
// entry in id order first -- a reload then reproduces ids exactly, so
// compiled rule sets, logged deltas, and violation records stay valid
// across restarts and snapshot rolls.
//
// All fields are backslash-escaped (util/tsv.h): tabs, newlines, '=' and
// backslashes in names, labels, keys and values survive the round trip;
// a bad escape is a line-numbered load error.
//
// Delta format (one update op per line, tab-separated, order preserved):
//   L <label> / K <key> / V <value>                optional vocab preamble
//   E+ <src-string-id> <dst-string-id> <label>     insert edge
//   E- <src-string-id> <dst-string-id> <label>     delete edge
//   A  <node-string-id> <key>=<value> [...]        set attribute(s)
// Node references resolve through PropertyGraph::FindNode: a node's own
// name, or "n<id>" for an unnamed node (PropertyGraph::NodeAlias, which
// is also what SaveGraphTsv writes). The graph builds that hash table
// once, so parsing a batch costs O(batch) expected, not O(|V|). Labels,
// keys, and values the graph never interned are added to the delta's
// extension vocabulary, so updates may introduce brand-new values. L/K/V
// records pre-intern extension vocabulary in file order, the delta
// analogue of the graph format's durability preamble.
#ifndef GFD_GRAPH_LOADER_H_
#define GFD_GRAPH_LOADER_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace gfd {

/// Parses a graph from `in`. Returns std::nullopt and fills `*error` (if
/// non-null) on malformed input (unknown record tag, dangling edge endpoint,
/// short line).
std::optional<PropertyGraph> LoadGraphTsv(std::istream& in,
                                          std::string* error = nullptr);

/// Convenience file-based wrapper.
std::optional<PropertyGraph> LoadGraphTsvFile(const std::string& path,
                                              std::string* error = nullptr);

/// Writes `g` to `out` in the format accepted by LoadGraphTsv. With
/// `with_vocab`, every interner entry is declared (L/K/V records) in id
/// order before the graph, so the reload reproduces ids exactly.
void SaveGraphTsv(const PropertyGraph& g, std::ostream& out,
                  bool with_vocab = false);

/// Parses a delta against `g`'s node names (g.FindNode) and
/// vocabulary. Returns
/// std::nullopt and fills `*error` (if non-null) with a line-numbered
/// message ("line N: ...") on malformed input (unknown tag, unknown node,
/// short record, attribute without '=').
std::optional<GraphDelta> LoadGraphDeltaTsv(std::istream& in,
                                            const PropertyGraph& g,
                                            std::string* error = nullptr);

/// LoadGraphDeltaTsv over text in memory, parsed in place: appends the
/// ops of `tsv` to `*delta` and interns the names `g` lacks past
/// `*delta`'s extension tables, which may already hold names (a live
/// overlay's, LiveGraph::Parse). Same records, line numbers and error
/// texts as the stream overload; no line or field is copied, and only a
/// field holding a backslash is unescaped. Returns false with *error set
/// on malformed input, leaving *delta partly extended.
bool AppendGraphDeltaTsv(std::string_view tsv, const PropertyGraph& g,
                         GraphDelta* delta, std::string* error = nullptr);

/// Convenience file-based wrapper.
std::optional<GraphDelta> LoadGraphDeltaTsvFile(const std::string& path,
                                                const PropertyGraph& g,
                                                std::string* error = nullptr);

/// Writes `d` to `out` in the format accepted by LoadGraphDeltaTsv,
/// resolving node and vocabulary names through `g` plus the delta's
/// extension tables. With `with_vocab`, every extension entry is
/// declared (L/K/V records) in id order before the ops, so a reload
/// against the same base graph reproduces extension ids exactly.
void SaveGraphDeltaTsv(const PropertyGraph& g, const GraphDelta& d,
                       std::ostream& out, bool with_vocab = false);

}  // namespace gfd

#endif  // GFD_GRAPH_LOADER_H_
