#include "graph/loader.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "util/tsv.h"

namespace gfd {

namespace {
void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

// Unescapes one raw field, reporting a line-numbered error on a dangling
// backslash or unknown escape instead of silently keeping corrupt data.
std::optional<std::string> Unescape(std::string_view field, size_t lineno,
                                    std::string* error) {
  auto s = UnescapeField(field);
  if (!s) {
    SetError(error, "line " + std::to_string(lineno) + ": bad escape in '" +
                        std::string(field) + "'");
  }
  return s;
}
}  // namespace

std::optional<PropertyGraph> LoadGraphTsv(std::istream& in,
                                          std::string* error) {
  PropertyGraph::Builder b;
  std::unordered_map<std::string, NodeId> ids;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Tolerate CRLF input: getline keeps the '\r', which would otherwise
    // end up inside the last field of every record.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    auto fields = SplitFields(line);
    if (fields[0] == "L" || fields[0] == "K" || fields[0] == "V") {
      // Vocabulary declaration: intern in file order so a with_vocab save
      // reloads with identical ids (Intern dedups, so re-declaring the
      // builder's pre-interned wildcard is a no-op).
      if (fields.size() < 2) {
        SetError(error, "line " + std::to_string(lineno) + ": short " +
                            std::string(fields[0]) + " record");
        return std::nullopt;
      }
      auto name = Unescape(fields[1], lineno, error);
      if (!name) return std::nullopt;
      if (fields[0] == "L") {
        b.InternLabel(*name);
      } else if (fields[0] == "K") {
        b.InternAttr(*name);
      } else {
        b.InternValue(*name);
      }
    } else if (fields[0] == "N") {
      if (fields.size() < 3) {
        SetError(error, "line " + std::to_string(lineno) + ": short N record");
        return std::nullopt;
      }
      auto name = Unescape(fields[1], lineno, error);
      auto label = Unescape(fields[2], lineno, error);
      if (!name || !label) return std::nullopt;
      if (ids.contains(*name)) {
        SetError(error, "line " + std::to_string(lineno) +
                            ": duplicate node " + *name);
        return std::nullopt;
      }
      NodeId v = b.AddNode(*label);
      b.SetName(v, *name);
      ids.emplace(std::move(*name), v);
      for (size_t i = 3; i < fields.size(); ++i) {
        std::string_view key, value;
        if (!SplitKeyValue(fields[i], &key, &value)) {
          SetError(error, "line " + std::to_string(lineno) +
                              ": attribute without '='");
          return std::nullopt;
        }
        auto k = Unescape(key, lineno, error);
        auto val = Unescape(value, lineno, error);
        if (!k || !val) return std::nullopt;
        b.SetAttr(v, *k, *val);
      }
    } else if (fields[0] == "E") {
      if (fields.size() < 4) {
        SetError(error, "line " + std::to_string(lineno) + ": short E record");
        return std::nullopt;
      }
      auto sname = Unescape(fields[1], lineno, error);
      auto dname = Unescape(fields[2], lineno, error);
      auto label = Unescape(fields[3], lineno, error);
      if (!sname || !dname || !label) return std::nullopt;
      auto src = ids.find(*sname);
      auto dst = ids.find(*dname);
      if (src == ids.end() || dst == ids.end()) {
        SetError(error, "line " + std::to_string(lineno) +
                            ": edge references unknown node");
        return std::nullopt;
      }
      b.AddEdge(src->second, dst->second, *label);
    } else {
      SetError(error, "line " + std::to_string(lineno) + ": unknown tag '" +
                          std::string(fields[0]) + "'");
      return std::nullopt;
    }
  }
  return std::move(b).Build();
}

std::optional<PropertyGraph> LoadGraphTsvFile(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  return LoadGraphTsv(in, error);
}

std::optional<GraphDelta> LoadGraphDeltaTsv(std::istream& in,
                                            const PropertyGraph& g,
                                            std::string* error) {
  const std::string tsv{std::istreambuf_iterator<char>(in), {}};
  GraphDelta d;
  if (!AppendGraphDeltaTsv(tsv, g, &d, error)) return std::nullopt;
  return d;
}

bool AppendGraphDeltaTsv(std::string_view tsv, const PropertyGraph& g,
                         GraphDelta* delta, std::string* error) {
  GraphDelta& d = *delta;
  const auto lines = std::count(tsv.begin(), tsv.end(), '\n') + 1;
  d.ops.reserve(d.ops.size() + static_cast<size_t>(lines));
  size_t lineno = 0;
  std::vector<std::string_view> fields;
  // Fields are read in place; only one holding a backslash is unescaped,
  // into one of two buffers (an attribute's key and value are live at
  // once).
  std::array<std::string, 2> unescaped;
  auto field = [&](std::string_view raw,
                   size_t buffer) -> std::optional<std::string_view> {
    if (raw.find('\\') == std::string_view::npos) return raw;
    auto s = Unescape(raw, lineno, error);
    if (!s) return std::nullopt;
    unescaped[buffer] = std::move(*s);
    return unescaped[buffer];
  };
  // Node references resolve through the graph's name index (unnamed
  // nodes answer to the "n<id>" aliases SaveGraphTsv emits).
  auto at = [&](std::string_view raw) -> std::optional<NodeId> {
    auto name = field(raw, 0);
    if (!name) return std::nullopt;
    auto v = g.FindNode(*name);
    if (!v) {
      SetError(error, "line " + std::to_string(lineno) + ": unknown node '" +
                          std::string(*name) + "'");
    }
    return v;
  };
  for (size_t next = 0; next < tsv.size();) {
    size_t end = tsv.find('\n', next);
    if (end == std::string_view::npos) end = tsv.size();
    std::string_view line = tsv.substr(next, end - next);
    next = end + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') continue;
    SplitFields(line, &fields);
    const std::string_view tag = fields[0];
    if (tag == "L" || tag == "K" || tag == "V") {
      // Vocabulary preamble: intern in file order so every consumer of
      // the same preamble assigns identical extension ids (Intern*
      // dedups against both the base graph and prior extras).
      if (fields.size() < 2) {
        SetError(error, "line " + std::to_string(lineno) + ": short " +
                            std::string(tag) + " record");
        return false;
      }
      auto name = field(fields[1], 0);
      if (!name) return false;
      if (tag == "L") {
        d.InternLabel(g, *name);
      } else if (tag == "K") {
        d.InternAttr(g, *name);
      } else {
        d.InternValue(g, *name);
      }
    } else if (tag == "E+" || tag == "E-") {
      if (fields.size() < 4) {
        SetError(error, "line " + std::to_string(lineno) + ": short " +
                            std::string(tag) + " record");
        return false;
      }
      auto src = at(fields[1]);
      auto dst = at(fields[2]);
      if (!src || !dst) return false;
      auto label = field(fields[3], 0);
      if (!label) return false;
      LabelId l = d.InternLabel(g, *label);
      if (tag == "E+") {
        d.InsertEdge(*src, *dst, l);
      } else {
        d.DeleteEdge(*src, *dst, l);
      }
    } else if (tag == "A") {
      if (fields.size() < 3) {
        SetError(error, "line " + std::to_string(lineno) + ": short A record");
        return false;
      }
      auto v = at(fields[1]);
      if (!v) return false;
      for (size_t i = 2; i < fields.size(); ++i) {
        std::string_view key, value;
        if (!SplitKeyValue(fields[i], &key, &value)) {
          SetError(error, "line " + std::to_string(lineno) +
                              ": attribute without '='");
          return false;
        }
        auto k = field(key, 0);
        auto val = field(value, 1);
        if (!k || !val) return false;
        d.SetAttr(*v, d.InternAttr(g, *k), d.InternValue(g, *val));
      }
    } else {
      SetError(error, "line " + std::to_string(lineno) + ": unknown tag '" +
                          std::string(tag) + "'");
      return false;
    }
  }
  return true;
}

std::optional<GraphDelta> LoadGraphDeltaTsvFile(const std::string& path,
                                                const PropertyGraph& g,
                                                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  return LoadGraphDeltaTsv(in, g, error);
}

void SaveGraphDeltaTsv(const PropertyGraph& g, const GraphDelta& d,
                       std::ostream& out, bool with_vocab) {
  if (with_vocab) {
    for (const std::string& l : d.extra_labels) {
      out << "L\t" << EscapeField(l) << '\n';
    }
    for (const std::string& k : d.extra_attrs) {
      out << "K\t" << EscapeField(k) << '\n';
    }
    for (const std::string& v : d.extra_values) {
      out << "V\t" << EscapeField(v) << '\n';
    }
  }
  auto name_of = [&](NodeId v) { return EscapeField(g.NodeAlias(v)); };
  for (const GraphDelta::Op& op : d.ops) {
    switch (op.kind) {
      case GraphDelta::OpKind::kInsertEdge:
      case GraphDelta::OpKind::kDeleteEdge:
        out << (op.kind == GraphDelta::OpKind::kInsertEdge ? "E+" : "E-")
            << '\t' << name_of(op.src) << '\t' << name_of(op.dst) << '\t'
            << EscapeField(d.LabelName(g, op.label)) << '\n';
        break;
      case GraphDelta::OpKind::kSetAttr:
        out << "A\t" << name_of(op.src) << '\t'
            << EscapeField(d.AttrName(g, op.key)) << '='
            << EscapeField(d.ValueName(g, op.value)) << '\n';
        break;
    }
  }
}

void SaveGraphTsv(const PropertyGraph& g, std::ostream& out,
                  bool with_vocab) {
  if (with_vocab) {
    for (uint32_t l = 0; l < g.labels().size(); ++l) {
      out << "L\t" << EscapeField(g.LabelName(l)) << '\n';
    }
    for (uint32_t a = 0; a < g.attrs().size(); ++a) {
      out << "K\t" << EscapeField(g.AttrName(a)) << '\n';
    }
    for (uint32_t v = 0; v < g.values().size(); ++v) {
      out << "V\t" << EscapeField(g.ValueName(v)) << '\n';
    }
  }
  auto name_of = [&](NodeId v) { return EscapeField(g.NodeAlias(v)); };
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    out << "N\t" << name_of(v) << '\t'
        << EscapeField(g.LabelName(g.NodeLabel(v)));
    for (const auto& a : g.NodeAttrs(v)) {
      out << '\t' << EscapeField(g.AttrName(a.key)) << '='
          << EscapeField(g.ValueName(a.value));
    }
    out << '\n';
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    out << "E\t" << name_of(g.EdgeSrc(e)) << '\t' << name_of(g.EdgeDst(e))
        << '\t' << EscapeField(g.LabelName(g.EdgeLabel(e))) << '\n';
  }
}

}  // namespace gfd
