#include "gfd/serialize.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/hash.h"
#include "util/tsv.h"

namespace gfd {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

std::string LitToText(const Literal& l, const PropertyGraph& g) {
  switch (l.kind) {
    case LiteralKind::kFalse:
      return "false";
    case LiteralKind::kVarConst:
      return std::to_string(l.x) + "." + g.AttrName(l.a) + "='" +
             g.ValueName(l.c) + "'";
    case LiteralKind::kVarVar:
      return std::to_string(l.x) + "." + g.AttrName(l.a) + "=" +
             std::to_string(l.y) + "." + g.AttrName(l.b);
  }
  return "false";
}

// Non-throwing decimal VarId parse (ParseGfd must never throw: the
// lenient loader's contract is to skip bad lines, not to terminate).
bool ParseVarId(std::string_view s, VarId* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

// Parses "<var>.<attr>" into (var, attr id); returns false on failure.
bool ParseTerm(std::string_view s, const PropertyGraph& g, VarId* var,
               AttrId* attr) {
  size_t dot = s.find('.');
  if (dot == std::string_view::npos || dot == 0) return false;
  if (!ParseVarId(s.substr(0, dot), var)) return false;
  auto a = g.FindAttr(s.substr(dot + 1));
  if (!a) return false;
  *attr = *a;
  return true;
}

std::optional<Literal> ParseLit(std::string_view s, const PropertyGraph& g) {
  if (s == "false") return Literal::False();
  size_t eq = s.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  VarId x;
  AttrId a;
  if (!ParseTerm(s.substr(0, eq), g, &x, &a)) return std::nullopt;
  std::string_view rhs = s.substr(eq + 1);
  if (!rhs.empty() && rhs.front() == '\'') {
    if (rhs.size() < 2 || rhs.back() != '\'') return std::nullopt;
    auto v = g.FindValue(rhs.substr(1, rhs.size() - 2));
    if (!v) return std::nullopt;
    return Literal::Const(x, a, *v);
  }
  VarId y;
  AttrId b;
  if (!ParseTerm(rhs, g, &y, &b)) return std::nullopt;
  return Literal::Vars(x, a, y, b);
}

}  // namespace

std::string SerializeGfd(const Gfd& phi, const PropertyGraph& g) {
  std::ostringstream os;
  os << "nodes=";
  for (VarId v = 0; v < phi.pattern.NumNodes(); ++v) {
    if (v) os << '|';
    os << g.LabelName(phi.pattern.NodeLabel(v));
  }
  os << ";edges=";
  for (size_t i = 0; i < phi.pattern.edges().size(); ++i) {
    const auto& e = phi.pattern.edges()[i];
    if (i) os << ',';
    os << e.src << ':' << g.LabelName(e.label) << ':' << e.dst;
  }
  os << ";pivot=" << phi.pattern.pivot();
  os << ";lhs=";
  for (size_t i = 0; i < phi.lhs.size(); ++i) {
    if (i) os << ',';
    os << LitToText(phi.lhs[i], g);
  }
  os << ";rhs=" << LitToText(phi.rhs, g);
  return os.str();
}

std::optional<Gfd> ParseGfd(std::string_view line, const PropertyGraph& g,
                            std::string* error) {
  Pattern pattern;
  std::vector<Literal> lhs;
  std::optional<Literal> rhs;

  for (std::string_view section : SplitFields(line, ';')) {
    std::string_view key, value;
    if (!SplitKeyValue(section, &key, &value)) {
      SetError(error, "malformed section: " + std::string(section));
      return std::nullopt;
    }
    if (key == "nodes") {
      for (std::string_view label : SplitFields(value, '|')) {
        if (label.empty()) continue;
        auto l = g.FindLabel(label);
        if (!l) {
          SetError(error, "unknown label: " + std::string(label));
          return std::nullopt;
        }
        pattern.AddNode(*l);
      }
    } else if (key == "edges") {
      if (value.empty()) continue;
      for (std::string_view edge : SplitFields(value, ',')) {
        auto parts = SplitFields(edge, ':');
        if (parts.size() != 3) {
          SetError(error, "malformed edge: " + std::string(edge));
          return std::nullopt;
        }
        auto l = g.FindLabel(parts[1]);
        if (!l) {
          SetError(error, "unknown edge label: " + std::string(parts[1]));
          return std::nullopt;
        }
        VarId s, d;
        if (!ParseVarId(parts[0], &s) || !ParseVarId(parts[2], &d)) {
          SetError(error, "malformed edge endpoint: " + std::string(edge));
          return std::nullopt;
        }
        if (s >= pattern.NumNodes() || d >= pattern.NumNodes()) {
          SetError(error, "edge endpoint out of range");
          return std::nullopt;
        }
        pattern.AddEdge(s, d, *l);
      }
    } else if (key == "pivot") {
      VarId p;
      if (!ParseVarId(value, &p)) {
        SetError(error, "malformed pivot: " + std::string(value));
        return std::nullopt;
      }
      if (p >= pattern.NumNodes()) {
        SetError(error, "pivot out of range");
        return std::nullopt;
      }
      pattern.set_pivot(p);
    } else if (key == "lhs") {
      if (value.empty()) continue;
      for (std::string_view lit : SplitFields(value, ',')) {
        auto l = ParseLit(lit, g);
        if (!l) {
          SetError(error, "bad literal: " + std::string(lit));
          return std::nullopt;
        }
        lhs.push_back(*l);
      }
    } else if (key == "rhs") {
      rhs = ParseLit(value, g);
      if (!rhs) {
        SetError(error, "bad rhs literal: " + std::string(value));
        return std::nullopt;
      }
    } else {
      SetError(error, "unknown section: " + std::string(key));
      return std::nullopt;
    }
  }
  if (pattern.NumNodes() == 0) {
    SetError(error, "GFD without pattern nodes");
    return std::nullopt;
  }
  // The matcher enumerates connected patterns only (CompiledPattern), and
  // discovery emits no other kind.
  if (!pattern.IsConnected()) {
    SetError(error, "pattern is not connected");
    return std::nullopt;
  }
  if (!rhs) {
    SetError(error, "GFD without rhs");
    return std::nullopt;
  }
  // Literal variables must reference pattern variables.
  auto in_range = [&](const Literal& l) {
    if (l.kind == LiteralKind::kFalse) return true;
    if (l.x >= pattern.NumNodes()) return false;
    return l.kind != LiteralKind::kVarVar || l.y < pattern.NumNodes();
  };
  for (const auto& l : lhs) {
    if (!in_range(l)) {
      SetError(error, "literal variable out of range");
      return std::nullopt;
    }
  }
  if (!in_range(*rhs)) {
    SetError(error, "rhs variable out of range");
    return std::nullopt;
  }
  return Gfd(std::move(pattern), std::move(lhs), *rhs);
}

void SaveGfds(std::span<const Gfd> gfds, const PropertyGraph& g,
              std::ostream& out) {
  for (const auto& phi : gfds) out << SerializeGfd(phi, g) << '\n';
}

uint64_t RuleSetFingerprint(std::span<const Gfd> gfds, const PropertyGraph& g) {
  std::ostringstream os;
  SaveGfds(gfds, g, os);
  return Fnv1a64(os.str());
}

std::optional<std::vector<Gfd>> LoadGfds(std::istream& in,
                                         const PropertyGraph& g,
                                         std::string* error) {
  std::vector<Gfd> out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::string sub_error;
    auto phi = ParseGfd(line, g, &sub_error);
    if (!phi) {
      SetError(error,
               "line " + std::to_string(lineno) + ": " + sub_error);
      return std::nullopt;
    }
    out.push_back(std::move(*phi));
  }
  return out;
}

std::vector<Gfd> LoadGfdsLenient(std::istream& in, const PropertyGraph& g,
                                 size_t* skipped) {
  std::vector<Gfd> out;
  size_t dropped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (auto phi = ParseGfd(line, g)) {
      out.push_back(std::move(*phi));
    } else {
      ++dropped;
    }
  }
  if (skipped) *skipped = dropped;
  return out;
}

}  // namespace gfd
