#include "pattern/pattern.h"

#include <algorithm>
#include <deque>
#include <sstream>

namespace gfd {

namespace {
// Undirected BFS distances from `start`; kUnreached for unreachable nodes.
constexpr size_t kUnreached = static_cast<size_t>(-1);

std::vector<size_t> BfsDistances(const Pattern& p, VarId start) {
  std::vector<size_t> dist(p.NumNodes(), kUnreached);
  std::deque<VarId> queue;
  dist[start] = 0;
  queue.push_back(start);
  while (!queue.empty()) {
    VarId u = queue.front();
    queue.pop_front();
    for (const auto& e : p.edges()) {
      VarId other = kNoVar;
      if (e.src == u) other = e.dst;
      if (e.dst == u) other = e.src;
      if (other != kNoVar && dist[other] == kUnreached) {
        dist[other] = dist[u] + 1;
        queue.push_back(other);
      }
    }
  }
  return dist;
}

template <typename GraphT>
std::string Render(const Pattern& p, const GraphT& g) {
  std::ostringstream os;
  os << "Q[";
  for (VarId v = 0; v < p.NumNodes(); ++v) {
    if (v) os << ", ";
    os << 'x' << v << ':' << g.LabelName(p.NodeLabel(v));
  }
  os << " |";
  if (p.edges().empty()) os << " (no edges)";
  for (size_t i = 0; i < p.edges().size(); ++i) {
    const PatternEdge& e = p.edges()[i];
    if (i) os << ',';
    os << " x" << e.src << " -" << g.LabelName(e.label) << "-> x" << e.dst;
  }
  os << " | pivot=x" << p.pivot() << ']';
  return os.str();
}
}  // namespace

bool Pattern::IsConnected() const {
  if (NumNodes() <= 1) return true;
  auto dist = BfsDistances(*this, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](size_t d) { return d == kUnreached; });
}

size_t Pattern::RadiusAtPivot() const {
  if (NumNodes() <= 1) return 0;
  auto dist = BfsDistances(*this, pivot_);
  size_t r = 0;
  for (size_t d : dist) {
    if (d != kUnreached) r = std::max(r, d);
  }
  return r;
}

std::vector<VarId> Pattern::Neighbors(VarId v) const {
  std::vector<VarId> out;
  for (const auto& e : edges_) {
    if (e.src == v) out.push_back(e.dst);
    if (e.dst == v) out.push_back(e.src);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Pattern::ToString(const PropertyGraph& g) const {
  return Render(*this, g);
}

std::string Pattern::ToString(const GraphView& g) const {
  return Render(*this, g);
}

Pattern SingleNodePattern(LabelId label) {
  Pattern p;
  p.AddNode(label);
  p.set_pivot(0);
  return p;
}

Pattern SingleEdgePattern(LabelId src_label, LabelId edge_label,
                          LabelId dst_label) {
  Pattern p;
  VarId s = p.AddNode(src_label);
  VarId d = p.AddNode(dst_label);
  p.AddEdge(s, d, edge_label);
  p.set_pivot(s);
  return p;
}

}  // namespace gfd
