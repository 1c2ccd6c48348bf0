// Shared fixtures for the test suites: the graphs and GFDs of Example 1 /
// Figure 1 of the paper, plus small helpers for building graphs,
// patterns and update batches in tests.
#ifndef GFD_TESTS_TESTLIB_H_
#define GFD_TESTS_TESTLIB_H_

#include <sstream>
#include <string>
#include <vector>

#include "gfd/gfd.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "graph/property_graph.h"
#include "pattern/pattern.h"
#include "util/rng.h"

namespace gfd::testing {

/// G1 (Fig. 1): person JohnWinter -create-> product SellingOut, where the
/// product has type "film" but the person's type is "high_jumper" (the
/// YAGO3 error). Extra vocabulary interned: value "producer" (used by phi1).
inline PropertyGraph BuildG1() {
  PropertyGraph::Builder b;
  b.InternValue("producer");  // phi1's consequence constant
  NodeId john = b.AddNode("person");
  b.SetName(john, "JohnWinter");
  b.SetAttr(john, "type", "high_jumper");
  NodeId film = b.AddNode("product");
  b.SetName(film, "SellingOut");
  b.SetAttr(film, "type", "film");
  b.AddEdge(john, film, "create");
  return std::move(b).Build();
}

/// G2 (Fig. 1): city SaintPetersburg located in both country Russia and
/// city Florida (the YAGO3 error).
inline PropertyGraph BuildG2() {
  PropertyGraph::Builder b;
  NodeId sp = b.AddNode("city");
  b.SetName(sp, "SaintPetersburg");
  b.SetAttr(sp, "name", "Saint Petersburg");
  NodeId ru = b.AddNode("country");
  b.SetName(ru, "Russia");
  b.SetAttr(ru, "name", "Russia");
  NodeId fl = b.AddNode("city");
  b.SetName(fl, "Florida");
  b.SetAttr(fl, "name", "Florida");
  b.AddEdge(sp, ru, "located");
  b.AddEdge(sp, fl, "located");
  return std::move(b).Build();
}

/// G3 (Fig. 1): John Brown and Owen Brown are each other's parent (the
/// DBpedia error).
inline PropertyGraph BuildG3() {
  PropertyGraph::Builder b;
  NodeId john = b.AddNode("person");
  b.SetName(john, "JohnBrown");
  b.SetAttr(john, "name", "John Brown");
  NodeId owen = b.AddNode("person");
  b.SetName(owen, "OwenBrown");
  b.SetAttr(owen, "name", "Owen Brown");
  b.AddEdge(john, owen, "parent");
  b.AddEdge(owen, john, "parent");
  return std::move(b).Build();
}

/// Q1 (Fig. 1): person x -create-> product y, pivot x. Labels resolved
/// against `g`'s interner; g must contain the labels.
inline Pattern BuildQ1(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("product"));
  q.AddEdge(x, y, *g.FindLabel("create"));
  q.set_pivot(x);
  return q;
}

/// Q2 (Fig. 1): city x -located-> y:_ and x -located-> z:_, pivot x.
inline Pattern BuildQ2(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("city"));
  VarId y = q.AddNode(kWildcardLabel);
  VarId z = q.AddNode(kWildcardLabel);
  LabelId located = *g.FindLabel("located");
  q.AddEdge(x, y, located);
  q.AddEdge(x, z, located);
  q.set_pivot(x);
  return q;
}

/// Q3 (Fig. 1): person x -parent-> person y and y -parent-> x, pivot x.
inline Pattern BuildQ3(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("person"));
  LabelId parent = *g.FindLabel("parent");
  q.AddEdge(x, y, parent);
  q.AddEdge(y, x, parent);
  q.set_pivot(x);
  return q;
}

/// A hub of degree `spokes`: node 0, "Hub", followed by `spokes` fans of
/// team red. One more fan, "Leaf" (team blue), has degree 1: its only
/// edge likes a club.
inline PropertyGraph BuildHubStar(size_t spokes) {
  PropertyGraph::Builder b;
  NodeId hub = b.AddNode("hub");
  b.SetName(hub, "Hub");
  for (size_t i = 0; i < spokes; ++i) {
    NodeId fan = b.AddNode("fan");
    b.SetAttr(fan, "team", "red");
    b.AddEdge(fan, hub, "follows");
  }
  NodeId leaf = b.AddNode("fan");
  b.SetName(leaf, "Leaf");
  b.SetAttr(leaf, "team", "blue");
  b.AddEdge(leaf, b.AddNode("club"), "likes");
  return std::move(b).Build();
}

/// The batch that makes Leaf follow the hub of BuildHubStar.
inline constexpr const char* kLeafFollowsHub = "E+\tLeaf\tHub\tfollows\n";

/// Fans following the same hub share a team: x -follows-> z <-follows- y,
/// pivot x, => x.team = y.team. Two pattern edges into the hub's label,
/// so a step seeded at the hub enumerates every pair of its followers.
inline Gfd SameTeamRule(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("fan"));
  VarId y = q.AddNode(*g.FindLabel("fan"));
  VarId z = q.AddNode(*g.FindLabel("hub"));
  LabelId follows = *g.FindLabel("follows");
  q.AddEdge(x, z, follows);
  q.AddEdge(y, z, follows);
  q.set_pivot(x);
  AttrId team = *g.FindAttr("team");
  return Gfd(q, {}, Literal::Vars(x, team, y, team));
}

/// `d` in the delta TSV format a store appends (graph/loader.h).
inline std::string DeltaBytes(const PropertyGraph& base, const GraphDelta& d) {
  std::ostringstream os;
  SaveGraphDeltaTsv(base, d, os);
  return std::move(os).str();
}

/// A random batch over `g` of up to `ops` ops: inserts, deletes of
/// existing edges, attribute sets introducing fresh values.
inline GraphDelta RandomBatch(const PropertyGraph& g, Rng& rng, size_t ops) {
  GraphDelta d;
  std::vector<bool> gone(g.NumEdges(), false);
  for (size_t i = 0; i < ops; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.4 && g.NumEdges() > 0) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      NodeId dst = static_cast<NodeId>(rng.Below(g.NumNodes()));
      d.InsertEdge(g.EdgeSrc(e), dst, g.EdgeLabel(e));
    } else if (roll < 0.7 && g.NumEdges() > 0) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      if (gone[e]) continue;
      gone[e] = true;
      d.DeleteEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    } else {
      NodeId v = static_cast<NodeId>(rng.Below(g.NumNodes()));
      auto attrs = g.NodeAttrs(v);
      AttrId key = attrs.empty()
                       ? d.InternAttr(g, "patched_key")
                       : attrs[rng.Below(attrs.size())].key;
      ValueId val =
          rng.Chance(0.3)
              ? d.InternValue(g, "patched_" + std::to_string(rng.Below(4)))
              : static_cast<ValueId>(rng.Below(g.values().size()));
      d.SetAttr(v, key, val);
    }
  }
  return d;
}

}  // namespace gfd::testing

#endif  // GFD_TESTS_TESTLIB_H_
