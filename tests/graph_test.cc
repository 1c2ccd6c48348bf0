#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/loader.h"
#include "graph/property_graph.h"
#include "graph/stats.h"
#include "testlib.h"

namespace gfd {
namespace {

PropertyGraph SmallGraph() {
  // a:person -knows-> b:person -knows-> c:person, a -likes-> c,
  // plus parallel edge a -knows-> c.
  PropertyGraph::Builder b;
  NodeId a = b.AddNode("person");
  NodeId bb = b.AddNode("person");
  NodeId c = b.AddNode("person");
  b.SetAttr(a, "name", "alice");
  b.SetAttr(a, "age", "30");
  b.SetAttr(bb, "name", "bob");
  b.AddEdge(a, bb, "knows");
  b.AddEdge(bb, c, "knows");
  b.AddEdge(a, c, "likes");
  b.AddEdge(a, c, "knows");
  return std::move(b).Build();
}

TEST(PropertyGraph, CountsNodesAndEdges) {
  auto g = SmallGraph();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 4u);
}

TEST(PropertyGraph, WildcardLabelIsReservedAtZero) {
  auto g = SmallGraph();
  EXPECT_EQ(g.LabelName(kWildcardLabel), "_");
  EXPECT_NE(g.NodeLabel(0), kWildcardLabel);
}

TEST(PropertyGraph, DegreesAreConsistent) {
  auto g = SmallGraph();
  EXPECT_EQ(g.OutDegree(0), 3u);  // a: knows b, likes c, knows c
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.InDegree(2), 3u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(PropertyGraph, OutEdgesSortedByDstThenLabel) {
  auto g = SmallGraph();
  auto edges = g.OutEdges(0);
  ASSERT_EQ(edges.size(), 3u);
  for (size_t i = 1; i < edges.size(); ++i) {
    auto prev = std::pair(g.EdgeDst(edges[i - 1]), g.EdgeLabel(edges[i - 1]));
    auto cur = std::pair(g.EdgeDst(edges[i]), g.EdgeLabel(edges[i]));
    EXPECT_LE(prev, cur);
  }
}

TEST(PropertyGraph, HasEdgeExactLabel) {
  auto g = SmallGraph();
  LabelId knows = *g.FindLabel("knows");
  LabelId likes = *g.FindLabel("likes");
  EXPECT_TRUE(g.HasEdge(0, 1, knows));
  EXPECT_TRUE(g.HasEdge(0, 2, likes));
  EXPECT_TRUE(g.HasEdge(0, 2, knows));  // parallel edge
  EXPECT_FALSE(g.HasEdge(1, 0, knows));  // direction matters
  EXPECT_FALSE(g.HasEdge(1, 2, likes));
}

TEST(PropertyGraph, HasEdgeWildcardMatchesAnyLabel) {
  auto g = SmallGraph();
  EXPECT_TRUE(g.HasEdge(0, 1, kWildcardLabel));
  EXPECT_FALSE(g.HasEdge(2, 0, kWildcardLabel));
}

TEST(PropertyGraph, GetAttrPresentAndMissing) {
  auto g = SmallGraph();
  AttrId name = *g.FindAttr("name");
  AttrId age = *g.FindAttr("age");
  ASSERT_TRUE(g.GetAttr(0, name).has_value());
  EXPECT_EQ(g.ValueName(*g.GetAttr(0, name)), "alice");
  EXPECT_TRUE(g.GetAttr(0, age).has_value());
  EXPECT_FALSE(g.GetAttr(1, age).has_value());
  EXPECT_FALSE(g.GetAttr(2, name).has_value());
}

TEST(PropertyGraph, AttrsSortedByKey) {
  auto g = SmallGraph();
  auto attrs = g.NodeAttrs(0);
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_LT(attrs[0].key, attrs[1].key);
}

TEST(PropertyGraph, LastAttrWriteWins) {
  PropertyGraph::Builder b;
  NodeId v = b.AddNode("x");
  b.SetAttr(v, "k", "v1");
  b.SetAttr(v, "k", "v2");
  auto g = std::move(b).Build();
  EXPECT_EQ(g.ValueName(*g.GetAttr(0, *g.FindAttr("k"))), "v2");
  EXPECT_EQ(g.NodeAttrs(0).size(), 1u);
}

TEST(PropertyGraph, NodesWithLabel) {
  auto g = SmallGraph();
  auto people = g.NodesWithLabel(*g.FindLabel("person"));
  EXPECT_EQ(people.size(), 3u);
  EXPECT_TRUE(g.NodesWithLabel(kWildcardLabel).empty());
}

TEST(PropertyGraph, MaxDegree) {
  auto g = SmallGraph();
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(PropertyGraph, EmptyGraph) {
  PropertyGraph::Builder b;
  auto g = std::move(b).Build();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

// Nodes 0..n-1, named per `names` ("" leaves a node unnamed).
PropertyGraph NamedGraph(const std::vector<std::string>& names) {
  PropertyGraph::Builder b;
  for (const std::string& name : names) {
    NodeId v = b.AddNode("thing");
    if (!name.empty()) b.SetName(v, name);
  }
  return std::move(b).Build();
}

TEST(PropertyGraph, FindNodeResolvesANamedNode) {
  auto g = NamedGraph({"alice", "bob", "carol"});
  EXPECT_EQ(g.FindNode("bob"), 1u);
  EXPECT_EQ(g.FindNode("carol"), 2u);
  EXPECT_EQ(g.NodeAlias(0), "alice");
}

TEST(PropertyGraph, FindNodeResolvesAnUnnamedNodeByItsIdAlias) {
  auto g = NamedGraph({"alice", "", "carol", ""});
  EXPECT_EQ(g.NodeAlias(1), "n1");
  EXPECT_EQ(g.FindNode("n1"), 1u);
  EXPECT_EQ(g.FindNode("n3"), 3u);
  // A named node does not answer to its id alias.
  EXPECT_FALSE(g.FindNode("n0").has_value());
}

TEST(PropertyGraph, FindNodeSharedAliasResolvesToTheLowerId) {
  // Node 2 is named "n5" and node 5 is unnamed, so both answer to "n5";
  // so do node 4 (named "n1") and unnamed node 1.
  auto g = NamedGraph({"a", "", "n5", "b", "n1", ""});
  EXPECT_EQ(g.FindNode("n5"), 2u);
  EXPECT_EQ(g.FindNode("n1"), 1u);
}

TEST(PropertyGraph, FindNodeUnknownNameIsNullopt) {
  auto g = NamedGraph({"alice", ""});
  EXPECT_FALSE(g.FindNode("mallory").has_value());
  EXPECT_FALSE(g.FindNode("n2").has_value());
  EXPECT_FALSE(g.FindNode("").has_value());
  EXPECT_FALSE(PropertyGraph().FindNode("n0").has_value());
}

TEST(PropertyGraph, FindNodeTellsApartNamesWithEqualIndexHash) {
  // Brute-force two names whose index hashes collide (a 32-bit hash
  // collides within ~2^16 names on average).
  std::unordered_map<uint32_t, std::string> seen;
  std::string first, second;
  for (uint64_t i = 0; second.empty(); ++i) {
    std::string name = "node_" + std::to_string(i);
    auto [it, fresh] = seen.emplace(PropertyGraph::NodeNameHash(name), name);
    if (!fresh) {
      first = it->second;
      second = name;
    }
  }
  ASSERT_EQ(PropertyGraph::NodeNameHash(first),
            PropertyGraph::NodeNameHash(second));
  auto g = NamedGraph({"x", second, "y", first});
  EXPECT_EQ(g.FindNode(second), 1u);
  EXPECT_EQ(g.FindNode(first), 3u);
}

TEST(PropertyGraph, FindNodeSurvivesCopyAndMove) {
  auto g = NamedGraph({"alice", "", "carol"});
  PropertyGraph copy = g;
  PropertyGraph moved = std::move(g);
  for (const PropertyGraph* h : {&copy, &moved}) {
    EXPECT_EQ(h->FindNode("alice"), 0u);
    EXPECT_EQ(h->FindNode("n1"), 1u);
    EXPECT_EQ(h->FindNode("carol"), 2u);
  }
}

TEST(Loader, RoundTripPreservesStructure) {
  auto g = gfd::testing::BuildG2();
  std::stringstream ss;
  SaveGraphTsv(g, ss);
  std::string err;
  auto g2 = LoadGraphTsv(ss, &err);
  ASSERT_TRUE(g2.has_value()) << err;
  EXPECT_EQ(g2->NumNodes(), g.NumNodes());
  EXPECT_EQ(g2->NumEdges(), g.NumEdges());
  // Same label names per node.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(g2->LabelName(g2->NodeLabel(v)), g.LabelName(g.NodeLabel(v)));
  }
  // Attributes survive.
  AttrId name1 = *g.FindAttr("name");
  AttrId name2 = *g2->FindAttr("name");
  EXPECT_EQ(g2->ValueName(*g2->GetAttr(0, name2)),
            g.ValueName(*g.GetAttr(0, name1)));
}

TEST(Loader, ParsesCommentsAndBlankLines) {
  std::stringstream ss("# comment\n\nN\ta\tperson\nN\tb\tperson\n"
                       "E\ta\tb\tknows\n");
  std::string err;
  auto g = LoadGraphTsv(ss, &err);
  ASSERT_TRUE(g.has_value()) << err;
  EXPECT_EQ(g->NumNodes(), 2u);
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_EQ(g->NodeName(0), "a");
}

TEST(Loader, RejectsDanglingEdge) {
  std::stringstream ss("N\ta\tperson\nE\ta\tzz\tknows\n");
  std::string err;
  EXPECT_FALSE(LoadGraphTsv(ss, &err).has_value());
  EXPECT_NE(err.find("unknown node"), std::string::npos);
}

TEST(Loader, RejectsUnknownTag) {
  std::stringstream ss("X\ta\tb\n");
  std::string err;
  EXPECT_FALSE(LoadGraphTsv(ss, &err).has_value());
}

TEST(Loader, RejectsDuplicateNode) {
  std::stringstream ss("N\ta\tperson\nN\ta\tcity\n");
  std::string err;
  EXPECT_FALSE(LoadGraphTsv(ss, &err).has_value());
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(Loader, RejectsAttrWithoutEquals) {
  std::stringstream ss("N\ta\tperson\tbroken\n");
  std::string err;
  EXPECT_FALSE(LoadGraphTsv(ss, &err).has_value());
}

TEST(Loader, RejectsShortRecords) {
  std::stringstream bad1("N\ta\n");
  EXPECT_FALSE(LoadGraphTsv(bad1).has_value());
  std::stringstream bad2("N\ta\tperson\nE\ta\tb\n");
  EXPECT_FALSE(LoadGraphTsv(bad2).has_value());
}

TEST(Loader, ErrorMessagesCarryLineNumbers) {
  // Malformed record on (1-based) line 3: comments and blanks still count.
  std::stringstream bad1("# header\nN\ta\tperson\nN\tb\n");
  std::string err;
  EXPECT_FALSE(LoadGraphTsv(bad1, &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  // Dangling edge on line 4.
  std::stringstream bad2("N\ta\tperson\n\nN\tb\tcity\nE\ta\tzz\tknows\n");
  EXPECT_FALSE(LoadGraphTsv(bad2, &err).has_value());
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  // Attribute without '=' on line 2.
  std::stringstream bad3("N\ta\tperson\nN\tb\tcity\tbroken\n");
  EXPECT_FALSE(LoadGraphTsv(bad3, &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  // Unknown tag on line 1.
  std::stringstream bad4("X\ta\tb\n");
  EXPECT_FALSE(LoadGraphTsv(bad4, &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(Loader, ToleratesCrlfLineEndings) {
  std::stringstream ss(
      "# exported on Windows\r\nN\ta\tperson\ttype=person\r\n"
      "N\tb\tcity\r\n\r\nE\ta\tb\tlives\r\n");
  std::string err;
  auto g = LoadGraphTsv(ss, &err);
  ASSERT_TRUE(g.has_value()) << err;
  EXPECT_EQ(g->NumNodes(), 2u);
  EXPECT_EQ(g->NumEdges(), 1u);
  // The '\r' must not leak into the last field of any record: labels,
  // attribute values, and edge labels are all clean.
  EXPECT_TRUE(g->FindLabel("city").has_value());
  EXPECT_FALSE(g->FindLabel("city\r").has_value());
  EXPECT_TRUE(g->FindLabel("lives").has_value());
  ASSERT_TRUE(g->FindAttr("type").has_value());
  EXPECT_EQ(g->ValueName(*g->GetAttr(0, *g->FindAttr("type"))), "person");
}

TEST(Stats, EdgeTriplesSortedDescending) {
  auto g = SmallGraph();
  GraphStats stats(g);
  const auto& t = stats.edge_triples();
  ASSERT_GE(t.size(), 2u);
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t[i - 1].count, t[i].count);
  }
  // person -knows-> person appears 3 times.
  EXPECT_EQ(t[0].count, 3u);
  EXPECT_EQ(t[0].edge_label, *g.FindLabel("knows"));
}

TEST(Stats, FrequentTriplesThreshold) {
  auto g = SmallGraph();
  GraphStats stats(g);
  EXPECT_EQ(stats.FrequentTriples(3).size(), 1u);
  EXPECT_EQ(stats.FrequentTriples(1).size(), 2u);
  EXPECT_TRUE(stats.FrequentTriples(100).empty());
}

TEST(Stats, LabelCounts) {
  auto g = SmallGraph();
  GraphStats stats(g);
  EXPECT_EQ(stats.LabelCount(*g.FindLabel("person")), 3u);
  EXPECT_EQ(stats.LabelCount(kWildcardLabel), 0u);
}

TEST(Stats, TopValuesOrderedByFrequency) {
  PropertyGraph::Builder b;
  for (int i = 0; i < 5; ++i) {
    NodeId v = b.AddNode("n");
    b.SetAttr(v, "color", i < 3 ? "red" : "blue");
  }
  auto g = std::move(b).Build();
  GraphStats stats(g);
  auto top = stats.TopValues(*g.FindAttr("color"), 5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(g.ValueName(top[0].value), "red");
  EXPECT_EQ(top[0].count, 3u);
  EXPECT_EQ(top[1].count, 2u);
  // k smaller than distinct values truncates.
  EXPECT_EQ(stats.TopValues(*g.FindAttr("color"), 1).size(), 1u);
}

TEST(Stats, AttrKeysListsObservedAttrs) {
  auto g = SmallGraph();
  GraphStats stats(g);
  EXPECT_EQ(stats.attr_keys().size(), 2u);  // name, age
}

}  // namespace
}  // namespace gfd
