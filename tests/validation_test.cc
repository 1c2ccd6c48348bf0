#include <gtest/gtest.h>

#include "gfd/validation.h"
#include "testlib.h"

namespace gfd {
namespace {

using gfd::testing::BuildG1;
using gfd::testing::BuildG2;
using gfd::testing::BuildG3;
using gfd::testing::BuildQ1;
using gfd::testing::BuildQ2;
using gfd::testing::BuildQ3;

// phi1 = Q1[x,y](y.type=film -> x.type=producer)
Gfd Phi1(const PropertyGraph& g) {
  AttrId type = *g.FindAttr("type");
  return Gfd(BuildQ1(g), {Literal::Const(1, type, *g.FindValue("film"))},
             Literal::Const(0, type, *g.FindValue("producer")));
}

// phi2 = Q2[x,y,z](emptyset -> y.name = z.name)
Gfd Phi2(const PropertyGraph& g) {
  AttrId name = *g.FindAttr("name");
  return Gfd(BuildQ2(g), {}, Literal::Vars(1, name, 2, name));
}

// phi3 = Q3[x,y](emptyset -> false)
Gfd Phi3(const PropertyGraph& g) {
  return Gfd(BuildQ3(g), {}, Literal::False());
}

TEST(Validation, Phi1CatchesErrorInG1) {
  auto g = BuildG1();
  EXPECT_FALSE(SatisfiesGfd(g, Phi1(g)));
}

TEST(Validation, Phi2CatchesErrorInG2) {
  auto g = BuildG2();
  EXPECT_FALSE(SatisfiesGfd(g, Phi2(g)));
}

TEST(Validation, Phi3CatchesErrorInG3) {
  auto g = BuildG3();
  EXPECT_FALSE(SatisfiesGfd(g, Phi3(g)));
}

TEST(Validation, CleanGraphSatisfiesPhi1) {
  // Fix G1: make John a producer.
  PropertyGraph::Builder b;
  NodeId john = b.AddNode("person");
  b.SetAttr(john, "type", "producer");
  NodeId film = b.AddNode("product");
  b.SetAttr(film, "type", "film");
  b.AddEdge(john, film, "create");
  auto g = std::move(b).Build();
  EXPECT_TRUE(SatisfiesGfd(g, Phi1(g)));
}

TEST(Validation, MissingLhsAttributeSatisfiesVacuously) {
  // Product without type attribute: X never holds, phi1 satisfied. The
  // key is interned (no node carries it) so that Phi1 can name it.
  PropertyGraph::Builder b;
  b.InternAttr("type");
  b.InternValue("film");
  b.InternValue("producer");
  NodeId john = b.AddNode("person");
  NodeId film = b.AddNode("product");
  b.AddEdge(john, film, "create");
  auto g = std::move(b).Build();
  EXPECT_TRUE(SatisfiesGfd(g, Phi1(g)));
}

TEST(Validation, MissingRhsAttributeViolates) {
  // y.type=film holds but x has no type attribute: RHS cannot hold.
  PropertyGraph::Builder b;
  b.InternValue("producer");
  NodeId john = b.AddNode("person");
  NodeId film = b.AddNode("product");
  b.SetAttr(film, "type", "film");
  b.AddEdge(john, film, "create");
  auto g = std::move(b).Build();
  EXPECT_FALSE(SatisfiesGfd(g, Phi1(g)));
}

TEST(Validation, EvaluateComputesSupports) {
  auto g = BuildG2();
  Gfd phi = Phi2(g);
  CompiledPattern cq(phi.pattern);
  auto r = EvaluateGfd(g, cq, phi);
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.pattern_support, 1u);   // only SaintPetersburg matches pivot
  EXPECT_EQ(r.gfd_support, 0u);       // no match satisfies y.name=z.name
  EXPECT_EQ(r.violating_pivots, 1u);
}

TEST(Validation, EvaluateSupportsConsistentGraph) {
  // Two cities each located in exactly one country: phi2 holds with
  // support 2 (each city pivot has matches y=z? no -- y and z must be
  // distinct nodes, so Q2 needs two located edges).
  PropertyGraph::Builder b;
  NodeId c1 = b.AddNode("city");
  b.SetAttr(c1, "name", "P1");
  NodeId r1 = b.AddNode("country");
  b.SetAttr(r1, "name", "R1");
  NodeId r1b = b.AddNode("region");
  b.SetAttr(r1b, "name", "R1");  // same name: consistent double location
  b.AddEdge(c1, r1, "located");
  b.AddEdge(c1, r1b, "located");
  auto g = std::move(b).Build();
  Gfd phi = Phi2(g);
  CompiledPattern cq(phi.pattern);
  auto r = EvaluateGfd(g, cq, phi);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.pattern_support, 1u);
  EXPECT_EQ(r.gfd_support, 1u);
}

TEST(Validation, SatisfiesAllStopsAtFirstFailure) {
  auto g = BuildG2();
  std::vector<Gfd> sigma{Phi2(g)};
  EXPECT_FALSE(SatisfiesAll(g, sigma));
  std::vector<Gfd> empty;
  EXPECT_TRUE(SatisfiesAll(g, empty));
}

TEST(Validation, NegativeGfdSatisfiedWhenPatternAbsent) {
  // A parent chain without a cycle: Q3 has no match, phi3 holds.
  PropertyGraph::Builder b;
  NodeId a = b.AddNode("person");
  NodeId c = b.AddNode("person");
  b.AddEdge(a, c, "parent");
  auto g = std::move(b).Build();
  EXPECT_TRUE(SatisfiesGfd(g, Phi3(g)));
}

TEST(CountSupportingPivotsTest, CountsAndShortCircuits) {
  auto g = BuildG3();
  auto q3 = BuildQ3(g);
  CompiledPattern cq(q3);
  AttrId name = *g.FindAttr("name");
  // Condition: x.name = 'John Brown'.
  std::vector<Literal> cond{
      Literal::Const(0, name, *g.FindValue("John Brown"))};
  EXPECT_EQ(CountSupportingPivots(g, cq, cond), 1u);
  EXPECT_EQ(CountSupportingPivots(g, cq, {}), 2u);
  EXPECT_EQ(CountSupportingPivots(g, cq, cond, /*any_only=*/true), 1u);
  // Impossible condition.
  std::vector<Literal> no{Literal::Const(0, name, *g.FindValue("Owen Brown")),
                          Literal::Const(0, name, *g.FindValue("John Brown"))};
  EXPECT_EQ(CountSupportingPivots(g, cq, no), 0u);
}

TEST(FindViolationsTest, ReturnsViolatingMatches) {
  auto g = BuildG2();
  auto v = FindViolations(g, Phi2(g), 10);
  // Two symmetric violating matches (y,z swapped).
  EXPECT_EQ(v.size(), 2u);
  for (const auto& m : v) EXPECT_EQ(m[0], 0u);
}

TEST(FindViolationsTest, RespectsLimit) {
  auto g = BuildG2();
  EXPECT_EQ(FindViolations(g, Phi2(g), 1).size(), 1u);
  EXPECT_TRUE(FindViolations(g, Phi2(g), 0).empty());
}

TEST(ViolationNodesTest, MarksRhsNodes) {
  auto g = BuildG2();
  std::vector<Gfd> sigma{Phi2(g)};
  auto nodes = ViolationNodes(g, sigma);
  // rhs is y.name = z.name: implicated nodes are Russia(1) and Florida(2),
  // not the pivot city.
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 1u);
  EXPECT_EQ(nodes[1], 2u);
}

TEST(ViolationNodesTest, FalseRhsMarksWholeMatch) {
  auto g = BuildG3();
  std::vector<Gfd> sigma{Phi3(g)};
  auto nodes = ViolationNodes(g, sigma);
  ASSERT_EQ(nodes.size(), 2u);  // both Browns
}

TEST(ViolationNodesTest, CleanGraphYieldsNone) {
  PropertyGraph::Builder b;
  NodeId a = b.AddNode("person");
  NodeId c = b.AddNode("person");
  b.AddEdge(a, c, "parent");
  auto g = std::move(b).Build();
  std::vector<Gfd> sigma{Phi3(g)};
  EXPECT_TRUE(ViolationNodes(g, sigma).empty());
}

}  // namespace
}  // namespace gfd
