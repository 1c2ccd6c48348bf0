// The violation text a user reads (DescribeViolation over
// ViolationEngine::Detect) names the bound entities -- node names, or
// `#<id>` for unnamed nodes -- and contrasts the expected consequence
// with the actual attribute values, on the paper's Fig. 1 examples.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detect/engine.h"
#include "detect/violation.h"
#include "testlib.h"

namespace gfd {
namespace {

using gfd::testing::BuildG1;
using gfd::testing::BuildG2;
using gfd::testing::BuildG3;
using gfd::testing::BuildQ1;
using gfd::testing::BuildQ2;
using gfd::testing::BuildQ3;

// DescribeViolation's text for each violation of `phi` Detect reports.
std::vector<std::string> Explain(const PropertyGraph& g, const Gfd& phi,
                                 const DetectOptions& opts = {}) {
  ViolationEngine engine({phi});
  std::vector<std::string> out;
  for (const Violation& v : engine.Detect(g, opts).violations) {
    out.push_back(DescribeViolation(g, engine.rules(), v));
  }
  return out;
}

TEST(Explain, ConstConsequenceNamesActualValue) {
  auto g = BuildG1();
  AttrId type = *g.FindAttr("type");
  Gfd phi1(BuildQ1(g), {Literal::Const(1, type, *g.FindValue("film"))},
           Literal::Const(0, type, *g.FindValue("producer")));
  auto reports = Explain(g, phi1);
  ASSERT_EQ(reports.size(), 1u);
  const std::string& d = reports[0];
  EXPECT_NE(d.find("x0=JohnWinter"), std::string::npos) << d;
  EXPECT_NE(d.find("x1=SellingOut"), std::string::npos) << d;
  EXPECT_NE(d.find("expected x0.type='producer'"), std::string::npos) << d;
  EXPECT_NE(d.find("x0.type is 'high_jumper'"), std::string::npos) << d;
}

TEST(Explain, VarVarConsequenceShowsBothSides) {
  auto g = BuildG2();
  AttrId name = *g.FindAttr("name");
  Gfd phi2(BuildQ2(g), {}, Literal::Vars(1, name, 2, name));
  auto reports = Explain(g, phi2);
  ASSERT_EQ(reports.size(), 2u);  // both symmetric matches
  const std::string& d = reports[0];
  EXPECT_NE(d.find("x1.name is"), std::string::npos) << d;
  EXPECT_NE(d.find("x2.name is"), std::string::npos) << d;
}

TEST(Explain, FalseConsequenceCallsStructureIllegal) {
  auto g = BuildG3();
  Gfd phi3(BuildQ3(g), {}, Literal::False());
  auto reports = Explain(g, phi3);
  ASSERT_FALSE(reports.empty());
  EXPECT_NE(reports[0].find("illegal"), std::string::npos) << reports[0];
}

TEST(Explain, MissingAttributeReported) {
  PropertyGraph::Builder b;
  b.InternValue("producer");
  NodeId john = b.AddNode("person");
  b.SetName(john, "John");
  NodeId film = b.AddNode("product");
  b.SetAttr(film, "type", "film");
  b.AddEdge(john, film, "create");
  auto g = std::move(b).Build();
  AttrId type = *g.FindAttr("type");
  Gfd phi(BuildQ1(g), {Literal::Const(1, type, *g.FindValue("film"))},
          Literal::Const(0, type, *g.FindValue("producer")));
  auto reports = Explain(g, phi);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("x0.type is missing"), std::string::npos)
      << reports[0];
}

TEST(Explain, CleanGraphProducesNoReports) {
  PropertyGraph::Builder b;
  NodeId p = b.AddNode("person");
  b.SetAttr(p, "type", "producer");
  NodeId f = b.AddNode("product");
  b.SetAttr(f, "type", "film");
  b.AddEdge(p, f, "create");
  auto g = std::move(b).Build();
  AttrId type = *g.FindAttr("type");
  Gfd phi(BuildQ1(g), {Literal::Const(1, type, *g.FindValue("film"))},
          Literal::Const(0, type, *g.FindValue("producer")));
  EXPECT_TRUE(Explain(g, phi).empty());
}

TEST(Explain, LimitRespected) {
  auto g = BuildG2();
  AttrId name = *g.FindAttr("name");
  Gfd phi2(BuildQ2(g), {}, Literal::Vars(1, name, 2, name));
  EXPECT_EQ(Explain(g, phi2, {.max_violations_per_gfd = 1}).size(), 1u);
}

TEST(Explain, UnnamedNodesUseIds) {
  PropertyGraph::Builder b;
  NodeId a = b.AddNode("person");
  NodeId c = b.AddNode("person");
  b.AddEdge(a, c, "parent");
  b.AddEdge(c, a, "parent");
  auto g = std::move(b).Build();
  Gfd phi3(BuildQ3(g), {}, Literal::False());
  auto reports = Explain(g, phi3);
  ASSERT_FALSE(reports.empty());
  EXPECT_NE(reports[0].find("x0=#"), std::string::npos) << reports[0];
}

}  // namespace
}  // namespace gfd
