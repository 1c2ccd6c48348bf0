#include <gtest/gtest.h>

#include <sstream>

#include "core/seqdis.h"
#include "datagen/kb.h"
#include "gfd/serialize.h"
#include "testlib.h"

namespace gfd {
namespace {

using gfd::testing::BuildG1;
using gfd::testing::BuildG2;
using gfd::testing::BuildQ1;
using gfd::testing::BuildQ2;

Gfd Phi1(const PropertyGraph& g) {
  AttrId type = *g.FindAttr("type");
  return Gfd(BuildQ1(g), {Literal::Const(1, type, *g.FindValue("film"))},
             Literal::Const(0, type, *g.FindValue("producer")));
}

TEST(Serialize, RendersAllSections) {
  auto g = BuildG1();
  std::string s = SerializeGfd(Phi1(g), g);
  EXPECT_NE(s.find("nodes=person|product"), std::string::npos);
  EXPECT_NE(s.find("edges=0:create:1"), std::string::npos);
  EXPECT_NE(s.find("pivot=0"), std::string::npos);
  EXPECT_NE(s.find("lhs=1.type='film'"), std::string::npos);
  EXPECT_NE(s.find("rhs=0.type='producer'"), std::string::npos);
}

TEST(Serialize, RoundTripsPositive) {
  auto g = BuildG1();
  Gfd phi = Phi1(g);
  auto parsed = ParseGfd(SerializeGfd(phi, g), g);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, phi);
}

TEST(Serialize, RoundTripsNegativeAndWildcards) {
  auto g = BuildG2();
  AttrId name = *g.FindAttr("name");
  Gfd phi(BuildQ2(g), {Literal::Vars(1, name, 2, name)}, Literal::False());
  auto parsed = ParseGfd(SerializeGfd(phi, g), g);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, phi);
  EXPECT_EQ(parsed->pattern.NodeLabel(1), kWildcardLabel);
}

TEST(Serialize, RoundTripsEmptyLhs) {
  auto g = BuildG2();
  AttrId name = *g.FindAttr("name");
  Gfd phi(BuildQ2(g), {}, Literal::Vars(1, name, 2, name));
  auto parsed = ParseGfd(SerializeGfd(phi, g), g);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, phi);
}

TEST(Serialize, RoundTripsValuesWithSpaces) {
  auto g = BuildG2();
  AttrId name = *g.FindAttr("name");
  Gfd phi(BuildQ2(g),
          {Literal::Const(0, name, *g.FindValue("Saint Petersburg"))},
          Literal::False());
  auto parsed = ParseGfd(SerializeGfd(phi, g), g);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, phi);
}

TEST(Serialize, RejectsUnknownVocabulary) {
  auto g = BuildG1();
  std::string error;
  EXPECT_FALSE(ParseGfd("nodes=alien;edges=;pivot=0;lhs=;rhs=false", g,
                        &error));
  EXPECT_NE(error.find("unknown label"), std::string::npos);
  EXPECT_FALSE(ParseGfd(
      "nodes=person;edges=;pivot=0;lhs=;rhs=0.nosuch='x'", g, &error));
}

TEST(Serialize, RejectsStructuralErrors) {
  auto g = BuildG1();
  std::string error;
  // Edge endpoint out of range.
  EXPECT_FALSE(ParseGfd(
      "nodes=person;edges=0:create:5;pivot=0;lhs=;rhs=false", g, &error));
  // Pivot out of range.
  EXPECT_FALSE(
      ParseGfd("nodes=person;edges=;pivot=7;lhs=;rhs=false", g, &error));
  // Missing rhs.
  EXPECT_FALSE(ParseGfd("nodes=person;edges=;pivot=0;lhs=", g, &error));
  // No nodes at all.
  EXPECT_FALSE(ParseGfd("nodes=;edges=;pivot=0;lhs=;rhs=false", g, &error));
  // Literal variable out of range.
  EXPECT_FALSE(ParseGfd(
      "nodes=person;edges=;pivot=0;lhs=;rhs=3.type='film'", g, &error));
}

// The matcher enumerates connected patterns only, so a rule whose
// pattern falls apart must fail the parse, not reach detection: strict
// loading names its line and lenient loading skips it. (Discovery emits
// connected patterns only, so the rules it writes still load:
// FileLevelRoundTripOfMinedRules.)
TEST(Serialize, RejectsADisconnectedPattern) {
  auto g = BuildG1();
  const std::string apart =
      "nodes=person|product;edges=;pivot=0;lhs=;rhs=false";
  const std::string loop_apart =
      "nodes=person|product|person;edges=0:create:0,2:create:1;pivot=0;"
      "lhs=;rhs=false";
  const std::string joined =
      "nodes=person|product;edges=0:create:1;pivot=0;lhs=;rhs=false";
  for (const std::string& line : {apart, loop_apart}) {
    std::string error;
    EXPECT_FALSE(ParseGfd(line, g, &error).has_value()) << line;
    EXPECT_EQ(error, "pattern is not connected") << line;
  }
  EXPECT_TRUE(ParseGfd(joined, g).has_value());

  std::stringstream strict(joined + "\n" + apart + "\n");
  std::string error;
  EXPECT_FALSE(LoadGfds(strict, g, &error).has_value());
  EXPECT_EQ(error, "line 2: pattern is not connected");

  std::stringstream lenient(apart + "\n" + joined + "\n" + loop_apart + "\n");
  size_t skipped = 0;
  auto loaded = LoadGfdsLenient(lenient, g, &skipped);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(skipped, 2u);
  EXPECT_TRUE(loaded[0].pattern.IsConnected());
}

TEST(Serialize, FileLevelRoundTripOfMinedRules) {
  auto g = MakeYago2Like({.scale = 150, .seed = 3});
  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  auto mined = SeqDis(g, cfg);
  auto sigma = mined.AllGfds();
  ASSERT_FALSE(sigma.empty());

  std::stringstream ss;
  SaveGfds(sigma, g, ss);
  std::string error;
  auto loaded = LoadGfds(ss, g, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), sigma.size());
  for (size_t i = 0; i < sigma.size(); ++i) {
    EXPECT_EQ((*loaded)[i], sigma[i]) << i;
  }
}

TEST(Serialize, LoadSkipsCommentsAndReportsLine) {
  auto g = BuildG1();
  std::stringstream ss("# comment\n\nnodes=person;edges=;pivot=0;lhs=;"
                       "rhs=false\nnot a gfd\n");
  std::string error;
  auto loaded = LoadGfds(ss, g, &error);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_NE(error.find("line 4"), std::string::npos);
}

TEST(Serialize, LenientLoadSkipsUnresolvableRulesAndKeepsTheRest) {
  auto g = BuildG1();
  // Line 2 references a value G1 never interned (vocabulary drift after a
  // TSV round trip); line 3 a label it never interned.
  // Hand-corrupted lines must be *skipped*, never crash the parse: a
  // non-numeric pivot, non-numeric edge endpoints, and a term whose
  // variable is not a number all used to reach throwing std::stoul.
  std::stringstream ss(
      "nodes=person;edges=;pivot=0;lhs=;rhs=false\n"
      "nodes=person;edges=;pivot=0;lhs=;rhs=0.type='astronaut'\n"
      "nodes=martian;edges=;pivot=0;lhs=;rhs=false\n"
      "nodes=person;edges=;pivot=oops;lhs=;rhs=false\n"
      "nodes=person|product;edges=a:create:b;pivot=0;lhs=;rhs=false\n"
      "nodes=person;edges=;pivot=0;lhs=;rhs=x.type='film'\n"
      "nodes=person|product;edges=0:create:1;pivot=0;lhs=;rhs=false\n");
  size_t skipped = 0;
  auto loaded = LoadGfdsLenient(ss, g, &skipped);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(skipped, 5u);
  for (const auto& phi : loaded) EXPECT_TRUE(phi.HasFalseRhs());
}

}  // namespace
}  // namespace gfd
