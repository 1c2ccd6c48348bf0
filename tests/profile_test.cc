#include <gtest/gtest.h>

#include "core/profile.h"
#include "gfd/validation.h"
#include "testlib.h"

namespace gfd {
namespace {

using gfd::testing::BuildG2;
using gfd::testing::BuildG3;
using gfd::testing::BuildQ2;
using gfd::testing::BuildQ3;

TEST(MatchStoreTest, EnumeratesAllMatches) {
  auto g = BuildG3();
  CompiledPattern cq(BuildQ3(g));
  auto store = EnumerateMatches(g, cq, 1000);
  EXPECT_EQ(store.matches.size(), 2u);
  EXPECT_FALSE(store.truncated);
}

TEST(MatchStoreTest, TruncatesAtCap) {
  auto g = BuildG3();
  CompiledPattern cq(BuildQ3(g));
  auto store = EnumerateMatches(g, cq, 1);
  EXPECT_EQ(store.matches.size(), 1u);
  EXPECT_TRUE(store.truncated);
}

TEST(MatchConstants, CountsPerVarAttrValue) {
  auto g = BuildG2();
  CompiledPattern cq(BuildQ2(g));
  auto store = EnumerateMatches(g, cq, 1000);
  ASSERT_EQ(store.matches.size(), 2u);
  AttrId name = *g.FindAttr("name");
  auto consts = CollectMatchConstants(g, store.matches, {name});
  // Vars: x0 (SaintPetersburg twice), x1/x2 (Russia, Florida once each).
  // Top entry must be (x0, name, 'Saint Petersburg') with count 2.
  ASSERT_FALSE(consts.empty());
  EXPECT_EQ(consts[0].var, 0u);
  EXPECT_EQ(consts[0].count, 2u);
  EXPECT_EQ(g.ValueName(consts[0].value), "Saint Petersburg");
  // 1 + 2 + 2 entries total (x1 and x2 each see both country names).
  EXPECT_EQ(consts.size(), 5u);
}

TEST(MatchConstants, IgnoresAttrsOutsideGamma) {
  auto g = BuildG2();
  CompiledPattern cq(BuildQ2(g));
  auto store = EnumerateMatches(g, cq, 1000);
  auto consts = CollectMatchConstants(g, store.matches, {});
  EXPECT_TRUE(consts.empty());
}

TEST(ProfileTest, SupportsMatchValidationQueries) {
  auto g = BuildG2();
  Pattern q2 = BuildQ2(g);
  CompiledPattern cq(q2);
  AttrId name = *g.FindAttr("name");
  std::vector<Literal> pool{
      Literal::Vars(1, name, 2, name),                        // bit 0
      Literal::Const(1, name, *g.FindValue("Russia")),        // bit 1
      Literal::Const(2, name, *g.FindValue("Florida")),       // bit 2
  };
  auto store = EnumerateMatches(g, cq, 1000);
  PatternProfile profile(g, store, q2.pivot(), pool);

  EXPECT_EQ(profile.PatternSupport(), 1u);  // one pivot city
  EXPECT_EQ(profile.num_matches(), 2u);

  // y.name = z.name never holds.
  LitMask eq;
  eq.set(0);
  EXPECT_EQ(profile.SupportOf(eq), 0u);
  EXPECT_FALSE(profile.AnyMatchSatisfies(eq));
  // ...but the attributes are present: the OWA gate is open.
  EXPECT_TRUE(profile.AnyMatchPresents(eq));

  // One match has y=Russia, z=Florida.
  LitMask rf;
  rf.set(1);
  rf.set(2);
  EXPECT_TRUE(profile.AnyMatchSatisfies(rf));
  EXPECT_EQ(profile.SupportOf(rf), 1u);

  // G2 violates "∅ -> y.name = z.name".
  EXPECT_FALSE(profile.Satisfied(LitMask{}, 0));
  // "y=Russia -> z=Florida" holds on G2 (the one such match satisfies it).
  LitMask lhs;
  lhs.set(1);
  EXPECT_TRUE(profile.Satisfied(lhs, 2));
}

TEST(ProfileTest, AgreesWithEvaluateGfd) {
  auto g = BuildG2();
  Pattern q2 = BuildQ2(g);
  CompiledPattern cq(q2);
  AttrId name = *g.FindAttr("name");
  std::vector<Literal> pool{Literal::Vars(1, name, 2, name)};
  auto store = EnumerateMatches(g, cq, 1000);
  PatternProfile profile(g, store, q2.pivot(), pool);

  Gfd phi2(q2, {}, pool[0]);
  auto direct = EvaluateGfd(g, cq, phi2);
  EXPECT_EQ(profile.PatternSupport(), direct.pattern_support);
  LitMask rhs_only;
  rhs_only.set(0);
  EXPECT_EQ(profile.SupportOf(rhs_only), direct.gfd_support);
  EXPECT_EQ(profile.Satisfied(LitMask{}, 0), direct.satisfied);
}

TEST(ProfileTest, PresenceDiffersFromSatisfaction) {
  // Node with attribute present but different value: present yes, sat no.
  PropertyGraph::Builder b;
  b.InternValue("red");
  NodeId v = b.AddNode("thing");
  b.SetAttr(v, "color", "blue");
  auto g = std::move(b).Build();
  Pattern q = SingleNodePattern(*g.FindLabel("thing"));
  CompiledPattern cq(q);
  std::vector<Literal> pool{
      Literal::Const(0, *g.FindAttr("color"), *g.FindValue("red"))};
  auto store = EnumerateMatches(g, cq, 10);
  PatternProfile profile(g, store, 0, pool);
  LitMask m;
  m.set(0);
  EXPECT_FALSE(profile.AnyMatchSatisfies(m));
  EXPECT_TRUE(profile.AnyMatchPresents(m));
}

TEST(ProfileTest, FromRowsGroupsByPivot) {
  std::vector<ProfileRow> rows;
  LitMask a;
  a.set(0);
  rows.push_back({5, a, a});
  rows.push_back({3, LitMask{}, a});
  rows.push_back({5, LitMask{}, LitMask{}});
  auto p = PatternProfile::FromRows(std::move(rows), 1);
  EXPECT_EQ(p.PatternSupport(), 2u);
  ASSERT_EQ(p.pivots().size(), 2u);
  EXPECT_EQ(p.pivots()[0], 3u);
  EXPECT_EQ(p.pivots()[1], 5u);
  EXPECT_EQ(p.num_matches(), 3u);
  LitMask m;
  m.set(0);
  EXPECT_EQ(p.SupportOf(m), 1u);  // only pivot 5 has a satisfying match
}

// --- PatternProfile::Answer: the one evaluator of lattice queries ------------

LitMask Bits(std::initializer_list<size_t> bits) {
  LitMask m;
  for (size_t b : bits) m.set(b);
  return m;
}

// Rows in which sat and presence disagree, so an answer read from the
// wrong masks (or counted per match instead of per pivot) comes out
// different. Bits 2 and 3 are present on some match but never together.
PatternProfile AnswerFixture() {
  return PatternProfile::FromRows(
      {
          {1, Bits({0, 1}), Bits({0, 1, 2})},
          {1, Bits({0, 1}), Bits({0, 1})},
          {2, Bits({0, 1}), Bits({0, 1})},
          {3, Bits({1}), Bits({0, 1})},  // bit 0's attribute differs
          {4, Bits({}), Bits({3})},
      },
      4);
}

TEST(ProfileAnswer, SupportCountsPivotsOverSatMasks) {
  auto p = AnswerFixture();
  auto a = p.Answer({LatticeQuery::kSupport, Bits({0})});
  EXPECT_EQ(a.supp, 2u);  // pivots 1 and 2; presence would give 3
  EXPECT_TRUE(a.any_sat);
  auto none = p.Answer({LatticeQuery::kSupport, Bits({2})});
  EXPECT_EQ(none.supp, 0u);
  EXPECT_FALSE(none.any_sat);
}

TEST(ProfileAnswer, ViolatedCandidate) {
  auto p = AnswerFixture();
  // Pivot 3's match satisfies bit 1 but not bit 0, although bit 0's
  // attributes are present: a violation only the sat masks show.
  auto a = p.Answer({LatticeQuery::kCandidate, Bits({1}), 0});
  EXPECT_TRUE(a.violated);
  EXPECT_EQ(a.supp, 0u);  // undefined when violated, left zero
}

TEST(ProfileAnswer, SatisfiedCandidateCarriesItsSupport) {
  auto p = AnswerFixture();
  auto a = p.Answer({LatticeQuery::kCandidate, Bits({0}), 1});
  EXPECT_FALSE(a.violated);
  // Pivots 1 and 2 witness {0, 1}; per match it would be 3, and over
  // presence masks (pivot 3 too) also 3.
  EXPECT_EQ(a.supp, 2u);
}

TEST(ProfileAnswer, EmptinessWithAttributesAbsentOnEveryMatch) {
  auto p = AnswerFixture();
  auto a = p.Answer({LatticeQuery::kEmptiness, Bits({2, 3})});
  EXPECT_FALSE(a.any_sat);
  EXPECT_FALSE(a.any_present);  // each bit is present somewhere, not both
}

TEST(ProfileAnswer, EmptinessWithAttributesPresentButUnsatisfied) {
  auto p = AnswerFixture();
  auto a = p.Answer({LatticeQuery::kEmptiness, Bits({2})});
  EXPECT_FALSE(a.any_sat);
  EXPECT_TRUE(a.any_present);  // the sat masks would say absent
  auto sat = p.Answer({LatticeQuery::kEmptiness, Bits({0, 1})});
  EXPECT_TRUE(sat.any_sat);
  EXPECT_FALSE(sat.any_present);  // undefined when satisfiable, left false
}

TEST(ProfileTest, MaskOfFindsPoolPositions) {
  std::vector<Literal> pool{Literal::Const(0, 1, 2), Literal::Const(0, 1, 3),
                            Literal::Vars(0, 1, 1, 1)};
  auto m = MaskOf({pool[2], pool[0]}, pool);
  EXPECT_TRUE(m.test(0));
  EXPECT_FALSE(m.test(1));
  EXPECT_TRUE(m.test(2));
}

TEST(ProfileTest, EmptyProfileQueries) {
  auto g = BuildG2();
  // Pattern that cannot match: country with an outgoing located edge.
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("country"));
  VarId y = q.AddNode(kWildcardLabel);
  q.AddEdge(x, y, *g.FindLabel("located"));
  q.set_pivot(x);
  CompiledPattern cq(q);
  auto store = EnumerateMatches(g, cq, 10);
  PatternProfile profile(g, store, 0, {});
  EXPECT_EQ(profile.PatternSupport(), 0u);
  EXPECT_TRUE(profile.Satisfied(LitMask{}, 0));
  EXPECT_FALSE(profile.AnyMatchSatisfies(LitMask{}));
}

}  // namespace
}  // namespace gfd
