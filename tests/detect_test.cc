// The batched violation engine: pattern grouping, shared-plan evaluation,
// budgets and parallel execution -- all cross-checked against the naive
// per-GFD detection loop.
#include "detect/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/seqdis.h"
#include "datagen/gfd_gen.h"
#include "datagen/kb.h"
#include "datagen/noise.h"
#include "datagen/synthetic.h"
#include "detect_checks.h"
#include "gfd/validation.h"
#include "testlib.h"

namespace gfd {
namespace {

// One graph holding all three Fig. 1 error scenarios side by side, plus
// clean counterparts, so a single rule set exercises multi-group
// detection: person-create-product (phi1's world), doubly-located city
// (phi2's), mutual parents (phi3's).
PropertyGraph BuildFixture() {
  PropertyGraph::Builder b;
  b.InternValue("producer");
  NodeId p0 = b.AddNode("person");  // a proper producer
  b.SetName(p0, "Producer0");
  b.SetAttr(p0, "type", "producer");
  NodeId p1 = b.AddNode("person");  // the YAGO3 high jumper
  b.SetName(p1, "HighJumper");
  b.SetAttr(p1, "type", "high_jumper");
  NodeId p2 = b.AddNode("person");  // creates an album, not a film
  b.SetName(p2, "Musician");
  b.SetAttr(p2, "type", "producer");
  NodeId f0 = b.AddNode("product");
  b.SetAttr(f0, "type", "film");
  NodeId f1 = b.AddNode("product");
  b.SetAttr(f1, "type", "film");
  NodeId f2 = b.AddNode("product");
  b.SetAttr(f2, "type", "album");
  b.AddEdge(p0, f0, "create");
  b.AddEdge(p1, f1, "create");
  b.AddEdge(p2, f2, "create");

  NodeId c0 = b.AddNode("city");
  b.SetName(c0, "SaintPetersburg");
  b.SetAttr(c0, "name", "Saint Petersburg");
  NodeId ru = b.AddNode("country");
  b.SetAttr(ru, "name", "Russia");
  NodeId fl = b.AddNode("city");
  b.SetAttr(fl, "name", "Florida");
  b.AddEdge(c0, ru, "located");
  b.AddEdge(c0, fl, "located");

  NodeId jb = b.AddNode("person");
  b.SetName(jb, "JohnBrown");
  b.SetAttr(jb, "type", "farmer");
  NodeId ob = b.AddNode("person");
  b.SetName(ob, "OwenBrown");
  b.SetAttr(ob, "type", "farmer");
  b.AddEdge(jb, ob, "parent");
  b.AddEdge(ob, jb, "parent");
  return std::move(b).Build();
}

// phi1: person x0 -create-> product x1, x1.type='film' -> x0.type='producer'.
Gfd Phi1(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("product"));
  q.AddEdge(x, y, *g.FindLabel("create"));
  q.set_pivot(x);
  AttrId type = *g.FindAttr("type");
  return Gfd(q, {Literal::Const(y, type, *g.FindValue("film"))},
             Literal::Const(x, type, *g.FindValue("producer")));
}

// Same dependency as Phi1 but with the variables added in the opposite
// order (product is x0) -- isomorphic pattern, different variable space.
Gfd Phi1Permuted(const PropertyGraph& g) {
  Pattern q;
  VarId y = q.AddNode(*g.FindLabel("product"));
  VarId x = q.AddNode(*g.FindLabel("person"));
  q.AddEdge(x, y, *g.FindLabel("create"));
  q.set_pivot(x);
  AttrId type = *g.FindAttr("type");
  return Gfd(q, {Literal::Const(y, type, *g.FindValue("film"))},
             Literal::Const(x, type, *g.FindValue("producer")));
}

// LHS-free variant on the same pattern: every creator must be a producer.
Gfd Phi1NoLhs(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("product"));
  q.AddEdge(x, y, *g.FindLabel("create"));
  q.set_pivot(x);
  AttrId type = *g.FindAttr("type");
  return Gfd(q, {}, Literal::Const(x, type, *g.FindValue("producer")));
}

// phi2: city x0 -located-> _ x1, x0 -located-> _ x2 -> x1.name = x2.name.
Gfd Phi2(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("city"));
  VarId y = q.AddNode(kWildcardLabel);
  VarId z = q.AddNode(kWildcardLabel);
  LabelId located = *g.FindLabel("located");
  q.AddEdge(x, y, located);
  q.AddEdge(x, z, located);
  q.set_pivot(x);
  AttrId name = *g.FindAttr("name");
  return Gfd(q, {}, Literal::Vars(y, name, z, name));
}

// phi3: mutual parents are illegal.
Gfd Phi3(const PropertyGraph& g) {
  Pattern q;
  VarId x = q.AddNode(*g.FindLabel("person"));
  VarId y = q.AddNode(*g.FindLabel("person"));
  LabelId parent = *g.FindLabel("parent");
  q.AddEdge(x, y, parent);
  q.AddEdge(y, x, parent);
  q.set_pivot(x);
  return Gfd(q, {}, Literal::False());
}

std::vector<Gfd> FixtureRules(const PropertyGraph& g) {
  return {Phi1(g), Phi1Permuted(g), Phi1NoLhs(g), Phi2(g), Phi3(g)};
}

TEST(ViolationEngine, GroupsIsomorphicPatternsUnderOnePlan) {
  auto g = BuildFixture();
  ViolationEngine engine(FixtureRules(g));
  EXPECT_EQ(engine.NumRules(), 5u);
  // phi1 / phi1-permuted / phi1-no-lhs share one plan; phi2 and phi3 get
  // their own.
  EXPECT_EQ(engine.NumGroups(), 3u);
}

TEST(ViolationEngine, MatchesNaivePerGfdDetection) {
  auto g = BuildFixture();
  auto rules = FixtureRules(g);
  ViolationEngine engine(rules);
  auto batched = engine.Detect(g);
  auto naive = DetectNaive(g, rules);
  EXPECT_EQ(batched.violations, naive.violations);
  EXPECT_FALSE(batched.stats.truncated);
  // The shared plans did strictly less matching work than the per-rule
  // loop: three rules rode on one enumeration of the create-pattern.
  EXPECT_LT(batched.stats.matches_seen, naive.stats.matches_seen);
  EXPECT_LT(batched.stats.num_groups, naive.stats.num_groups);
}

TEST(ViolationEngine, FindsTheExpectedFixtureViolations) {
  auto g = BuildFixture();
  auto rules = FixtureRules(g);
  ViolationEngine engine(rules);
  auto result = engine.Detect(g);
  // phi1: HighJumper->film. phi1-permuted: the same error, its own var
  // order. phi1-no-lhs: HighJumper (Musician IS a producer). phi2: the
  // doubly-located city, both (y,z) orders. phi3: both Browns as pivots.
  ASSERT_EQ(result.violations.size(), 1 + 1 + 1 + 2 + 2u);
  std::vector<size_t> per_rule(engine.NumRules(), 0);
  for (const auto& v : result.violations) ++per_rule[v.gfd_index];
  EXPECT_EQ(per_rule, (std::vector<size_t>{1, 1, 1, 2, 2}));
}

TEST(ViolationEngine, CountsTheFixtureWork) {
  // Three groups: person -create-> product (phi1 and its two variants),
  // the doubly-located city (phi2), mutual parents (phi3). A pivot counts
  // when its group's root step admits it: 5 persons with an out-edge, 1
  // city with two out-neighbours, 2 persons with an edge each way.
  auto g = BuildFixture();
  ViolationEngine engine(FixtureRules(g));
  ASSERT_EQ(engine.NumGroups(), 3u);
  for (size_t workers : {1u, 4u}) {
    DetectOptions opts;
    opts.workers = workers;
    auto result = engine.Detect(g, opts);
    EXPECT_EQ(result.stats.pivots_scanned, 5 + 1 + 2u);
    // 3 create edges, 2 (y, z) orders, 2 mutual-parent orientations.
    EXPECT_EQ(result.stats.matches_seen, 3 + 2 + 2u);
    // A match tests only the members it can violate. phi1 and its
    // permutation are keyed by y.type = 'film', phi1-no-lhs by nothing:
    // the two film matches test all three, the album match phi1-no-lhs
    // alone. phi2 and phi3 have no constant LHS literal, so each of
    // their matches tests its one member.
    EXPECT_EQ(result.stats.literal_evals, 2 * 3 + 1 + 2 + 2u);
  }
}

TEST(ViolationEngine, TranslatesMatchesIntoEachRulesOwnVariableSpace) {
  auto g = BuildFixture();
  auto rules = FixtureRules(g);
  ViolationEngine engine(rules);
  auto result = engine.Detect(g);
  NodeId jumper = 1, film1 = 4;  // builder insertion order in BuildFixture
  for (const auto& v : result.violations) {
    if (v.gfd_index == 0) {  // phi1: x0 = person, x1 = product
      EXPECT_EQ(v.match, (Match{jumper, film1}));
      EXPECT_EQ(v.pivot, jumper);
    }
    if (v.gfd_index == 1) {  // permuted: x0 = product, x1 = person
      EXPECT_EQ(v.match, (Match{film1, jumper}));
      EXPECT_EQ(v.pivot, jumper);  // pivot entity is unchanged
    }
  }
}

TEST(ViolationEngine, PerRuleCapBoundsEachRule) {
  auto g = BuildFixture();
  ViolationEngine engine(FixtureRules(g));
  DetectOptions opts;
  opts.max_violations_per_gfd = 1;
  auto result = engine.Detect(g, opts);
  std::vector<size_t> per_rule(engine.NumRules(), 0);
  for (const auto& v : result.violations) ++per_rule[v.gfd_index];
  for (size_t c : per_rule) EXPECT_LE(c, 1u);
  // phi2 and phi3 each had 2 violations, so the cap must have bitten.
  EXPECT_EQ(result.violations.size(), 5u);
  EXPECT_TRUE(result.stats.truncated);
}

TEST(ViolationEngine, GlobalBudgetStopsTheRun) {
  auto g = BuildFixture();
  ViolationEngine engine(FixtureRules(g));
  DetectOptions opts;
  opts.max_total_violations = 2;
  auto result = engine.Detect(g, opts);
  EXPECT_EQ(result.violations.size(), 2u);
  EXPECT_TRUE(result.stats.truncated);
}

TEST(ViolationEngine, CleanGraphYieldsNoViolations) {
  auto g = MakeYago2Like({.scale = 120, .seed = 7});
  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  // Everything mined from g holds on g by construction.
  ViolationEngine engine(SeqDis(g, cfg).AllGfds());
  ASSERT_GT(engine.NumRules(), 0u);
  auto result = engine.Detect(g);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_FALSE(result.stats.truncated);
}

// Rules mined from a clean Yago2Like(200) graph, and a noisy copy of it.
struct MinedWorkload {
  std::vector<Gfd> rules;
  PropertyGraph noisy;
};

MinedWorkload MineAndCorrupt() {
  auto clean = MakeYago2Like({.scale = 200, .seed = 11});
  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  auto noisy = InjectNoise(clean, {.alpha = 0.08, .beta = 0.6, .seed = 3});
  return {SeqDis(clean, cfg).AllGfds(), std::move(noisy.graph)};
}

TEST(ViolationEngine, MinedRulesCatchInjectedNoise) {
  const MinedWorkload w = MineAndCorrupt();
  ViolationEngine engine(w.rules);
  DetectOptions opts;
  opts.workers = 2;
  auto result = engine.Detect(w.noisy, opts);
  EXPECT_FALSE(result.violations.empty());
  // Agrees with the per-rule loop on the corrupted graph.
  auto naive = DetectNaive(w.noisy, engine.rules());
  EXPECT_EQ(result.violations, naive.violations);
}

TEST(ViolationEngine, FullScanIsIdenticalAtEveryWorkerCount) {
  const MinedWorkload w = MineAndCorrupt();
  ViolationEngine engine(w.rules);
  const DetectionResult full =
      testing::ExpectSameAtEveryWorkerCount(engine, w.noisy);
  EXPECT_EQ(full.violations, DetectNaive(w.noisy, engine.rules()).violations);
  EXPECT_GT(full.stats.matches_seen, 0u);
}

TEST(ViolationEngine, CapsHoldExactlyWhenWorkersRaceForThem) {
  const MinedWorkload w = MineAndCorrupt();
  ViolationEngine engine(w.rules);
  const DetectionResult full = engine.Detect(w.noisy);
  for (size_t cap : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "cap " << cap);
    EXPECT_TRUE(testing::ExpectCapsHoldAtFourWorkers(engine, w.noisy, full,
                                                     cap));
  }
}

TEST(ViolationEngine, ParallelWorkersProduceIdenticalOutput) {
  auto g = BuildFixture();
  ViolationEngine engine(FixtureRules(g));
  auto seq = engine.Detect(g, {.workers = 1});
  auto par = engine.Detect(g, {.workers = 4});
  EXPECT_EQ(seq.violations, par.violations);
}

TEST(ViolationEngine, AgreesWithFindViolationsPerRule) {
  // The acceptance cross-check: the engine reproduces exactly the
  // violating matches gfd/validation.h reports, rule by rule.
  auto g = BuildFixture();
  auto rules = FixtureRules(g);
  ViolationEngine engine(rules);
  auto result = engine.Detect(g);
  for (uint32_t i = 0; i < rules.size(); ++i) {
    auto expected = FindViolations(g, rules[i], /*limit=*/1000);
    std::sort(expected.begin(), expected.end());
    std::vector<Match> got;
    for (const auto& v : result.violations) {
      if (v.gfd_index == i) got.push_back(v.match);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "rule " << rules[i].ToString(g);
  }
}

TEST(ViolationEngine, DescribeViolationNamesTheEvidence) {
  auto g = BuildFixture();
  auto rules = FixtureRules(g);
  ViolationEngine engine(rules);
  auto result = engine.Detect(g);
  ASSERT_FALSE(result.violations.empty());
  bool saw_phi1 = false;
  for (const auto& v : result.violations) {
    std::string s = DescribeViolation(g, engine.rules(), v);
    EXPECT_NE(s.find("rule#"), std::string::npos);
    if (v.gfd_index == 0) {
      saw_phi1 = true;
      EXPECT_NE(s.find("HighJumper"), std::string::npos) << s;
      EXPECT_NE(s.find("high_jumper"), std::string::npos) << s;
      EXPECT_NE(s.find("producer"), std::string::npos) << s;
    }
  }
  EXPECT_TRUE(saw_phi1);
}

TEST(ViolationEngine, GeneratedRuleSetsShareGroups) {
  // gfd_gen's redundancy knob reuses patterns, which is exactly the
  // grouping opportunity the engine exploits.
  auto g = MakeSynthetic({.nodes = 300,
                          .edges = 700,
                          .node_labels = 6,
                          .edge_labels = 5,
                          .attrs = 3,
                          .values = 20,
                          .seed = 2});
  GfdGenConfig gcfg;
  gcfg.count = 30;
  gcfg.redundancy = 0.5;
  auto rules = GenerateGfdSet(g, gcfg);
  ViolationEngine engine(rules);
  EXPECT_LT(engine.NumGroups(), engine.NumRules());
  auto batched = engine.Detect(g);
  auto naive = DetectNaive(g, rules);
  EXPECT_EQ(batched.violations, naive.violations);
}

}  // namespace
}  // namespace gfd
