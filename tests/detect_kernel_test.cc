// Edge cases of the detection kernel's compiled literal slots: absent
// attributes must satisfy nothing -- two absent attributes are NOT equal
// -- on every detection path (full scans, the naive reference, one-shot
// diffs and both serving backends), and members of one pattern group
// that share slots must evaluate exactly as the per-rule reference does.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "detect/engine.h"
#include "gfd/gfd.h"
#include "gfd/serialize.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "match/matcher.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "serve/serving_store.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;

constexpr NodeId kA = 0;
constexpr NodeId kB = 1;

// Persons A and B (neither has an email), C (email c@x, which interns the
// key and the value) and D; C -likes-> D gives the graph a second edge.
// With `linked`, A -knows-> B.
PropertyGraph BuildPair(bool linked) {
  PropertyGraph::Builder b;
  NodeId a = b.AddNode("person");
  b.SetName(a, "A");
  NodeId v = b.AddNode("person");
  b.SetName(v, "B");
  NodeId c = b.AddNode("person");
  b.SetName(c, "C");
  b.SetAttr(c, "email", "c@x");
  NodeId d = b.AddNode("person");
  b.SetName(d, "D");
  b.AddEdge(c, d, "likes");
  if (linked) {
    b.AddEdge(a, v, "knows");
  } else {
    b.InternLabel("knows");
  }
  return std::move(b).Build();
}

GraphDelta ParseDelta(const PropertyGraph& g, const std::string& tsv) {
  std::istringstream in(tsv);
  std::string error;
  auto d = LoadGraphDeltaTsv(in, g, &error);
  EXPECT_TRUE(d.has_value()) << error;
  return d ? *d : GraphDelta{};
}

// A rule over A -knows-> B with the one violation at (A, B), and two
// batches over the linked graph: `keep` leaves the violation standing,
// `clear` removes it.
struct AbsentCase {
  std::string rule;
  std::string keep;
  std::string clear;
};

void ExpectOneViolationOnEveryPath(const AbsentCase& c) {
  const PropertyGraph g0 = BuildPair(/*linked=*/false);
  const PropertyGraph g1 = BuildPair(/*linked=*/true);
  std::string error;
  auto rule = ParseGfd(c.rule, g1, &error);
  ASSERT_TRUE(rule.has_value()) << error;
  const ViolationEngine engine({*rule});
  const std::vector<Violation> one{{0, kA, {kA, kB}, rule->rhs}};
  const std::string link = "E+\tA\tB\tknows\n";

  // Full scans and the naive reference.
  for (size_t workers : {1u, 4u}) {
    DetectOptions opts;
    opts.workers = workers;
    EXPECT_EQ(engine.Detect(g1, opts).violations, one) << workers;
    auto view = GraphView::Apply(g0, ParseDelta(g0, link));
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(engine.Detect(*view, opts).violations, one) << workers;
  }
  EXPECT_EQ(DetectNaive(g1, engine.rules()).violations, one);

  // One-shot diffs.
  for (size_t workers : {1u, 4u}) {
    IncrementalOptions opts;
    opts.workers = workers;
    auto added = engine.DetectIncremental(g0, ParseDelta(g0, link), opts);
    ASSERT_TRUE(added.has_value());
    EXPECT_EQ(added->added, one);
    EXPECT_TRUE(added->removed.empty());
    auto kept = engine.DetectIncremental(g1, ParseDelta(g1, c.keep), opts);
    ASSERT_TRUE(kept.has_value());
    EXPECT_TRUE(kept->added.empty());
    EXPECT_TRUE(kept->removed.empty());
    auto cleared = engine.DetectIncremental(g1, ParseDelta(g1, c.clear), opts);
    ASSERT_TRUE(cleared.has_value());
    EXPECT_TRUE(cleared->added.empty());
    EXPECT_EQ(cleared->removed, one);
  }

  // Serving steps on both backends, from the unlinked graph.
  for (const bool coordinator : {false, true}) {
    // Per-test directories: ctest runs the cases in parallel.
    const std::string dir =
        ::testing::TempDir() + "gfd_kernel_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        (coordinator ? "_coord" : "_single");
    fs::remove_all(dir);
    std::optional<GraphStore> single;
    std::optional<Coordinator> coord;
    ServingStore* store = nullptr;
    if (coordinator) {
      ASSERT_TRUE(Coordinator::Init(dir, g0, /*fragments=*/2,
                                    /*halo_radius=*/1, &error))
          << error;
      coord = Coordinator::Open(dir, {}, &error);
      if (coord) store = &*coord;
    } else {
      ASSERT_TRUE(GraphStore::Init(dir, g0, &error)) << error;
      single = GraphStore::Open(dir, {}, &error);
      if (single) store = &*single;
    }
    ASSERT_NE(store, nullptr) << error;
    auto added = store->AppendAndDiff(engine, link);
    ASSERT_TRUE(added.has_value());
    EXPECT_EQ(added->added, one) << coordinator;
    EXPECT_TRUE(added->removed.empty()) << coordinator;
    auto kept = store->AppendAndDiff(engine, c.keep);
    ASSERT_TRUE(kept.has_value());
    EXPECT_TRUE(kept->added.empty()) << coordinator;
    EXPECT_TRUE(kept->removed.empty()) << coordinator;
    EXPECT_EQ(engine.Detect(store->MaterializeCurrent()).violations, one);
    auto cleared = store->AppendAndDiff(engine, c.clear);
    ASSERT_TRUE(cleared.has_value());
    EXPECT_TRUE(cleared->added.empty()) << coordinator;
    EXPECT_EQ(cleared->removed, one) << coordinator;
    EXPECT_TRUE(engine.Detect(store->MaterializeCurrent()).violations.empty());
    fs::remove_all(dir);
  }
}

TEST(DetectKernel, TwoAbsentAttributesAreNotEqualOnEveryPath) {
  ExpectOneViolationOnEveryPath(
      {"nodes=person|person;edges=0:knows:1;pivot=0;lhs=;rhs=0.email=1.email",
       // Only A gets an email: still unequal.
       "A\tA\temail=a@x\n",
       // Both get the same one: the violation goes.
       "A\tA\temail=b@x\nA\tB\temail=b@x\n"});
}

TEST(DetectKernel, AnAbsentAttributeMatchesNoConstantOnEveryPath) {
  ExpectOneViolationOnEveryPath(
      {"nodes=person|person;edges=0:knows:1;pivot=0;lhs=;rhs=0.email='c@x'",
       // The rule reads A's email only.
       "A\tB\temail=c@x\n",
       "A\tA\temail=c@x\n"});
}

// People with cities and homes drawn from a small vocabulary (some
// absent), linked by a deterministic spread of knows edges.
PropertyGraph BuildTown() {
  PropertyGraph::Builder b;
  const char* const kPlaces[] = {"paris", "rome", "oslo"};
  constexpr NodeId kPeople = 24;
  for (NodeId v = 0; v < kPeople; ++v) {
    b.AddNode("person");
    if (v % 5 != 0) b.SetAttr(v, "city", kPlaces[v % 3]);
    if (v % 4 != 1) b.SetAttr(v, "home", kPlaces[(v / 2) % 3]);
  }
  for (NodeId v = 0; v < kPeople; ++v) {
    b.AddEdge(v, (v * 7 + 3) % kPeople, "knows");
    if (v % 3 == 0) b.AddEdge(v, (v + 1) % kPeople, "knows");
  }
  return std::move(b).Build();
}

TEST(DetectKernel, MembersSharingSlotsEvaluateAsTheReferenceDoes) {
  const PropertyGraph g = BuildTown();
  Pattern q;
  const VarId x = q.AddNode(*g.FindLabel("person"));
  const VarId y = q.AddNode(*g.FindLabel("person"));
  q.AddEdge(x, y, *g.FindLabel("knows"));
  q.set_pivot(x);
  const AttrId city = *g.FindAttr("city");
  const AttrId home = *g.FindAttr("home");
  const ValueId paris = *g.FindValue("paris");
  const ValueId rome = *g.FindValue("rome");
  // A value the base graph never interned; a delta interns it below.
  GraphDelta d;
  const ValueId fresh = d.InternValue(g, "atlantis");
  ASSERT_GE(fresh, g.values().size());

  const std::vector<Gfd> rules = {
      // Empty LHS.
      Gfd(q, {}, Literal::Vars(x, city, y, city)),
      // Negative: rhs = false.
      Gfd(q, {Literal::Const(x, city, paris), Literal::Const(y, city, paris)},
          Literal::False()),
      // Var-var on a single variable.
      Gfd(q, {}, Literal::Vars(x, city, x, home)),
      Gfd(q, {Literal::Vars(y, home, y, city)}, Literal::Const(x, home, rome)),
      // A constant past the base interner, on either side.
      Gfd(q, {}, Literal::Const(y, city, fresh)),
      Gfd(q, {Literal::Const(x, home, fresh)}, Literal::Vars(x, home, y, home)),
      // More members over the same slots.
      Gfd(q, {Literal::Vars(x, home, y, home)}, Literal::Vars(x, city, y, city)),
      Gfd(q, {Literal::Const(x, city, rome)}, Literal::Const(y, home, paris)),
  };
  const ViolationEngine engine(rules);
  ASSERT_EQ(engine.NumGroups(), 1u);

  for (size_t workers : {1u, 4u}) {
    DetectOptions opts;
    opts.workers = workers;
    const DetectionResult got = engine.Detect(g, opts);
    const DetectionResult want = DetectNaive(g, rules);
    EXPECT_FALSE(want.violations.empty());
    EXPECT_EQ(got.violations, want.violations) << workers;
    // The 32 knows edges are the matches (24 from v -> 7v+3, 8 more from
    // v -> v+1 at v % 3 == 0; none coincide). Five members have no
    // constant LHS literal and are tested at each: 5 * 32 = 160. The
    // others are keyed: the two x.city ones (paris for the negative
    // rule, rome for the last) by x.city, and x.home = atlantis by
    // x.home, which the base graph never holds. So a match also tests
    // one member when x.city is paris -- v % 3 == 0, v % 5 != 0: v in
    // {3, 6, 9, 12, 18, 21}, two edges each, 12 -- or rome -- v % 3 ==
    // 1, v % 5 != 0: 7 nodes, one edge each, 7: 160 + 12 + 7 = 179.
    EXPECT_EQ(got.stats.matches_seen, 32u);
    EXPECT_EQ(got.stats.literal_evals, 179u);
  }

  // Over a view whose overlay writes the fresh value (and others), the
  // engine must agree with the reference over the materialized graph.
  for (NodeId v = 0; v < g.NumNodes(); v += 3) {
    d.SetAttr(v, v % 2 ? city : home, fresh);
  }
  d.SetAttr(1, city, paris);
  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());
  const PropertyGraph m = view->Materialize();
  const DetectionResult want = DetectNaive(m, rules);
  EXPECT_FALSE(want.violations.empty());
  EXPECT_EQ(engine.Detect(*view).violations, want.violations);
  EXPECT_EQ(engine.Detect(m).violations, want.violations);
}

// People with a city, a home and a job from small vocabularies, each
// absent at some nodes, linked by two deterministic spreads of knows
// edges.
PropertyGraph BuildSuburb() {
  PropertyGraph::Builder b;
  const char* const kPlaces[] = {"paris", "rome", "oslo"};
  const char* const kJobs[] = {"baker", "smith"};
  constexpr NodeId kPeople = 60;
  for (NodeId v = 0; v < kPeople; ++v) {
    b.AddNode("person");
    if (v % 7 != 0) b.SetAttr(v, "city", kPlaces[v % 3]);
    if (v % 5 != 2) b.SetAttr(v, "home", kPlaces[(v / 3) % 3]);
    if (v % 4 != 3) b.SetAttr(v, "job", kJobs[v % 2]);
  }
  for (NodeId v = 0; v < kPeople; ++v) {
    b.AddEdge(v, (v * 11 + 5) % kPeople, "knows");
    if (v % 2 == 0) b.AddEdge(v, (v + 7) % kPeople, "knows");
  }
  return std::move(b).Build();
}

// One group of 40 members over x -knows-> y whose constant LHS literals
// repeat and sit on two reads the index keys by, x.city and y.home:
// constants the base graph lacks (`fresh`), a key literal that is not
// the LHS's first, rhs = false, var-var-only and empty LHSs.
std::vector<Gfd> SuburbRules(const PropertyGraph& g, ValueId fresh) {
  Pattern q;
  const VarId x = q.AddNode(*g.FindLabel("person"));
  const VarId y = q.AddNode(*g.FindLabel("person"));
  q.AddEdge(x, y, *g.FindLabel("knows"));
  q.set_pivot(x);
  const AttrId city = *g.FindAttr("city");
  const AttrId home = *g.FindAttr("home");
  const AttrId job = *g.FindAttr("job");
  const ValueId baker = *g.FindValue("baker");
  const ValueId smith = *g.FindValue("smith");
  const std::vector<ValueId> known = {*g.FindValue("paris"),
                                      *g.FindValue("rome"),
                                      *g.FindValue("oslo")};
  std::vector<Gfd> rules;
  auto add = [&](std::vector<Literal> lhs, const Literal& rhs) {
    rules.emplace_back(q, std::move(lhs), rhs);
  };
  for (const ValueId c : {known[0], known[1], known[2], fresh}) {
    for (const ValueId to : known) {
      add({Literal::Const(x, city, c)}, Literal::Const(y, city, to));
      add({Literal::Const(y, home, c)}, Literal::Const(x, home, to));
    }
    // Keyed by x.city and y.home, which more members hold a constant at
    // than x.job, the first literal.
    add({Literal::Const(x, job, baker), Literal::Const(x, city, c)},
        Literal::Vars(x, home, y, home));
    add({Literal::Const(x, job, smith), Literal::Const(y, home, c)},
        Literal::Vars(x, city, y, city));
    add({Literal::Const(x, city, c), Literal::Const(y, home, c)},
        Literal::False());
  }
  add({}, Literal::Vars(x, city, y, city));
  add({}, Literal::Const(y, job, fresh));
  add({Literal::Vars(x, home, y, home)}, Literal::Vars(x, job, y, job));
  add({Literal::Vars(y, home, y, city)}, Literal::Const(x, job, smith));
  return rules;
}

// Uncapped: the index skips only members whose keyed constant the match
// does not carry, so full scans at 1 and 4 workers equal the per-rule
// reference -- over the base graph, where no node holds the fresh
// constant, and over a view whose overlay writes it -- and every step
// equals the diff of two full Detect runs.
TEST(DetectKernel, TheMemberIndexSkipsOnlyMembersAMatchCannotViolate) {
  const PropertyGraph g = BuildSuburb();
  GraphDelta d;
  const ValueId fresh = d.InternValue(g, "atlantis");
  ASSERT_GE(fresh, g.values().size());
  const std::vector<Gfd> rules = SuburbRules(g, fresh);
  ASSERT_GE(rules.size(), 40u);
  const ViolationEngine engine(rules);
  ASSERT_EQ(engine.NumGroups(), 1u);

  const AttrId city = *g.FindAttr("city");
  const AttrId home = *g.FindAttr("home");
  for (NodeId v = 0; v < g.NumNodes(); v += 4) {
    d.SetAttr(v, v % 8 == 0 ? city : home, fresh);
  }
  d.SetAttr(7, city, *g.FindValue("rome"));  // node 7 had no city
  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());
  const PropertyGraph m = view->Materialize();
  const DetectionResult want_base = DetectNaive(g, rules);
  const DetectionResult want_view = DetectNaive(m, rules);
  EXPECT_FALSE(want_base.violations.empty());
  EXPECT_NE(want_base.violations, want_view.violations);
  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << workers << " worker(s)");
    DetectOptions opts;
    opts.workers = workers;
    const DetectionResult got = engine.Detect(g, opts);
    EXPECT_EQ(got.violations, want_base.violations);
    EXPECT_LT(got.stats.literal_evals, got.stats.matches_seen * rules.size());
    EXPECT_EQ(engine.Detect(*view, opts).violations, want_view.violations);
    EXPECT_EQ(engine.Detect(m, opts).violations, want_view.violations);
  }

  // Steps that write key attributes (the fresh constant among them),
  // insert and delete edges, each over the state the one before left.
  const std::vector<std::string> batches = {
      "A\tn0\tcity=atlantis\nA\tn3\thome=atlantis\nA\tn7\tcity=rome\n"
      "E+\tn1\tn2\tknows\nE-\tn0\tn5\tknows\n",
      "A\tn5\thome=paris\nA\tn14\tcity=oslo\nE+\tn5\tn0\tknows\n"
      "E-\tn2\tn9\tknows\n",
      "A\tn8\thome=atlantis\tcity=paris\nA\tn10\tjob=baker\n"
      "E+\tn10\tn11\tknows\nE+\tn8\tn12\tknows\n",
  };
  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << workers << " worker(s)");
    PropertyGraph cur = g;
    for (const std::string& tsv : batches) {
      const GraphDelta batch = ParseDelta(cur, tsv);
      IncrementalOptions opts;
      opts.workers = workers;
      auto diff = engine.DetectIncremental(cur, batch, opts);
      ASSERT_TRUE(diff.has_value());
      auto next_view = GraphView::Apply(cur, batch);
      ASSERT_TRUE(next_view.has_value());
      PropertyGraph next = next_view->Materialize();
      const std::vector<Violation> before = engine.Detect(cur).violations;
      const std::vector<Violation> after = engine.Detect(next).violations;
      EXPECT_EQ(after, DetectNaive(next, rules).violations);
      std::vector<Violation> added, removed;
      std::set_difference(after.begin(), after.end(), before.begin(),
                          before.end(), std::back_inserter(added));
      std::set_difference(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(removed));
      EXPECT_EQ(diff->added, added);
      EXPECT_EQ(diff->removed, removed);
      EXPECT_FALSE(added.empty() && removed.empty());
      cur = std::move(next);
    }
  }
}

// The capped kernel's reference over one group: the pivot plan's
// matches in its order, every rule tested in rule order at each, the
// per-rule cap and the global budget claimed as a one-worker run
// claims them.
std::vector<Violation> CappedReference(const PropertyGraph& g,
                                       const std::vector<Gfd>& rules,
                                       const DetectOptions& opts) {
  const CompiledPattern plan(rules[0].pattern);
  std::vector<size_t> kept(rules.size(), 0);
  size_t total = 0;
  bool exhausted = false;
  std::vector<Violation> out;
  for (const NodeId v : plan.PivotCandidates(g)) {
    plan.ForEachMatchAtPivot(g, v, [&](const Match& h) {
      for (uint32_t i = 0; i < rules.size(); ++i) {
        const Gfd& r = rules[i];
        if (opts.max_violations_per_gfd != 0 &&
            kept[i] == opts.max_violations_per_gfd) {
          continue;
        }
        if (!MatchSatisfiesAll(g, h, r.lhs) || MatchSatisfies(g, h, r.rhs)) {
          continue;
        }
        if (opts.max_total_violations != 0 &&
            total == opts.max_total_violations) {
          exhausted = true;
          return false;
        }
        ++kept[i];
        ++total;
        out.push_back({i, v, h, r.rhs});
      }
      return true;
    });
    if (exhausted) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Capped: the kernel tests every member in order, so at one worker a
// cap keeps exactly the violations the in-order reference keeps.
TEST(DetectKernel, CappedScansTestEveryMemberInOrder) {
  const PropertyGraph g = BuildSuburb();
  GraphDelta d;
  const std::vector<Gfd> rules = SuburbRules(g, d.InternValue(g, "atlantis"));
  const ViolationEngine engine(rules);
  const size_t all = DetectNaive(g, rules).violations.size();
  ASSERT_GT(all, 40u);
  const std::pair<size_t, size_t> caps[] = {
      {1, 0}, {2, 0}, {5, 0}, {0, 7}, {0, all - 1}, {2, 17}, {3, 40}};
  for (const auto& [per_gfd, total] : caps) {
    SCOPED_TRACE(::testing::Message() << "cap " << per_gfd << ", budget "
                                      << total);
    DetectOptions opts;
    opts.max_violations_per_gfd = per_gfd;
    opts.max_total_violations = total;
    const DetectionResult got = engine.Detect(g, opts);
    EXPECT_EQ(got.violations, CappedReference(g, rules, opts));
    EXPECT_TRUE(got.stats.truncated);
  }
}

}  // namespace
}  // namespace gfd
