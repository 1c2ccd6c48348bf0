// Edge cases of the detection kernel's compiled literal slots: absent
// attributes must satisfy nothing -- two absent attributes are NOT equal
// -- on every detection path (full scans, the naive reference, one-shot
// diffs and both serving backends), and members of one pattern group
// that share slots must evaluate exactly as the per-rule reference does.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "detect/engine.h"
#include "gfd/serialize.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
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
    EXPECT_EQ(got.stats.literal_evals,
              got.stats.matches_seen * rules.size());
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

}  // namespace
}  // namespace gfd
