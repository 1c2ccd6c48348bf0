// GraphDelta / GraphView semantics: overlay adjacency, attribute
// overrides, extension vocabulary, materialization, the delta TSV
// loader, and equivalence of matcher enumeration over a view vs. over
// the materialized graph.
#include "graph/graph_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "datagen/synthetic.h"
#include "graph/loader.h"
#include "match/matcher.h"
#include "util/rng.h"

namespace gfd {
namespace {

// a:person -knows-> b:person, a -knows-> c:person (parallel pair target),
// c -likes-> a; attributes on a and b.
PropertyGraph BuildBase() {
  PropertyGraph::Builder b;
  NodeId a = b.AddNode("person");
  b.SetName(a, "a");
  b.SetAttr(a, "city", "paris");
  NodeId v = b.AddNode("person");
  b.SetName(v, "b");
  b.SetAttr(v, "city", "rome");
  NodeId c = b.AddNode("person");
  b.SetName(c, "c");
  b.AddEdge(a, v, "knows");
  b.AddEdge(a, c, "knows");
  b.AddEdge(c, a, "likes");
  return std::move(b).Build();
}

TEST(GraphView, EmptyDeltaIsTransparent) {
  auto g = BuildBase();
  auto view = GraphView::Apply(g, {});
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->NumNodes(), g.NumNodes());
  EXPECT_EQ(view->NumEdges(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(view->OutEdges(v).data(), g.OutEdges(v).data());  // same span
  }
}

TEST(GraphView, InsertEdgeAppearsOnlyInTheView) {
  auto g = BuildBase();
  GraphDelta d;
  LabelId knows = *g.FindLabel("knows");
  d.InsertEdge(1, 2, knows);  // b -knows-> c
  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->HasEdge(1, 2, knows));
  EXPECT_FALSE(g.HasEdge(1, 2, knows));
  EXPECT_EQ(view->NumEdges(), g.NumEdges() + 1);
  EXPECT_EQ(view->OutDegree(1), 1u);
  EXPECT_EQ(view->InDegree(2), 2u);
  // The new edge id is past the base edge-id space and resolves.
  EdgeId e = view->OutEdges(1)[0];
  EXPECT_GE(e, g.NumEdges());
  EXPECT_EQ(view->EdgeSrc(e), 1u);
  EXPECT_EQ(view->EdgeDst(e), 2u);
  EXPECT_EQ(view->EdgeLabel(e), knows);
}

TEST(GraphView, DeleteEdgeRemovesOneParallelOccurrence) {
  auto g = BuildBase();
  GraphDelta d;
  LabelId knows = *g.FindLabel("knows");
  d.DeleteEdge(0, 1, knows);
  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->HasEdge(0, 1, knows));
  EXPECT_TRUE(view->HasEdge(0, 2, knows));  // the sibling edge survives
  EXPECT_EQ(view->OutDegree(0), 1u);
  EXPECT_EQ(view->InDegree(1), 0u);
  EXPECT_EQ(view->NumEdges(), g.NumEdges() - 1);
}

TEST(GraphView, InsertThenDeleteIsANoOpDeleteThenReinsertIsNot) {
  auto g = BuildBase();
  LabelId likes = *g.FindLabel("likes");
  {
    GraphDelta d;
    d.InsertEdge(1, 2, likes);
    d.DeleteEdge(1, 2, likes);
    auto view = GraphView::Apply(g, d);
    ASSERT_TRUE(view.has_value());
    EXPECT_FALSE(view->HasEdge(1, 2, likes));
    EXPECT_EQ(view->NumEdges(), g.NumEdges());
  }
  {
    GraphDelta d;
    d.DeleteEdge(2, 0, likes);
    d.InsertEdge(2, 0, likes);
    auto view = GraphView::Apply(g, d);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(view->HasEdge(2, 0, likes));
    EXPECT_EQ(view->NumEdges(), g.NumEdges());
  }
}

TEST(GraphView, DeleteOfMissingEdgeFailsWithOpContext) {
  auto g = BuildBase();
  GraphDelta d;
  d.InsertEdge(0, 1, *g.FindLabel("likes"));
  d.DeleteEdge(1, 0, *g.FindLabel("knows"));  // no such edge
  std::string error;
  auto view = GraphView::Apply(g, d, &error);
  EXPECT_FALSE(view.has_value());
  EXPECT_NE(error.find("op 2"), std::string::npos) << error;
  EXPECT_NE(error.find("missing edge"), std::string::npos) << error;
}

TEST(GraphView, OutOfRangeNodeFails) {
  auto g = BuildBase();
  GraphDelta d;
  d.InsertEdge(0, 99, *g.FindLabel("knows"));
  std::string error;
  EXPECT_FALSE(GraphView::Apply(g, d, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(GraphView, AttrOverlayShadowsBaseAndExtendsVocabulary) {
  auto g = BuildBase();
  GraphDelta d;
  AttrId city = *g.FindAttr("city");
  ValueId rome = *g.FindValue("rome");
  // Overwrite an existing attribute with an existing value...
  d.SetAttr(0, city, rome);
  // ...and set a brand-new attribute to a brand-new value.
  AttrId mood = d.InternAttr(g, "mood");
  ValueId happy = d.InternValue(g, "happy");
  d.SetAttr(2, mood, happy);
  // Last write wins per (node, key).
  ValueId paris = *g.FindValue("paris");
  d.SetAttr(0, city, paris);
  d.SetAttr(0, city, rome);

  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->GetAttr(0, city), rome);
  // The base is untouched; unchanged nodes pass through.
  EXPECT_EQ(g.GetAttr(0, city), paris);
  EXPECT_EQ(view->GetAttr(1, city), *g.FindValue("rome"));
  ASSERT_TRUE(view->GetAttr(2, mood).has_value());
  EXPECT_EQ(view->ValueName(*view->GetAttr(2, mood)), "happy");
  EXPECT_EQ(view->AttrName(mood), "mood");
  EXPECT_EQ(view->FindAttr("mood"), mood);
  EXPECT_FALSE(g.FindAttr("mood").has_value());
}

// The dense per-node overlay index must cover the last node id: its
// adjacency and attributes read through the overlay, on a fresh Apply
// and after an in-place absorb.
TEST(GraphView, OverlayOnTheLastNodeReads) {
  auto g = BuildBase();
  const NodeId last = static_cast<NodeId>(g.NumNodes() - 1);
  LabelId knows = *g.FindLabel("knows");
  AttrId city = *g.FindAttr("city");
  GraphDelta d;
  d.InsertEdge(last, 1, knows);
  d.InsertEdge(0, last, knows);
  d.SetAttr(last, city, *g.FindValue("rome"));
  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->HasEdge(last, 1, knows));
  EXPECT_EQ(view->OutDegree(last), g.OutDegree(last) + 1);
  EXPECT_EQ(view->InDegree(last), g.InDegree(last) + 1);
  EXPECT_EQ(view->GetAttr(last, city), g.FindValue("rome"));
  EXPECT_EQ(view->NodeAttrs(last).size(), 1u);

  auto absorbed = GraphView::Apply(g, {});
  ASSERT_TRUE(absorbed.has_value());
  ASSERT_TRUE(absorbed->AbsorbAppended(d, 0));
  PropertyGraph m = absorbed->Materialize();
  EXPECT_TRUE(m.HasEdge(last, 1, knows));
  EXPECT_TRUE(m.HasEdge(0, last, knows));
  EXPECT_EQ(m.GetAttr(last, city), g.FindValue("rome"));
  EXPECT_EQ(absorbed->GetAttr(last, city), view->GetAttr(last, city));
}

// A view owns its overlay: a copy reads identically after the view it
// was copied from is gone (only the base graph must outlive it).
TEST(GraphView, CopyReadsIdenticallyAfterItsSourceIsDestroyed) {
  auto g = BuildBase();
  LabelId knows = *g.FindLabel("knows");
  GraphDelta d;
  d.DeleteEdge(0, 1, knows);
  d.InsertEdge(1, 2, knows);
  d.SetAttr(2, d.InternAttr(g, "mood"), d.InternValue(g, "calm"));
  auto source = std::make_unique<GraphView>(*GraphView::Apply(g, d));
  const PropertyGraph expect = source->Materialize();
  GraphView copy = *source;
  source.reset();

  EXPECT_EQ(copy.NumEdges(), expect.NumEdges());
  for (NodeId v = 0; v < copy.NumNodes(); ++v) {
    EXPECT_EQ(copy.OutDegree(v), expect.OutDegree(v));
    EXPECT_EQ(copy.InDegree(v), expect.InDegree(v));
    for (NodeId u = 0; u < copy.NumNodes(); ++u) {
      EXPECT_EQ(copy.HasEdge(v, u, knows), expect.HasEdge(v, u, knows));
    }
    const std::vector<Attribute> attrs = copy.NodeAttrs(v);
    const auto want = expect.NodeAttrs(v);
    EXPECT_TRUE(std::equal(attrs.begin(), attrs.end(), want.begin(),
                           want.end()));
  }
  EXPECT_EQ(copy.ValueName(*copy.GetAttr(2, *copy.FindAttr("mood"))), "calm");
}

TEST(GraphView, MaterializePreservesIdsAndContent) {
  auto g = BuildBase();
  GraphDelta d;
  LabelId knows = *g.FindLabel("knows");
  d.DeleteEdge(0, 1, knows);
  d.InsertEdge(1, 0, knows);
  d.SetAttr(1, d.InternAttr(g, "mood"), d.InternValue(g, "grim"));
  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());

  PropertyGraph m = view->Materialize();
  EXPECT_EQ(m.NumNodes(), view->NumNodes());
  EXPECT_EQ(m.NumEdges(), view->NumEdges());
  // Vocabulary ids carried over, including the extension.
  EXPECT_EQ(m.FindLabel("knows"), knows);
  EXPECT_EQ(*m.FindAttr("mood"), *view->FindAttr("mood"));
  for (NodeId v = 0; v < m.NumNodes(); ++v) {
    EXPECT_EQ(m.NodeLabel(v), view->NodeLabel(v));
    EXPECT_EQ(m.NodeName(v), view->NodeName(v));
    for (NodeId u = 0; u < m.NumNodes(); ++u) {
      EXPECT_EQ(m.HasEdge(v, u, kWildcardLabel),
                view->HasEdge(v, u, kWildcardLabel));
    }
  }
  EXPECT_EQ(m.GetAttr(1, *m.FindAttr("mood")),
            view->GetAttr(1, *view->FindAttr("mood")));
}

TEST(GraphView, MatcherEnumeratesViewExactlyAsMaterialized) {
  // Random graph + random delta: every pattern enumeration over the view
  // must agree with enumeration over the compacted graph.
  auto g = MakeSynthetic({.nodes = 120,
                          .edges = 300,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 12,
                          .seed = 21});
  Rng rng(77);
  GraphDelta d;
  for (int i = 0; i < 30; ++i) {
    EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
    if (rng.Chance(0.5)) {
      d.InsertEdge(static_cast<NodeId>(rng.Below(g.NumNodes())),
                   static_cast<NodeId>(rng.Below(g.NumNodes())),
                   g.EdgeLabel(e));
    } else {
      d.InsertEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    }
  }
  auto view = GraphView::Apply(g, d);
  ASSERT_TRUE(view.has_value());
  auto m = view->Materialize();

  // A 2-edge pattern over the most frequent labels.
  Pattern q;
  VarId x = q.AddNode(kWildcardLabel);
  VarId y = q.AddNode(kWildcardLabel);
  VarId z = q.AddNode(kWildcardLabel);
  q.AddEdge(x, y, g.EdgeLabel(0));
  q.AddEdge(y, z, kWildcardLabel);
  q.set_pivot(x);
  CompiledPattern plan(q);

  std::vector<Match> from_view, from_graph;
  plan.ForEachMatch(*view, [&](const Match& h) {
    from_view.push_back(h);
    return true;
  });
  plan.ForEachMatch(m, [&](const Match& h) {
    from_graph.push_back(h);
    return true;
  });
  std::sort(from_view.begin(), from_view.end());
  std::sort(from_graph.begin(), from_graph.end());
  EXPECT_EQ(from_view, from_graph);
  EXPECT_FALSE(from_view.empty());
}

// A random valid delta over `g`: inserts that duplicate an existing key
// (parallel edges), runs of deletes on one key, and labels, keys and
// values the base never interned.
GraphDelta RandomDelta(const PropertyGraph& g, Rng& rng, size_t ops) {
  using Key = std::tuple<NodeId, NodeId, LabelId>;
  std::map<Key, size_t> live;  // edge multiplicity under the delta so far
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    ++live[{g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e)}];
  }
  auto any_key = [&] {
    auto it = live.begin();
    std::advance(it, rng.Below(live.size()));
    return it->first;
  };
  auto node = [&] { return static_cast<NodeId>(rng.Below(g.NumNodes())); };
  GraphDelta d;
  while (d.ops.size() < ops) {
    switch (rng.Below(4)) {
      case 0: {  // a parallel copy of an existing key
        const auto [src, dst, label] = any_key();
        d.InsertEdge(src, dst, label);
        ++live[{src, dst, label}];
        break;
      }
      case 1: {  // a fresh edge, sometimes under a new label
        const LabelId label =
            rng.Chance(0.3)
                ? d.InternLabel(g, "new_label_" + std::to_string(rng.Below(3)))
                : g.EdgeLabel(static_cast<EdgeId>(rng.Below(g.NumEdges())));
        const NodeId src = node();
        const NodeId dst = node();
        d.InsertEdge(src, dst, label);
        ++live[{src, dst, label}];
        break;
      }
      case 2: {  // deletes on one key, up to all of its copies
        const Key key = any_key();
        const auto [src, dst, label] = key;
        for (size_t n = 1 + rng.Below(live[key]); n > 0; --n) {
          d.DeleteEdge(src, dst, label);
          if (--live[key] == 0) live.erase(key);
        }
        break;
      }
      default: {  // an attribute, sometimes under a new key or value
        const AttrId key =
            rng.Chance(0.3) ? d.InternAttr(g, "new_key")
                            : static_cast<AttrId>(rng.Below(g.attrs().size()));
        const ValueId value =
            rng.Chance(0.3)
                ? d.InternValue(g, "new_value_" + std::to_string(rng.Below(3)))
                : static_cast<ValueId>(rng.Below(g.values().size()));
        d.SetAttr(node(), key, value);
        break;
      }
    }
  }
  return d;
}

PropertyGraph SmallRandomGraph() {
  return MakeSynthetic({.nodes = 24,
                        .edges = 80,
                        .node_labels = 3,
                        .edge_labels = 2,
                        .attrs = 2,
                        .values = 4,
                        .seed = 8});
}

// The graph with its vocabulary and edges in id order: equal only if the
// same edges survive, in the same order.
std::string Dump(const PropertyGraph& g) {
  std::ostringstream os;
  SaveGraphTsv(g, os, /*with_vocab=*/true);
  return std::move(os).str();
}

// Apply is one absorb of the whole delta; absorbing the same delta in two
// pieces, split at any op, must leave the same view.
TEST(GraphView, ApplyEqualsAbsorbingTheDeltaSplitAtAnyOp) {
  const PropertyGraph g = SmallRandomGraph();
  Rng rng(41);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const GraphDelta d = RandomDelta(g, rng, 40);
    auto whole = GraphView::Apply(g, d);
    ASSERT_TRUE(whole.has_value());
    const std::string want = Dump(whole->Materialize());
    for (size_t k = 0; k <= d.ops.size(); ++k) {
      GraphDelta prefix = d;
      prefix.ops.resize(k);
      auto view = GraphView::Apply(g, GraphDelta{});
      ASSERT_TRUE(view->AbsorbAppended(prefix, 0));
      ASSERT_TRUE(view->AbsorbAppended(d, k));
      EXPECT_EQ(Dump(view->Materialize()), want) << "split at op " << k;
      EXPECT_EQ(view->NumEdges(), whole->NumEdges());
      EXPECT_EQ(view->NumDeletedEdges(), whole->NumDeletedEdges());
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        ASSERT_TRUE(std::ranges::equal(view->OutEdges(v), whole->OutEdges(v)));
        ASSERT_TRUE(std::ranges::equal(view->InEdges(v), whole->InEdges(v)));
      }
    }
  }
}

// A failing op reports the same text whether the delta arrives at once
// or in two pieces, wherever the split falls, numbered from the first op
// of the piece that carries it: a client learns which op of the batch it
// sent failed, whatever the overlay before it holds.
TEST(GraphView, FailingOpReportsTheSameTextAtAnySplit) {
  const PropertyGraph g = SmallRandomGraph();
  Rng rng(43);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    GraphDelta d = RandomDelta(g, rng, 20);
    const size_t bad = rng.Below(d.ops.size() + 1);
    GraphDelta::Op poison;
    if (round % 2 == 0) {
      poison = {GraphDelta::OpKind::kDeleteEdge, 0, 1,
                d.InternLabel(g, "never_inserted"), 0, kNoValue};
    } else {
      poison = {GraphDelta::OpKind::kInsertEdge, 0,
                static_cast<NodeId>(g.NumNodes()), 0, 0, kNoValue};
    }
    d.ops.insert(d.ops.begin() + static_cast<std::ptrdiff_t>(bad), poison);
    std::string whole;
    ASSERT_FALSE(GraphView::Apply(g, d, &whole).has_value());
    const std::string prefix_text = "op " + std::to_string(bad + 1) + ": ";
    ASSERT_EQ(whole.rfind(prefix_text, 0), 0u) << whole;
    const std::string message = whole.substr(prefix_text.size());
    for (size_t k = 0; k <= d.ops.size(); ++k) {
      GraphDelta prefix = d;
      prefix.ops.resize(k);
      auto view = GraphView::Apply(g, GraphDelta{});
      std::string got;
      const bool applied = view->AbsorbAppended(prefix, 0, &got) &&
                           view->AbsorbAppended(d, k, &got);
      EXPECT_FALSE(applied) << "split at op " << k;
      // The poison sits in the first piece when the split falls after
      // it, else at its place in the second.
      const size_t place = bad < k ? bad + 1 : bad - k + 1;
      EXPECT_EQ(got, "op " + std::to_string(place) + ": " + message)
          << "split at op " << k;
    }
  }
}

TEST(DeltaLoader, ParsesOpsInOrderAndRoundTrips) {
  auto g = BuildBase();
  std::istringstream in(
      "# a delta\n"
      "E+\ta\tc\tlikes\n"
      "E-\ta\tb\tknows\n"
      "A\tb\tcity=berlin\tmood=sunny\n");
  std::string error;
  auto d = LoadGraphDeltaTsv(in, g, &error);
  ASSERT_TRUE(d.has_value()) << error;
  ASSERT_EQ(d->ops.size(), 4u);
  EXPECT_EQ(d->ops[0].kind, GraphDelta::OpKind::kInsertEdge);
  EXPECT_EQ(d->ops[0].src, 0u);
  EXPECT_EQ(d->ops[0].dst, 2u);
  EXPECT_EQ(d->ops[1].kind, GraphDelta::OpKind::kDeleteEdge);
  EXPECT_EQ(d->ops[2].kind, GraphDelta::OpKind::kSetAttr);
  EXPECT_EQ(d->ops[3].kind, GraphDelta::OpKind::kSetAttr);
  // "berlin" and "mood" are extension vocabulary.
  EXPECT_EQ(d->extra_values.size(), 2u);  // berlin, sunny
  EXPECT_EQ(d->extra_attrs.size(), 1u);   // mood

  std::ostringstream out;
  SaveGraphDeltaTsv(g, *d, out);
  std::istringstream in2(out.str());
  auto d2 = LoadGraphDeltaTsv(in2, g, &error);
  ASSERT_TRUE(d2.has_value()) << error;
  EXPECT_EQ(d2->ops, d->ops);
  EXPECT_EQ(d2->extra_values, d->extra_values);
}

TEST(DeltaLoader, ReportsLineNumberedErrors) {
  auto g = BuildBase();
  struct Case {
    const char* text;
    const char* expect;
  } cases[] = {
      {"E+\ta\tb\n", "line 1: short E+ record"},
      {"# ok\nE-\ta\tnobody\tknows\n", "line 2: unknown node 'nobody'"},
      {"A\ta\tcity\n", "line 1: attribute without '='"},
      {"X\ta\tb\tc\n", "line 1: unknown tag 'X'"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    std::string error;
    EXPECT_FALSE(LoadGraphDeltaTsv(in, g, &error).has_value());
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "got: " << error << " want: " << c.expect;
  }
}

TEST(DeltaLoader, ResolvesUnnamedNodesThroughSaveAliases) {
  PropertyGraph::Builder b;
  b.AddNode("thing");
  b.AddNode("thing");
  auto g = std::move(b).Build();  // nodes unnamed -> aliases n0 / n1
  std::istringstream in("E+\tn0\tn1\trel\n");
  std::string error;
  auto d = LoadGraphDeltaTsv(in, g, &error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->ops[0].src, 0u);
  EXPECT_EQ(d->ops[0].dst, 1u);
}

// The re-anchoring contract the delta log's compaction relies on:
// Materialize() keeps node AND vocabulary ids stable, so a later delta
// written against the old view's ids applies identically to the
// materialized snapshot and to the never-materialized overlay chain.
TEST(GraphView, MaterializedSnapshotAcceptsOldViewIds) {
  auto g = BuildBase();
  GraphDelta d1;
  LabelId follows = d1.InternLabel(g, "follows");    // extension label
  ValueId newcity = d1.InternValue(g, "lisbon");     // extension value
  AttrId city = *g.FindAttr("city");
  d1.InsertEdge(1, 2, follows);
  d1.SetAttr(0, city, newcity);
  auto view1 = *GraphView::Apply(g, d1);
  PropertyGraph m = view1.Materialize();
  ASSERT_EQ(m.FindLabel("follows"), follows);
  ASSERT_EQ(m.FindValue("lisbon"), newcity);

  // The second delta references d1's extension ids (the old view's id
  // space). Same ops once against the snapshot, once appended to the
  // never-materialized chain.
  auto add_second = [&](GraphDelta& d) {
    d.InsertEdge(2, 0, follows);
    d.SetAttr(1, city, newcity);
    d.DeleteEdge(1, 2, follows);
  };
  GraphDelta d2;
  add_second(d2);
  auto via_snapshot = GraphView::Apply(m, d2);
  ASSERT_TRUE(via_snapshot.has_value());

  GraphDelta chain = d1;
  add_second(chain);
  auto never_materialized = GraphView::Apply(g, chain);
  ASSERT_TRUE(never_materialized.has_value());

  // Identical matcher-visible state: same bytes when saved, and the
  // matcher enumerates the same embeddings for a pattern that uses the
  // extension label.
  std::ostringstream a, b;
  SaveGraphTsv(via_snapshot->Materialize(), a);
  SaveGraphTsv(never_materialized->Materialize(), b);
  EXPECT_EQ(a.str(), b.str());

  Pattern q;
  VarId x = q.AddNode(via_snapshot->NodeLabel(2));
  VarId y = q.AddNode(via_snapshot->NodeLabel(0));
  q.AddEdge(x, y, follows);
  q.set_pivot(x);
  CompiledPattern plan(q);
  std::vector<Match> ma, mb;
  plan.ForEachMatch(*via_snapshot, [&](const Match& h) {
    ma.push_back(h);
    return true;
  });
  plan.ForEachMatch(*never_materialized, [&](const Match& h) {
    mb.push_back(h);
    return true;
  });
  EXPECT_EQ(ma, mb);
  EXPECT_EQ(ma.size(), 1u);
}

// Satellite of the durability work: log payloads and snapshots are TSV,
// so strings with tabs / CRLF / '=' / backslashes / empties must survive
// the round trip instead of silently corrupting the record.
TEST(TsvEscaping, HostileDeltaStringsRoundTrip) {
  auto g = BuildBase();
  Rng rng(99);
  const std::string alphabet = "ab\t\n\r\\= ";
  auto random_string = [&] {
    std::string s;
    size_t len = rng.Below(6);  // includes empty
    for (size_t i = 0; i < len; ++i) {
      s += alphabet[rng.Below(alphabet.size())];
    }
    return s;
  };
  // Distinct namespaces for labels/keys so vocabularies never collide.
  auto prefixed = [&](char p) {
    std::string s = random_string();
    s.insert(s.begin(), p);
    return s;
  };
  for (int round = 0; round < 50; ++round) {
    GraphDelta d;
    for (int op = 0; op < 6; ++op) {
      switch (rng.Below(3)) {
        case 0:
          d.InsertEdge(static_cast<NodeId>(rng.Below(g.NumNodes())),
                       static_cast<NodeId>(rng.Below(g.NumNodes())),
                       d.InternLabel(g, prefixed('L')));
          break;
        case 1:
          d.SetAttr(static_cast<NodeId>(rng.Below(g.NumNodes())),
                    d.InternAttr(g, prefixed('K')),
                    d.InternValue(g, random_string()));
          break;
        default:
          d.SetAttr(static_cast<NodeId>(rng.Below(g.NumNodes())),
                    *g.FindAttr("city"), d.InternValue(g, random_string()));
      }
    }
    std::ostringstream out;
    SaveGraphDeltaTsv(g, d, out);
    std::istringstream in(out.str());
    std::string error;
    auto d2 = LoadGraphDeltaTsv(in, g, &error);
    ASSERT_TRUE(d2.has_value()) << error << "\nserialized:\n" << out.str();
    EXPECT_EQ(d2->ops, d.ops) << "round " << round;
    EXPECT_EQ(d2->extra_labels, d.extra_labels);
    EXPECT_EQ(d2->extra_attrs, d.extra_attrs);
    EXPECT_EQ(d2->extra_values, d.extra_values);
  }
}

TEST(TsvEscaping, HostileGraphStringsRoundTrip) {
  PropertyGraph::Builder b;
  NodeId u = b.AddNode("weird\tlabel");
  b.SetName(u, "node\nwith=newline");
  b.SetAttr(u, "k\\ey", "va\tl=ue");
  b.SetAttr(u, "empty", "");
  NodeId v = b.AddNode("l2");
  b.SetName(v, "plain");
  b.AddEdge(u, v, "edge\rlabel");
  auto g = std::move(b).Build();

  std::ostringstream out;
  SaveGraphTsv(g, out);
  std::istringstream in(out.str());
  std::string error;
  auto g2 = LoadGraphTsv(in, &error);
  ASSERT_TRUE(g2.has_value()) << error << "\nserialized:\n" << out.str();
  ASSERT_EQ(g2->NumNodes(), 2u);
  EXPECT_EQ(g2->NodeName(0), "node\nwith=newline");
  EXPECT_EQ(g2->LabelName(g2->NodeLabel(0)), "weird\tlabel");
  AttrId key = *g2->FindAttr("k\\ey");
  EXPECT_EQ(g2->ValueName(*g2->GetAttr(0, key)), "va\tl=ue");
  EXPECT_EQ(g2->ValueName(*g2->GetAttr(0, *g2->FindAttr("empty"))), "");
  ASSERT_EQ(g2->NumEdges(), 1u);
  EXPECT_EQ(g2->LabelName(g2->EdgeLabel(0)), "edge\rlabel");

  // And a second trip lands on identical bytes.
  std::ostringstream out2;
  SaveGraphTsv(*g2, out2);
  EXPECT_EQ(out2.str(), out.str());
}

// The snapshot mode of the delta-log store: every interner entry -- used
// or not -- reloads at its exact id, so rule sets compiled against the
// pre-restart graph stay valid.
TEST(GraphTsvVocab, WithVocabReloadPreservesInternerIds) {
  PropertyGraph::Builder b;
  b.InternValue("producer");  // constant only rules reference, no node uses
  b.InternLabel("follows");
  NodeId u = b.AddNode("person");
  b.SetName(u, "a");
  b.SetAttr(u, "type", "musician");
  auto g = std::move(b).Build();

  std::ostringstream with, without;
  SaveGraphTsv(g, with, /*with_vocab=*/true);
  SaveGraphTsv(g, without);
  std::string error;
  std::istringstream in1(with.str()), in2(without.str());
  auto exact = LoadGraphTsv(in1, &error);
  ASSERT_TRUE(exact.has_value()) << error;
  auto lossy = LoadGraphTsv(in2, &error);
  ASSERT_TRUE(lossy.has_value()) << error;

  ASSERT_EQ(exact->labels().size(), g.labels().size());
  ASSERT_EQ(exact->values().size(), g.values().size());
  for (uint32_t l = 0; l < g.labels().size(); ++l) {
    EXPECT_EQ(exact->LabelName(l), g.LabelName(l));
  }
  EXPECT_EQ(exact->FindValue("producer"), g.FindValue("producer"));
  EXPECT_EQ(exact->FindLabel("follows"), g.FindLabel("follows"));
  // The plain save drops unused vocabulary -- that is why stores use
  // with_vocab.
  EXPECT_FALSE(lossy->FindValue("producer").has_value());
}

TEST(TsvEscaping, BadEscapesAreLineNumberedErrors) {
  auto g = BuildBase();
  std::istringstream in("A\ta\tcity=\\x\n");
  std::string error;
  EXPECT_FALSE(LoadGraphDeltaTsv(in, g, &error).has_value());
  EXPECT_NE(error.find("line 1: bad escape"), std::string::npos) << error;

  std::istringstream gin("N\tv\\\n");
  EXPECT_FALSE(LoadGraphTsv(gin, &error).has_value());
  // Short record reported before the dangling escape is reached is fine;
  // a well-formed record with a dangling escape must error.
  std::istringstream gin2("N\tv\\\tlab\n");
  EXPECT_FALSE(LoadGraphTsv(gin2, &error).has_value());
  EXPECT_NE(error.find("bad escape"), std::string::npos) << error;
}

}  // namespace
}  // namespace gfd
