// End-to-end pipeline tests: generate -> mine (sequential and parallel) ->
// cover -> serialize -> reload -> validate -> corrupt -> detect. These
// are the flows a downstream user runs; each stage's output feeds the
// next, so regressions anywhere in the stack surface here.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/cover.h"
#include "core/seqdis.h"
#include "datagen/kb.h"
#include "datagen/noise.h"
#include "gfd/problems.h"
#include "gfd/serialize.h"
#include "gfd/validation.h"
#include "graph/loader.h"
#include "parallel/parcover.h"
#include "parallel/pardis.h"

namespace gfd {
namespace {

TEST(Pipeline, MineCoverValidateRoundTrip) {
  auto g = MakeYago2Like({.scale = 250, .seed = 13});
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 10;

  // Mine in parallel, compute the cover in parallel.
  ParallelRunConfig pcfg;
  pcfg.workers = 4;
  auto result = ParDis(g, cfg, pcfg);
  ASSERT_GT(result.positives.size(), 0u);
  auto cover = ParCover(result.AllGfds(), pcfg);
  ASSERT_GT(cover.size(), 0u);
  ASSERT_LE(cover.size(), result.positives.size() + result.negatives.size());

  // Cover must be satisfiable (it has a model -- the graph itself).
  EXPECT_TRUE(IsSatisfiable(cover));

  // Serialize, reload, and re-validate: the clean graph satisfies every
  // reloaded rule.
  std::stringstream ss;
  SaveGfds(cover, g, ss);
  std::string error;
  auto reloaded = LoadGfds(ss, g, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  ASSERT_EQ(reloaded->size(), cover.size());
  size_t checked = 0;
  for (size_t i = 0; i < reloaded->size() && checked < 30; i += 9, ++checked) {
    EXPECT_TRUE(SatisfiesGfd(g, (*reloaded)[i]))
        << (*reloaded)[i].ToString(g);
  }
}

TEST(Pipeline, NoiseDetectionEndToEnd) {
  auto clean = MakeYago2Like({.scale = 250, .seed = 13});
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 10;
  auto rules = SeqDis(clean, cfg).AllGfds();

  NoiseConfig ncfg;
  ncfg.alpha = 0.08;
  ncfg.beta = 0.6;
  auto noisy = InjectNoise(clean, ncfg);
  ASSERT_GT(noisy.corrupted.size(), 5u);

  auto detected = ViolationNodes(noisy.graph, rules);
  size_t hits = 0;
  for (NodeId v : noisy.corrupted) {
    if (std::binary_search(detected.begin(), detected.end(), v)) ++hits;
  }
  // The planted rules cover type/familyname/name attributes, so a solid
  // fraction of corrupted nodes must be caught.
  double accuracy = static_cast<double>(hits) / noisy.corrupted.size();
  EXPECT_GT(accuracy, 0.3) << hits << "/" << noisy.corrupted.size();
}

TEST(Pipeline, GraphSaveLoadMineEquivalence) {
  // Mining a saved+reloaded graph gives the same rules as the original.
  auto g = MakeYago2Like({.scale = 150, .seed = 17});
  std::stringstream ss;
  SaveGraphTsv(g, ss);
  std::string error;
  auto g2 = LoadGraphTsv(ss, &error);
  ASSERT_TRUE(g2.has_value()) << error;

  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  auto r1 = SeqDis(g, cfg);
  auto r2 = SeqDis(*g2, cfg);
  auto render = [](const DiscoveryResult& r, const PropertyGraph& gg) {
    std::multiset<std::string> s;
    for (const auto& phi : r.positives) s.insert(phi.ToString(gg));
    for (const auto& phi : r.negatives) s.insert(phi.ToString(gg));
    return s;
  };
  EXPECT_EQ(render(r1, g), render(r2, *g2));
}

TEST(Pipeline, CoverStableUnderSelfApplication) {
  auto g = MakeYago2Like({.scale = 150, .seed = 3});
  DiscoveryConfig cfg;
  cfg.k = 2;
  cfg.support_threshold = 8;
  auto sigma = SeqDis(g, cfg).AllGfds();
  auto cover1 = SeqCover(sigma);
  auto cover2 = SeqCover(cover1);
  // The same GFDs in the same order: a cover is its own cover.
  EXPECT_EQ(cover1, cover2);
}

TEST(Pipeline, DiscoveredCoverCatchesTheFig1Errors) {
  // Mine rules from a *clean* KB, then check they catch a G1-style error
  // grafted onto a corrupted copy: a high jumper who "created" a film.
  auto clean = MakeYago2Like({.scale = 250, .seed = 13});
  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = 10;
  auto rules = SeqDis(clean, cfg).AllGfds();

  // Corrupt: retype one producer as "high_jumper". Pre-intern the clean
  // vocabulary so the mined rules' interned ids stay valid on the copy.
  PropertyGraph::Builder b;
  for (LabelId l = 1; l < clean.labels().size(); ++l) {
    b.InternLabel(clean.LabelName(l));
  }
  for (AttrId a = 0; a < clean.attrs().size(); ++a) {
    b.InternAttr(clean.AttrName(a));
  }
  for (ValueId v = 0; v < clean.values().size(); ++v) {
    b.InternValue(clean.ValueName(v));
  }
  for (NodeId v = 0; v < clean.NumNodes(); ++v) {
    NodeId nv = b.AddNode(clean.LabelName(clean.NodeLabel(v)));
    for (const auto& a : clean.NodeAttrs(v)) {
      b.SetAttr(nv, clean.AttrName(a.key), clean.ValueName(a.value));
    }
  }
  for (EdgeId e = 0; e < clean.NumEdges(); ++e) {
    b.AddEdge(clean.EdgeSrc(e), clean.EdgeDst(e),
              clean.LabelName(clean.EdgeLabel(e)));
  }
  NodeId victim = clean.NodesWithLabel(*clean.FindLabel("producer"))[0];
  b.SetAttr(victim, "type", "high_jumper");
  auto dirty = std::move(b).Build();

  auto detected = ViolationNodes(dirty, rules);
  EXPECT_TRUE(std::binary_search(detected.begin(), detected.end(), victim))
      << "the retyped producer went undetected";
}

}  // namespace
}  // namespace gfd
