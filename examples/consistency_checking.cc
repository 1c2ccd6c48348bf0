// Consistency checking / knowledge-base cleaning (the paper's motivating
// application): mine GFDs from a (clean) knowledge graph, corrupt a copy
// the way Exp-5 does, then use the mined GFDs as data-quality rules to
// locate the corrupted entities.
//
// Run:  ./build/examples/consistency_checking
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/seqdis.h"
#include "datagen/kb.h"
#include "datagen/noise.h"
#include "detect/engine.h"
#include "detect/violation.h"
#include "gfd/validation.h"

using namespace gfd;

int main() {
  auto clean = MakeYago2Like({.scale = 600, .seed = 7});
  std::printf("clean graph: %zu nodes, %zu edges\n", clean.NumNodes(),
              clean.NumEdges());

  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = std::max<uint64_t>(10, clean.NumNodes() / 100);
  auto rules = SeqDis(clean, cfg);
  std::printf("mined %zu positive + %zu negative GFDs as quality rules\n",
              rules.positives.size(), rules.negatives.size());

  NoiseConfig ncfg;
  ncfg.alpha = 0.05;  // corrupt 5%% of the nodes
  ncfg.beta = 0.5;    // change half of each one's attributes/edges
  auto noisy = InjectNoise(clean, ncfg);
  std::printf("injected noise into %zu nodes\n", noisy.corrupted.size());

  auto sigma = std::move(rules).AllGfds();
  auto detected = ViolationNodes(noisy.graph, sigma);
  size_t hits = 0;
  for (NodeId v : noisy.corrupted) {
    if (std::binary_search(detected.begin(), detected.end(), v)) ++hits;
  }
  std::printf("\nGFD violations implicate %zu nodes; %zu of %zu corrupted "
              "nodes caught (accuracy %.1f%%)\n",
              detected.size(), hits, noisy.corrupted.size(),
              noisy.corrupted.empty()
                  ? 0.0
                  : 100.0 * hits / noisy.corrupted.size());

  // Show a few concrete catches, fully explained: one violation of each
  // of the first five violated rules.
  std::printf("\n-- sample violation explanations --\n");
  ViolationEngine engine(std::move(sigma));
  auto result = engine.Detect(noisy.graph, {.max_violations_per_gfd = 1});
  for (size_t i = 0; i < std::min<size_t>(5, result.violations.size()); ++i) {
    const std::string text =
        DescribeViolation(noisy.graph, engine.rules(), result.violations[i]);
    std::printf("%s\n\n", text.c_str());
  }
  return 0;
}
