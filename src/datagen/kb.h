// Shape-preserving stand-ins for the paper's real-life datasets (see
// docs/ARCHITECTURE.md, "Substitutions"). Each generator emits a typed
// knowledge graph with skewed degrees, five active attributes, and
// *planted exact regularities* so that GFD discovery has real positive
// and negative rules to find:
//
//   - creators of films are producers (phi1 of Example 1),
//   - children and spouses share the family name (GFD1 of Fig. 8),
//   - no film wins both the Gold Bear and the Gold Lion (GFD2 of Fig. 8),
//   - no person is citizen of both the US and Norway (GFD3 of Fig. 8),
//   - parent/child relations are acyclic (phi3 of Example 1),
//   - every typed entity carries a `type` attribute equal to its label
//     (the constant-binding base rules NHSpawn grows negatives from).
//
// Scale parameters are entity counts; the paper's graphs are 1.7M-3.4M
// nodes, ours default to a few thousand so a full discovery sweep runs in
// seconds while exercising the same code paths.
#ifndef GFD_DATAGEN_KB_H_
#define GFD_DATAGEN_KB_H_

#include <cstdint>

#include "graph/property_graph.h"

namespace gfd {

struct KbConfig {
  size_t scale = 1000;  ///< base entity count; other types derive from it
  uint64_t seed = 7;
};

/// YAGO2-like: person-centric knowledge base, 13-ish types / 36-ish
/// relations in the original; here persons of several professions, films,
/// awards, cities, countries, universities.
PropertyGraph MakeYago2Like(const KbConfig& cfg);

/// DBpedia-like: broader/denser vocabulary (the original has 200 types and
/// 160 relations; we keep the planted core plus extra generic types and
/// relations for density).
PropertyGraph MakeDbpediaLike(const KbConfig& cfg);

/// IMDB-like: movie-centric (movies, actors, directors, companies,
/// genres; 15 types / 5 relation kinds in the original).
PropertyGraph MakeImdbLike(const KbConfig& cfg);

}  // namespace gfd

#endif  // GFD_DATAGEN_KB_H_
