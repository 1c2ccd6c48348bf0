// The in-memory graph a serving backend keeps current: a base snapshot,
// the overlay of every batch absorbed since, and one GraphView over both
// that absorbs each batch in place.
//
// GraphStore (serve/graph_store.h, also each coordinator fragment) and
// the coordinator's RoutingIndex (serve/routing_index.h) both hold their
// graph as a LiveGraph, so a batch reaches memory one way on either
// backend: Parse re-expresses its TSV in the live id space, Absorb
// validates it and applies it to the view in O(batch + touched degrees),
// Rollback takes it back out when it never became durable, and Rebase
// adopts the next snapshot at compaction.
#ifndef GFD_GRAPH_LIVE_GRAPH_H_
#define GFD_GRAPH_LIVE_GRAPH_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph_view.h"
#include "graph/property_graph.h"

namespace gfd {

class LiveGraph {
 public:
  /// `base` with an empty overlay.
  explicit LiveGraph(PropertyGraph base);

  const PropertyGraph& base() const { return *base_; }
  const GraphDelta& overlay() const { return overlay_; }
  const GraphView& view() const { return *view_; }

  /// Parses `delta_tsv` (the E+/E-/A format of graph/loader.h) against
  /// the base's node names and vocabulary, and re-expresses it in the
  /// live id space: its extension tables are the overlay's, then the
  /// names only this batch introduces. Changes nothing.
  std::optional<GraphDelta> Parse(std::string_view delta_tsv,
                                  std::string* error = nullptr) const;

  /// How far the overlay reached before a batch: what Rollback returns to.
  struct Mark {
    size_t ops = 0;
    size_t labels = 0;
    size_t attrs = 0;
    size_t values = 0;
  };
  Mark mark() const;

  /// Validates `batch` -- Parse's result, or any delta in the live id
  /// space whose extension tables extend the overlay's -- on the view
  /// and absorbs it in place: the overlay gains its ops and the tails of
  /// its extension tables. Returns false, changing nothing, when an op
  /// cannot apply (*error is "op N: ...", N counted from the batch's
  /// first op).
  bool Absorb(const GraphDelta& batch, std::string* error = nullptr);

  /// Takes back every batch absorbed since `to` was taken, for a batch
  /// that never became durable. Rebuilds the view from the base and the
  /// truncated overlay: O(|V| + overlay), on the failure path only.
  void Rollback(const Mark& to);

  /// Adopts `next` -- view().Materialize(), which the caller already
  /// built for its snapshot -- as the base, with an empty overlay. Ids
  /// are preserved, so everything logged or compiled against the old
  /// base stays valid.
  void Rebase(PropertyGraph next);

 private:
  // Cuts the overlay back to `to`, leaving the view alone.
  void Truncate(const Mark& to);

  // Heap-held, so the view's base pointer survives moves of the owner.
  std::unique_ptr<PropertyGraph> base_;
  GraphDelta overlay_;
  std::optional<GraphView> view_;
};

}  // namespace gfd

#endif  // GFD_GRAPH_LIVE_GRAPH_H_
