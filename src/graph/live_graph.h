// The in-memory graph a serving backend keeps current: a base snapshot,
// the overlay of every batch absorbed since, and one GraphView over both
// that absorbs each batch in place.
//
// GraphStore (serve/graph_store.h) -- a single-node server's store and a
// coordinator's master alike, the only graph either backend holds --
// keeps its graph as a LiveGraph, so a batch reaches memory one way on
// either backend: Parse re-expresses its TSV in the live id space,
// Validate checks it against the view without changing anything, Absorb
// applies it to the view in O(batch + touched degrees), Rollback takes it
// back out when the store's log did not make it durable, and Rebase
// adopts the next snapshot at compaction. A batch is validated once:
// the serving step validates it before its record is written, and
// absorbs it only between the step's two sides.
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

  /// Checks that `batch` -- Parse's result, or any delta in the live id
  /// space whose extension tables extend the overlay's -- applies on the
  /// view as it stands. Changes nothing. False when an op cannot apply
  /// (*error is "op N: ...", N counted from the batch's first op).
  bool Validate(const GraphDelta& batch, std::string* error = nullptr) const;

  /// Absorbs `batch`, which Validate accepted on the current state, in
  /// place: the overlay gains its ops and the tails of its extension
  /// tables, and the view applies them.
  void Absorb(const GraphDelta& batch);

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
  // Heap-held, so the view's base pointer survives moves of the owner.
  std::unique_ptr<PropertyGraph> base_;
  GraphDelta overlay_;
  std::optional<GraphView> view_;
};

}  // namespace gfd

#endif  // GFD_GRAPH_LIVE_GRAPH_H_
