#include "graph/live_graph.h"

#include <utility>
#include <vector>

#include "graph/loader.h"

namespace gfd {

LiveGraph::LiveGraph(PropertyGraph base)
    : base_(std::make_unique<PropertyGraph>(std::move(base))),
      view_(GraphView::Apply(*base_, overlay_)) {}

std::optional<GraphDelta> LiveGraph::Parse(std::string_view delta_tsv,
                                           std::string* error) const {
  // The batch's extension tables start as the overlay's, so the names
  // only it introduces are interned past them, in first-use order.
  GraphDelta batch;
  batch.extra_labels = overlay_.extra_labels;
  batch.extra_attrs = overlay_.extra_attrs;
  batch.extra_values = overlay_.extra_values;
  if (!AppendGraphDeltaTsv(delta_tsv, *base_, &batch, error)) {
    return std::nullopt;
  }
  return batch;
}

LiveGraph::Mark LiveGraph::mark() const {
  return {overlay_.ops.size(), overlay_.extra_labels.size(),
          overlay_.extra_attrs.size(), overlay_.extra_values.size()};
}

bool LiveGraph::Validate(const GraphDelta& batch, std::string* error) const {
  return view_->ValidateAppended(batch, 0, error);
}

void LiveGraph::Absorb(const GraphDelta& batch) {
  const size_t first_op = overlay_.ops.size();
  // The batch's extension tables start with the overlay's, so adopting
  // their tails keeps every id already handed out.
  auto adopt_tail = [](std::vector<std::string>& own,
                       const std::vector<std::string>& extras) {
    own.insert(own.end(), extras.begin() + own.size(), extras.end());
  };
  overlay_.ops.insert(overlay_.ops.end(), batch.ops.begin(), batch.ops.end());
  adopt_tail(overlay_.extra_labels, batch.extra_labels);
  adopt_tail(overlay_.extra_attrs, batch.extra_attrs);
  adopt_tail(overlay_.extra_values, batch.extra_values);
  view_->ApplyAppended(overlay_, first_op);
}

void LiveGraph::Rollback(const Mark& to) {
  overlay_.ops.resize(to.ops);
  overlay_.extra_labels.resize(to.labels);
  overlay_.extra_attrs.resize(to.attrs);
  overlay_.extra_values.resize(to.values);
  // The truncated overlay applied before, so it applies again.
  view_ = GraphView::Apply(*base_, overlay_);
}

void LiveGraph::Rebase(PropertyGraph next) {
  view_.reset();
  base_ = std::make_unique<PropertyGraph>(std::move(next));
  overlay_ = GraphDelta{};
  view_ = GraphView::Apply(*base_, overlay_);
}

}  // namespace gfd
