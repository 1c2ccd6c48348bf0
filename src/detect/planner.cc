#include "detect/planner.h"

#include <algorithm>

#include "detect/metrics.h"

namespace gfd {

double IncrementalWork(const PlannerInputs& in) {
  // Every anchor plan is seeded from the batch's nodes -- at most two
  // endpoints per op, at the mean degree 2|E|/|V| -- and walks their
  // adjacency; +1 keeps the measure positive for empty batches.
  const uint64_t avg_degree =
      in.graph_nodes == 0 ? 0 : (2 * in.graph_edges) / in.graph_nodes;
  const double per_plan =
      static_cast<double>(2 * in.batch_ops * (avg_degree + 1)) + 1.0;
  return static_cast<double>(std::max<size_t>(in.anchor_plans, 1)) * per_plan;
}

double FullWork(const PlannerInputs& in) {
  // A full run scans every node and edge once per pattern group.
  const double per_group =
      static_cast<double>(in.graph_edges) +
      static_cast<double>(in.graph_nodes) + 1.0;
  return static_cast<double>(std::max<size_t>(in.num_groups, 1)) * per_group;
}

PlannerInputs MakePlannerInputs(const GraphView& view,
                                std::string_view delta_tsv,
                                size_t num_groups, size_t anchor_plans) {
  PlannerInputs in;
  // Count the batch's ops from the text alone: one op per E+/E-/A line.
  // This is an upper bound (a malformed line that Append would reject
  // still counts), which is the right direction for a cost estimate.
  size_t pos = 0;
  while (pos < delta_tsv.size()) {
    const char c = delta_tsv[pos];
    if (c == 'E' || c == 'A') ++in.batch_ops;
    const size_t nl = delta_tsv.find('\n', pos);
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  in.graph_nodes = view.NumNodes();
  in.graph_edges = view.NumEdges();
  in.num_groups = num_groups;
  in.anchor_plans = anchor_plans;
  return in;
}

DetectPlanner::DetectPlanner(PlannerConfig config) : config_(config) {}

DetectPath DetectPlanner::Plan(const PlannerInputs& in) {
  DetectPath path = DetectPath::kIncremental;
  switch (config_.mode) {
    case PlannerConfig::Mode::kForceIncremental:
      path = DetectPath::kIncremental;
      break;
    case PlannerConfig::Mode::kForceFull:
      path = DetectPath::kFull;
      break;
    case PlannerConfig::Mode::kAdaptive:
      if (calibrated()) {
        path = inc_unit_ * IncrementalWork(in) >= full_unit_ * FullWork(in)
                   ? DetectPath::kFull
                   : DetectPath::kIncremental;
      } else {
        // Seeded rule: the bench crossover, on batch size.
        path = in.graph_edges > 0 &&
                       static_cast<double>(in.batch_ops) >=
                           kIncrementalCrossoverFraction *
                               static_cast<double>(in.graph_edges)
                   ? DetectPath::kFull
                   : DetectPath::kIncremental;
      }
      break;
  }
  if (path == DetectPath::kFull) {
    ++stats_.full_decisions;
    PlannerDecisions(DetectPath::kFull).Inc();
  } else {
    ++stats_.incremental_decisions;
    PlannerDecisions(DetectPath::kIncremental).Inc();
  }
  return path;
}

void DetectPlanner::ObserveIncremental(const PlannerInputs& in,
                                       double seconds) {
  ++stats_.incremental_observations;
  ObserveUnit(&inc_unit_, seconds, IncrementalWork(in));
}

void DetectPlanner::ObserveFull(const PlannerInputs& in, double seconds) {
  ++stats_.full_observations;
  ObserveUnit(&full_unit_, seconds, FullWork(in));
}

void DetectPlanner::ObserveUnit(double* unit, double seconds, double work) {
  if (seconds <= 0) return;  // clock glitch: keep the old estimate
  const double u = seconds / work;
  *unit = *unit == 0 ? u : *unit + kCalibrationGain * (u - *unit);
}

}  // namespace gfd
