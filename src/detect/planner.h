// Cost-based choice between the two per-batch detection paths of the
// serving loop: the anchored step diff (ViolationEngine::DetectStep) and
// a full re-detect of both sides. A DetectPlanner makes that choice once
// per batch, BEFORE the append, from the batch text and the live graph's
// size alone (MakePlannerInputs) -- so the choice is deterministic, both
// serving backends decide identically on the same stream, and the
// chosen path's before-side can still run against the pre-batch state.
//
// The full path stays because batch size alone can make it the cheaper
// one: on bench_incremental's 10% row the full re-detect runs about 2x
// faster than the incremental diff of that one batch.
//
// An uncalibrated planner applies the seeded crossover rule (full once
// the batch reaches kIncrementalCrossoverFraction of the graph's edges);
// observed wall-clocks (ObserveIncremental / ObserveFull, from served
// batches and startup seeding scans) then calibrate per-unit costs, and
// the decision becomes a cost comparison. The calibration stays because
// the seeded rule alone misses that same row: 226 batch ops on 2,270
// edges is just under the 227-op threshold.
#ifndef GFD_DETECT_PLANNER_H_
#define GFD_DETECT_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "graph/graph_view.h"

namespace gfd {

/// The batch-to-graph-size fraction past which a full re-detect beats the
/// incremental path: the crossover BENCH_incremental.json records between
/// the 1% and 10% delta points, pinned at its conservative end. Also
/// GraphStore's default compaction fraction (serve/graph_store.h).
inline constexpr double kIncrementalCrossoverFraction = 0.10;

/// EWMA gain of the planner's online per-unit cost calibration.
inline constexpr double kCalibrationGain = 0.25;

/// Which detection path AppendAndDiff runs for one batch.
enum class DetectPath {
  kIncremental,  ///< anchored step diff (ViolationEngine::DetectStep)
  kFull,         ///< two full Detect runs, diffed (FullStepDiff)
};

struct PlannerConfig {
  enum class Mode {
    kAdaptive,          ///< cost model: seeded rule, then calibrated
    kForceIncremental,  ///< always the incremental path
    kForceFull,         ///< always a full re-detect
  };
  Mode mode = Mode::kAdaptive;
};

/// Pre-append inputs of one batch's cost estimate: the batch text and the
/// live graph's size, nothing else.
struct PlannerInputs {
  size_t batch_ops = 0;    ///< ops the incoming batch contributes
  size_t graph_nodes = 0;  ///< live graph, pre-append
  size_t graph_edges = 0;
  size_t num_groups = 0;    ///< compiled pattern groups (full-scan units)
  size_t anchor_plans = 0;  ///< (group, variable) plans (anchored units)
};

struct PlannerStats {
  uint64_t incremental_decisions = 0;
  uint64_t full_decisions = 0;
  uint64_t incremental_observations = 0;
  uint64_t full_observations = 0;
};

/// Work-unit measures the calibrated comparison scales its per-unit
/// costs by: the incremental path seeds every anchor plan from the
/// batch's nodes and walks their adjacency; a full run scans the graph
/// once per pattern group. Both are >= 1 so observed seconds always
/// divide.
double IncrementalWork(const PlannerInputs& in);
double FullWork(const PlannerInputs& in);

/// Builds the planner's inputs from the PRE-append live view and the
/// batch text (`delta_tsv`, the incoming E+/E-/A batch). Deterministic in
/// those arguments -- this is the one input path every backend shares.
PlannerInputs MakePlannerInputs(const GraphView& view,
                                std::string_view delta_tsv,
                                size_t num_groups, size_t anchor_plans);

/// The per-batch path chooser. NOT thread-safe: serving paths consult it
/// under their existing single-writer store mutex (one decision per
/// batch, never concurrent), exactly like the stores it plans for.
class DetectPlanner {
 public:
  explicit DetectPlanner(PlannerConfig config = {});

  /// Chooses the path for one batch and counts the decision (also in the
  /// gfd_detect_planner_decisions_total metric).
  DetectPath Plan(const PlannerInputs& in);

  /// Calibration feedback: the observed wall-clock of one batch served
  /// on the respective path (or, for ObserveFull, of a startup seeding
  /// scan -- which is how the full path calibrates without ever being
  /// chosen). Non-positive durations only count the observation.
  void ObserveIncremental(const PlannerInputs& in, double seconds);
  void ObserveFull(const PlannerInputs& in, double seconds);

  /// True once both per-unit costs have a live estimate and Plan()
  /// compares costs instead of applying the seeded crossover rule.
  bool calibrated() const { return inc_unit_ > 0 && full_unit_ > 0; }

  const PlannerConfig& config() const { return config_; }
  const PlannerStats& stats() const { return stats_; }

 private:
  void ObserveUnit(double* unit, double seconds, double work);

  PlannerConfig config_;
  PlannerStats stats_;
  // EWMA seconds per work unit; 0 = no observation yet.
  double inc_unit_ = 0;
  double full_unit_ = 0;
};

}  // namespace gfd

#endif  // GFD_DETECT_PLANNER_H_
