// Flow scheduling: ordering multiple flows within an ETL time window.
//
// Sec. 2.2 (freshness): "scheduling of both the data flow and execution
// order of transformations becomes crucial", and Sec. 3.4 restructures
// Fig. 3 into independent flows precisely so each can run on its own
// schedule. This module plans the execution order of a set of flows that
// share one window: each flow has an estimated duration and a deadline
// (its freshness commitment); the planner orders them by earliest
// deadline (EDF — optimal for single-machine feasibility) and reports
// per-flow slack and overall feasibility. Running the flows is the
// FlowService's job: a one-worker EDF service executes this plan's order
// (examples/nightly_window).

#ifndef QOX_CORE_SCHEDULE_H_
#define QOX_CORE_SCHEDULE_H_

#include <string>
#include <vector>

namespace qox {

/// One flow to place in the window.
struct FlowJob {
  std::string id;
  /// Deadline relative to the window start, seconds (the moment this
  /// flow's data must be in the warehouse).
  double deadline_s = 0.0;
  /// Planner's estimated duration, seconds (e.g. from the cost model).
  double estimated_duration_s = 0.0;
};

/// One planned slot.
struct ScheduledSlot {
  std::string id;
  double start_s = 0.0;
  double expected_end_s = 0.0;
  double deadline_s = 0.0;
  /// deadline - expected_end (negative = predicted miss).
  double slack_s = 0.0;
};

struct SchedulePlan {
  std::vector<ScheduledSlot> slots;  ///< in execution order
  bool feasible = true;              ///< every slot has non-negative slack
  double makespan_s = 0.0;

  std::string ToString() const;
};

/// Plans the jobs by earliest deadline first. Jobs run back to back from
/// time 0 (single execution lane, as in the paper's nightly window).
SchedulePlan PlanSchedule(const std::vector<FlowJob>& jobs);

}  // namespace qox

#endif  // QOX_CORE_SCHEDULE_H_
