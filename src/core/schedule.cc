#include "core/schedule.h"

#include <algorithm>
#include <sstream>

namespace qox {

std::string SchedulePlan::ToString() const {
  std::ostringstream oss;
  oss << (feasible ? "feasible" : "INFEASIBLE") << " makespan=" << makespan_s
      << "s:";
  for (const ScheduledSlot& slot : slots) {
    oss << " [" << slot.id << " " << slot.start_s << "-"
        << slot.expected_end_s << "s dl=" << slot.deadline_s
        << "s slack=" << slot.slack_s << "s]";
  }
  return oss.str();
}

SchedulePlan PlanSchedule(const std::vector<FlowJob>& jobs) {
  // Earliest deadline first; ties broken by id for determinism.
  std::vector<const FlowJob*> order;
  order.reserve(jobs.size());
  for (const FlowJob& job : jobs) order.push_back(&job);
  std::sort(order.begin(), order.end(),
            [](const FlowJob* a, const FlowJob* b) {
              if (a->deadline_s != b->deadline_s) {
                return a->deadline_s < b->deadline_s;
              }
              return a->id < b->id;
            });
  SchedulePlan plan;
  double t = 0.0;
  for (const FlowJob* job : order) {
    ScheduledSlot slot;
    slot.id = job->id;
    slot.start_s = t;
    t += job->estimated_duration_s;
    slot.expected_end_s = t;
    slot.deadline_s = job->deadline_s;
    slot.slack_s = job->deadline_s - t;
    if (slot.slack_s < 0) plan.feasible = false;
    plan.slots.push_back(std::move(slot));
  }
  plan.makespan_s = t;
  return plan;
}

}  // namespace qox
