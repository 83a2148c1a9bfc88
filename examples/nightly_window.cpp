// Nightly window: scheduling all three Fig. 3 flows inside one ETL time
// window with per-flow freshness deadlines.
//
// "scheduling of both the data flow and execution order of
// transformations becomes crucial" (Sec. 2.2). The planner estimates each
// flow's duration with the calibrated cost model, orders the flows by
// earliest deadline and checks feasibility. The flows then run for real on
// a one-worker EDF FlowService, each with its deadline as its SLA, and the
// example reports which deadlines were met.
//
// Run: ./build/examples/nightly_window

#include <cstdio>
#include <iostream>
#include <map>

#include "core/cost_model.h"
#include "core/sales_workflow.h"
#include "core/schedule.h"
#include "engine/flow_service.h"

using namespace qox;  // example code; library code never does this

int main() {
  SalesScenarioConfig config;
  config.s1_rows = 30000;
  config.s2_rows = 4000;
  config.s3_rows = 10000;
  std::unique_ptr<SalesScenario> scenario =
      SalesScenario::Create(config).TakeValue();

  // Calibrate the model from a probe of the heaviest flow.
  const Result<RunMetrics> probe =
      Executor::Run(scenario->bottom_flow().ToFlowSpec(), ExecutionConfig{});
  if (!probe.ok()) {
    std::cerr << "probe failed: " << probe.status() << "\n";
    return 1;
  }
  if (!scenario->ResetWarehouse().ok()) return 1;
  const CostModel model(
      CostModel::Calibrate(CostModelParams{}, probe.value(),
                           scenario->bottom_flow(), config.s1_rows));

  // Estimated durations drive the plan; deadlines come from each flow's
  // freshness commitment (the clickstream is the most pressing).
  const auto estimate = [&model](const LogicalFlow& flow, double rows) {
    PhysicalDesign design;
    design.flow = flow;
    return model.EstimatePhases(design, rows).total_s;
  };
  const std::map<std::string, const LogicalFlow*> flows = {
      {"sales_bottom", &scenario->bottom_flow()},
      {"staff_middle", &scenario->middle_flow()},
      {"click_top", &scenario->top_flow()}};
  std::vector<FlowJob> jobs(3);
  jobs[0].id = "sales_bottom";
  jobs[0].deadline_s = 2.0;
  jobs[0].estimated_duration_s =
      estimate(scenario->bottom_flow(), config.s1_rows);
  jobs[1].id = "staff_middle";
  jobs[1].deadline_s = 3.0;
  jobs[1].estimated_duration_s =
      estimate(scenario->middle_flow(), config.s2_rows);
  jobs[2].id = "click_top";
  jobs[2].deadline_s = 0.5;  // pressing freshness requirement
  jobs[2].estimated_duration_s =
      estimate(scenario->top_flow(), config.s3_rows);

  const SchedulePlan plan = PlanSchedule(jobs);
  std::cout << "plan: " << plan.ToString() << "\n\n";

  // One worker and one flow at a time: the nightly window's single
  // execution lane. The window opens now; the first submission takes the
  // free slot and the EDF queue orders the rest, so submitting in the
  // plan's order runs the plan's order.
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kEdf;
  FlowService service(service_config);
  std::vector<uint64_t> tickets;
  for (const ScheduledSlot& slot : plan.slots) {
    FlowSubmission submission;
    submission.flow = flows.at(slot.id)->ToFlowSpec();
    submission.config.sla.deadline_micros =
        static_cast<int64_t>(slot.deadline_s * 1e6);
    submission.predicted_micros =
        static_cast<int64_t>((slot.expected_end_s - slot.start_s) * 1e6);
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    if (!ticket.ok()) {
      std::cerr << "submit failed: " << ticket.status() << "\n";
      return 1;
    }
    tickets.push_back(ticket.value());
  }

  std::printf("%-14s %10s %10s %10s %10s %s\n", "flow", "queued_s", "run_s",
              "deadline", "slack_s", "met");
  size_t met = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const Result<RunMetrics> metrics = service.Wait(tickets[i]);
    if (!metrics.ok()) {
      std::cerr << "flow " << plan.slots[i].id
                << " failed: " << metrics.status() << "\n";
      return 1;
    }
    const double slack_s =
        static_cast<double>(metrics.value().deadline_slack_micros) / 1e6;
    if (slack_s >= 0) ++met;
    std::printf("%-14s %10.3f %10.3f %10.2f %10.3f %s\n",
                plan.slots[i].id.c_str(),
                static_cast<double>(metrics.value().queue_wait_micros) / 1e6,
                static_cast<double>(metrics.value().total_micros) / 1e6,
                plan.slots[i].deadline_s, slack_s, slack_s >= 0 ? "yes" : "NO");
  }
  std::cout << "\n" << met << "/" << tickets.size()
            << " deadlines met\nwarehouse: SALES="
            << scenario->dw1()->NumRows().value()
            << " SALES_REP=" << scenario->dw2()->NumRows().value()
            << " CUSTOMER=" << scenario->dw3()->NumRows().value() << "\n";
  return 0;
}
