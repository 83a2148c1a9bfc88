#include "core/schedule.h"

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "engine/flow_service.h"
#include "engine/ops/filter_op.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowJob MakeJob(const std::string& id, double deadline_s,
                double duration_s) {
  FlowJob job;
  job.id = id;
  job.deadline_s = deadline_s;
  job.estimated_duration_s = duration_s;
  return job;
}

TEST(PlanScheduleTest, OrdersByEarliestDeadline) {
  const SchedulePlan plan = PlanSchedule(
      {MakeJob("late", 100, 10), MakeJob("urgent", 20, 5),
       MakeJob("mid", 50, 10)});
  ASSERT_EQ(plan.slots.size(), 3u);
  EXPECT_EQ(plan.slots[0].id, "urgent");
  EXPECT_EQ(plan.slots[1].id, "mid");
  EXPECT_EQ(plan.slots[2].id, "late");
  EXPECT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.makespan_s, 25.0);
}

TEST(PlanScheduleTest, SlotsPackBackToBack) {
  const SchedulePlan plan =
      PlanSchedule({MakeJob("a", 10, 4), MakeJob("b", 20, 6)});
  EXPECT_DOUBLE_EQ(plan.slots[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(plan.slots[0].expected_end_s, 4.0);
  EXPECT_DOUBLE_EQ(plan.slots[0].slack_s, 6.0);
  EXPECT_DOUBLE_EQ(plan.slots[1].start_s, 4.0);
  EXPECT_DOUBLE_EQ(plan.slots[1].expected_end_s, 10.0);
  EXPECT_DOUBLE_EQ(plan.slots[1].slack_s, 10.0);
}

TEST(PlanScheduleTest, DetectsInfeasibility) {
  const SchedulePlan plan =
      PlanSchedule({MakeJob("a", 5, 4), MakeJob("b", 7, 4)});
  EXPECT_FALSE(plan.feasible);
  EXPECT_LT(plan.slots[1].slack_s, 0.0);
  // EDF is optimal: if EDF cannot schedule it, no order can.
  const SchedulePlan reversed =
      PlanSchedule({MakeJob("b", 7, 4), MakeJob("a", 5, 4)});
  EXPECT_FALSE(reversed.feasible);
}

TEST(PlanScheduleTest, DeterministicTieBreak) {
  const SchedulePlan plan =
      PlanSchedule({MakeJob("zz", 10, 1), MakeJob("aa", 10, 1)});
  EXPECT_EQ(plan.slots[0].id, "aa");
}

TEST(PlanScheduleTest, EmptyAndToString) {
  const SchedulePlan plan = PlanSchedule({});
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.slots.empty());
  const SchedulePlan full =
      PlanSchedule({MakeJob("a", 5, 10)});
  const std::string text = full.ToString();
  EXPECT_NE(text.find("INFEASIBLE"), std::string::npos);
  EXPECT_NE(text.find("[a "), std::string::npos);
}

// The nightly-window recipe (examples/nightly_window): the planned slots,
// submitted in order to a one-worker EDF FlowService with each deadline as
// the flow's SLA, run in the plan's order and meet their deadlines. Ties
// keep the plan's order too: the plan breaks equal deadlines by id, the
// service by submission order.
TEST(PlanScheduleTest, PlannedOrderRunsOnAnEdfService) {
  const SchedulePlan plan =
      PlanSchedule({MakeJob("zz", 30, 0.05), MakeJob("aa", 30, 0.05),
                    MakeJob("urgent", 10, 0.05)});
  ASSERT_TRUE(plan.feasible);
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kEdf;
  FlowService service(service_config);

  std::mutex mu;
  std::vector<std::string> finish_order;
  std::vector<uint64_t> tickets;
  for (const ScheduledSlot& slot : plan.slots) {
    FlowSubmission submission;
    submission.flow.id = slot.id;
    submission.flow.source = testing_util::MakeSource(
        SimpleSchema(), SimpleRows(500), slot.id + "_src");
    submission.flow.transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<FilterOp>(
          "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
    });
    submission.flow.target =
        std::make_shared<MemTable>(slot.id + "_tgt", SimpleSchema());
    submission.flow.post_success = [&mu, &finish_order,
                                    id = slot.id]() -> Status {
      std::lock_guard<std::mutex> lock(mu);
      finish_order.push_back(id);
      return Status::OK();
    };
    submission.config.sla.deadline_micros =
        static_cast<int64_t>(slot.deadline_s * 1e6);
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(ticket.value());
  }
  for (const uint64_t ticket : tickets) {
    const Result<RunMetrics> metrics = service.Wait(ticket);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_GT(metrics.value().rows_loaded, 0u);
    EXPECT_GT(metrics.value().deadline_slack_micros, 0);
  }
  EXPECT_EQ(finish_order, (std::vector<std::string>{"urgent", "aa", "zz"}));
  EXPECT_EQ(service.stats().deadline_hits, 3u);
}

}  // namespace
}  // namespace qox
