// FlowService: many flows over one shared WorkerPool. Covers output
// equivalence (concurrent service runs byte-identical to solo phased AND
// solo streaming execution), observable EDF dispatch ordering, the
// admission-control reject path, cross-flow failure isolation, and the
// queue-wait / deadline-slack attribution in RunMetrics (met and missed).

#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/flow_service.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const std::string& id, const DataStorePtr& source,
                  const DataStorePtr& target) {
  FlowSpec spec;
  spec.id = id;
  spec.source = source;
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 3.0)});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("sort",
                                    std::vector<SortKey>{{"id", false}});
  });
  spec.target = target;
  return spec;
}

Schema BoundSchema() {
  Schema schema = SimpleSchema();
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 3.0)});
  return fn.Bind(schema).value();
}

/// Solo reference run of the flow under `config` on a private pool.
std::vector<Row> RunSolo(const DataStorePtr& source, ExecutionConfig config) {
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow("solo", source, target), config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return target->ReadAll().value().rows();
}

TEST(FlowServiceTest, ConcurrentFlowsMatchSoloPhasedAndStreaming) {
  // 8 concurrent flows (phased and streaming alternating, distinct row
  // volumes) against a small shared pool: every target must come out
  // byte-identical to the same flow run solo on a private pool. Only
  // thread provenance changes under the service — never results.
  constexpr size_t kFlows = 8;
  std::vector<DataStorePtr> sources;
  std::vector<std::vector<Row>> expected;
  std::vector<ExecutionConfig> configs;
  for (size_t i = 0; i < kFlows; ++i) {
    sources.push_back(
        testing_util::MakeSource(SimpleSchema(), SimpleRows(300 + 67 * i)));
    ExecutionConfig config;
    config.num_threads = 2;
    config.parallel.partitions = 2;
    config.batch_size = 64;
    config.streaming = (i % 2 == 1);
    configs.push_back(config);
    expected.push_back(RunSolo(sources[i], config));
  }

  FlowServiceConfig service_config;
  service_config.num_workers = 3;
  service_config.max_concurrent_flows = kFlows;  // all live at once
  FlowService service(service_config);
  std::vector<std::shared_ptr<MemTable>> targets;
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < kFlows; ++i) {
    targets.push_back(std::make_shared<MemTable>("tgt", BoundSchema()));
    FlowSubmission submission;
    submission.flow =
        MakeFlow("flow" + std::to_string(i), sources[i], targets[i]);
    submission.config = configs[i];
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(ticket.value());
  }
  for (size_t i = 0; i < kFlows; ++i) {
    const Result<RunMetrics> metrics = service.Wait(tickets[i]);
    ASSERT_TRUE(metrics.ok()) << "flow " << i << ": " << metrics.status();
    EXPECT_EQ(metrics.value().streaming, configs[i].streaming);
    EXPECT_EQ(expected[i], targets[i]->ReadAll().value().rows())
        << "flow " << i << " diverged from its solo run";
  }
  EXPECT_EQ(service.stats().admitted, kFlows);
  EXPECT_EQ(service.stats().completed, kFlows);
}

TEST(FlowServiceTest, EdfDispatchesTightestDeadlineFirst) {
  // One concurrency slot, one long-running flow occupying it; three more
  // flows submitted with deadlines in reverse-urgency order. Under EDF
  // the pending queue must drain tightest-deadline-first, observable via
  // each flow's load order into a shared ledger of completion.
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kEdf;
  FlowService service(service_config);

  std::mutex mu;
  std::vector<std::string> finish_order;
  const auto submit = [&](const std::string& id, int64_t deadline_micros,
                          size_t rows) {
    FlowSubmission submission;
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    submission.flow = MakeFlow(
        id, testing_util::MakeSource(SimpleSchema(), SimpleRows(rows)),
        target);
    submission.flow.post_success = [&mu, &finish_order, id]() -> Status {
      std::lock_guard<std::mutex> lock(mu);
      finish_order.push_back(id);
      return Status::OK();
    };
    submission.config.sla.deadline_micros = deadline_micros;
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    EXPECT_TRUE(ticket.ok()) << ticket.status();
    return ticket.value();
  };

  // The slot-occupier keeps the queue backed up while the rest arrive.
  const uint64_t first = submit("occupier", 0, 20000);
  const uint64_t loose = submit("loose", 60000000, 50);
  const uint64_t none = submit("none", 0, 50);
  const uint64_t tight = submit("tight", 5000000, 50);
  for (const uint64_t t : {first, loose, none, tight}) {
    ASSERT_TRUE(service.Wait(t).ok());
  }
  ASSERT_EQ(finish_order.size(), 4u);
  EXPECT_EQ(finish_order[0], "occupier");
  EXPECT_EQ(finish_order[1], "tight");   // earliest deadline jumps the queue
  EXPECT_EQ(finish_order[2], "loose");
  EXPECT_EQ(finish_order[3], "none");    // no deadline goes last
}

TEST(FlowServiceTest, FifoDispatchesInSubmissionOrder) {
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kFifo;
  FlowService service(service_config);

  std::mutex mu;
  std::vector<std::string> finish_order;
  std::vector<uint64_t> tickets;
  const std::vector<std::string> ids = {"a", "b", "c", "d"};
  for (size_t i = 0; i < ids.size(); ++i) {
    FlowSubmission submission;
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    submission.flow = MakeFlow(
        ids[i], testing_util::MakeSource(SimpleSchema(), SimpleRows(100)),
        target);
    const std::string id = ids[i];
    submission.flow.post_success = [&mu, &finish_order, id]() -> Status {
      std::lock_guard<std::mutex> lock(mu);
      finish_order.push_back(id);
      return Status::OK();
    };
    // Deadlines in REVERSE submission order: FIFO must ignore them.
    submission.config.sla.deadline_micros =
        static_cast<int64_t>((ids.size() - i) * 10000000);
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(ticket.value());
  }
  for (const uint64_t t : tickets) ASSERT_TRUE(service.Wait(t).ok());
  EXPECT_EQ(finish_order, ids);
}

TEST(FlowServiceTest, AdmissionControlRejectsInfeasibleSla) {
  FlowServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.max_concurrent_flows = 2;
  service_config.admit_only_feasible = true;
  FlowService service(service_config);

  // First flow: generous deadline, large predicted load — admitted. Its
  // post_success hook parks on a latch so the predicted load stays
  // outstanding until every later submission has been adjudicated (the
  // tiny flow would otherwise race to completion and free the capacity
  // the test needs occupied).
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool released = false;
  FlowSubmission big;
  auto target1 = std::make_shared<MemTable>("tgt", BoundSchema());
  big.flow = MakeFlow(
      "big", testing_util::MakeSource(SimpleSchema(), SimpleRows(500)),
      target1);
  big.flow.post_success = [&hold_mu, &hold_cv, &released]() {
    std::unique_lock<std::mutex> lock(hold_mu);
    hold_cv.wait(lock, [&released]() { return released; });
    return Status::OK();
  };
  big.config.sla.deadline_micros = 3600000000;  // one hour: feasible
  big.predicted_micros = 500000000;             // ~250s/worker outstanding
  const Result<uint64_t> admitted = service.Submit(std::move(big));
  ASSERT_TRUE(admitted.ok()) << admitted.status();

  // Second flow: a deadline the outstanding predicted load already makes
  // impossible — rejected at Submit with kResourceExhausted.
  FlowSubmission doomed;
  auto target2 = std::make_shared<MemTable>("tgt", BoundSchema());
  doomed.flow = MakeFlow(
      "doomed", testing_util::MakeSource(SimpleSchema(), SimpleRows(10)),
      target2);
  doomed.config.sla.deadline_micros = 1000000;  // 1s: infeasible
  doomed.predicted_micros = 900000;
  const Result<uint64_t> rejected = service.Submit(std::move(doomed));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // A flow without an SLA is always admitted, whatever the load.
  FlowSubmission no_sla;
  auto target3 = std::make_shared<MemTable>("tgt", BoundSchema());
  no_sla.flow = MakeFlow(
      "no_sla", testing_util::MakeSource(SimpleSchema(), SimpleRows(10)),
      target3);
  no_sla.predicted_micros = 900000;
  const Result<uint64_t> always = service.Submit(std::move(no_sla));
  ASSERT_TRUE(always.ok()) << always.status();

  {
    std::lock_guard<std::mutex> lock(hold_mu);
    released = true;
  }
  hold_cv.notify_all();
  ASSERT_TRUE(service.Wait(admitted.value()).ok());
  ASSERT_TRUE(service.Wait(always.value()).ok());
  EXPECT_EQ(service.stats().submitted, 3u);
  EXPECT_EQ(service.stats().admitted, 2u);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(FlowServiceTest, FailingFlowDoesNotPoisonNeighbors) {
  // One flow fails permanently mid-run (injected failure, no retry
  // budget); its neighbors — including streaming ones sharing the pool —
  // complete untouched and byte-identical to solo runs.
  FlowServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.max_concurrent_flows = 4;
  FlowService service(service_config);

  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 1;
  spec.at_fraction = 0.5;
  spec.on_attempt = 1;
  injector.AddFailure(spec);

  FlowSubmission failing;
  auto failing_target = std::make_shared<MemTable>("tgt", BoundSchema());
  failing.flow = MakeFlow(
      "failing", testing_util::MakeSource(SimpleSchema(), SimpleRows(400)),
      failing_target);
  failing.config.injector = &injector;
  failing.config.retry.max_attempts = 1;  // no retries: the flow dies
  const Result<uint64_t> failing_ticket = service.Submit(std::move(failing));
  ASSERT_TRUE(failing_ticket.ok());

  std::vector<uint64_t> healthy;
  std::vector<std::shared_ptr<MemTable>> targets;
  std::vector<std::vector<Row>> expected;
  std::vector<DataStorePtr> sources;
  for (size_t i = 0; i < 3; ++i) {
    sources.push_back(
        testing_util::MakeSource(SimpleSchema(), SimpleRows(200 + i)));
    ExecutionConfig config;
    config.streaming = (i % 2 == 0);
    config.num_threads = 2;
    config.parallel.partitions = 2;
    expected.push_back(RunSolo(sources[i], config));
    targets.push_back(std::make_shared<MemTable>("tgt", BoundSchema()));
    FlowSubmission submission;
    submission.flow =
        MakeFlow("healthy" + std::to_string(i), sources[i], targets[i]);
    submission.config = config;
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    ASSERT_TRUE(ticket.ok());
    healthy.push_back(ticket.value());
  }

  const Result<RunMetrics> failed = service.Wait(failing_ticket.value());
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInjectedFailure);
  for (size_t i = 0; i < healthy.size(); ++i) {
    const Result<RunMetrics> metrics = service.Wait(healthy[i]);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(expected[i], targets[i]->ReadAll().value().rows());
  }
  EXPECT_EQ(service.stats().completed, 4u);
}

TEST(FlowServiceTest, AttributesQueueWaitAndDeadlineSlack) {
  // With one slot, the second flow demonstrably queues; its metrics must
  // carry the wait, and a deadline-carrying flow must report its slack.
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  FlowService service(service_config);

  const auto submit = [&](int64_t deadline_micros, size_t rows) {
    FlowSubmission submission;
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    submission.flow = MakeFlow(
        "flow", testing_util::MakeSource(SimpleSchema(), SimpleRows(rows)),
        target);
    submission.config.sla.deadline_micros = deadline_micros;
    return service.Submit(std::move(submission)).value();
  };
  const uint64_t first = submit(0, 3000);
  const uint64_t second = submit(3600000000, 50);  // queues behind first

  const Result<RunMetrics> first_metrics = service.Wait(first);
  ASSERT_TRUE(first_metrics.ok());
  EXPECT_EQ(first_metrics.value().deadline_slack_micros, 0);  // no SLA

  const Result<RunMetrics> second_metrics = service.Wait(second);
  ASSERT_TRUE(second_metrics.ok());
  EXPECT_GT(second_metrics.value().queue_wait_micros, 0);
  EXPECT_GT(second_metrics.value().deadline_slack_micros, 0);  // met easily
  EXPECT_EQ(service.stats().deadline_hits, 1u);
  EXPECT_EQ(service.stats().deadline_misses, 0u);
}

TEST(FlowServiceTest, MissedDeadlineReportsNegativeSlack) {
  // A flow that cannot meet its deadline still runs to completion; the
  // miss shows as negative slack and in the service's miss count, which is
  // how a caller tells met from missed. A flow queued behind it with an
  // hour of slack still meets its own deadline.
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kEdf;
  FlowService service(service_config);

  std::vector<std::shared_ptr<MemTable>> targets;
  const auto submit = [&](int64_t deadline_micros) {
    FlowSubmission submission;
    targets.push_back(std::make_shared<MemTable>("tgt", BoundSchema()));
    submission.flow = MakeFlow(
        "flow", testing_util::MakeSource(SimpleSchema(), SimpleRows(2000)),
        targets.back());
    submission.config.sla.deadline_micros = deadline_micros;
    return service.Submit(std::move(submission)).value();
  };
  const uint64_t impossible = submit(1);
  const uint64_t relaxed = submit(3600000000);

  const Result<RunMetrics> missed = service.Wait(impossible);
  ASSERT_TRUE(missed.ok()) << missed.status();
  EXPECT_LT(missed.value().deadline_slack_micros, 0);
  EXPECT_EQ(missed.value().rows_loaded, targets[0]->NumRows().value());
  EXPECT_GT(missed.value().rows_loaded, 0u);

  const Result<RunMetrics> met = service.Wait(relaxed);
  ASSERT_TRUE(met.ok()) << met.status();
  EXPECT_GT(met.value().deadline_slack_micros, 0);
  EXPECT_EQ(service.stats().deadline_misses, 1u);
  EXPECT_EQ(service.stats().deadline_hits, 1u);
}

TEST(FlowServiceTest, WaitOnUnknownTicketErrors) {
  FlowService service(FlowServiceConfig{});
  const Result<RunMetrics> result = service.Wait(42);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FlowServiceTest, SoloRunStillStampsDeadlineSlack) {
  // The SLA knob works without a service: a solo Run() with a relative
  // deadline stamps it at start and reports slack on completion.
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.sla.deadline_micros = 3600000000;  // an hour of slack
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow("solo_sla",
               testing_util::MakeSource(SimpleSchema(), SimpleRows(100)),
               target),
      config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().deadline_slack_micros, 0);
  EXPECT_EQ(metrics.value().queue_wait_micros, 0);  // no service, no queue
}

}  // namespace
}  // namespace qox
