// n-modular redundancy: majority voting, instance-failure tolerance, and
// output equivalence with the non-redundant run (Sec. 3.3 / Fig. 7).

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/surrogate_key_op.h"
#include "storage/dead_letter_store.h"
#include "storage/faulty_store.h"
#include "storage/recovery_store.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const DataStorePtr& source, const DataStorePtr& target,
                  const SurrogateKeyRegistryPtr& registry = nullptr) {
  FlowSpec spec;
  spec.id = "nmr_flow";
  spec.source = source;
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  if (registry != nullptr) {
    spec.transforms.push_back([registry]() -> OperatorPtr {
      return std::make_unique<SurrogateKeyOp>("sk", registry, "category",
                                              "category_key", true);
    });
  }
  spec.target = target;
  return spec;
}

Schema BoundSchema(bool with_sk,
                   const SurrogateKeyRegistryPtr& registry = nullptr) {
  Schema schema = SimpleSchema();
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  schema = fn.Bind(schema).value();
  if (with_sk) {
    SurrogateKeyOp sk("sk", registry, "category", "category_key", true);
    schema = sk.Bind(schema).value();
  }
  return schema;
}

/// Per-row pass-through whose Finish holds its instance until `injector`
/// has fired once (giving up after 10 s). Instances that reach it cannot
/// finish, so the voter cannot accept a majority and cancel the instance a
/// test kills, before that instance has failed.
class HoldUntilFailureOp : public Operator {
 public:
  explicit HoldUntilFailureOp(const FailureInjector* injector)
      : injector_(injector) {}
  const char* kind() const override { return "hold"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override { return input; }
  Status PushColumnar(ColumnBatch*, ColumnarPushContext*) override {
    return Status::OK();
  }
  Status Finish(RowBatch*) override {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (injector_->triggered_count() < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }

 private:
  const FailureInjector* injector_;
  std::string name_ = "hold";
};

class RedundancyDegreeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RedundancyDegreeTest, VotedOutputEqualsSequential) {
  const size_t k = GetParam();
  const std::vector<Row> input = SimpleRows(400);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);

  auto reference = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());

  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = k;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().redundancy, k);
  EXPECT_TRUE(SameMultiset(reference->ReadAll().value().rows(),
                           target->ReadAll().value().rows()));
}

INSTANTIATE_TEST_SUITE_P(Degrees, RedundancyDegreeTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(RedundancyTest, ToleratesMinorityInstanceFailures) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(300));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FailureInjector injector;
  // Kill instance 1 (TMR tolerates one dead instance).
  FailureSpec spec;
  spec.at_op = 0;
  spec.at_fraction = 0.3;
  spec.target_instance = 1;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  config.injector = &injector;
  // Instances 0 and 2 wait at the end of their chain for instance 1 to die.
  FlowSpec flow = MakeFlow(source, target);
  flow.transforms.push_back([&injector]() -> OperatorPtr {
    return std::make_unique<HoldUntilFailureOp>(&injector);
  });
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  // 37 of the 300 rows (ids 7, 15, ..., 295) carry NULL amounts.
  EXPECT_EQ(target->NumRows().value(), 263u);
}

TEST(RedundancyTest, MajorityLossFailsTheRun) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(100));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FailureInjector injector;
  // Kill 2 of 3 instances: no majority of successes possible... but the
  // surviving instance still constitutes a 1-of-3 result, which is below
  // majority. The run must fail.
  for (int instance = 0; instance < 2; ++instance) {
    FailureSpec spec;
    spec.at_op = 0;
    spec.at_fraction = 0.0;
    spec.target_instance = instance;
    injector.AddFailure(spec);
  }
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  config.injector = &injector;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  EXPECT_FALSE(metrics.ok());
}

TEST(RedundancyTest, SharedSurrogateRegistryKeepsInstancesConsistent) {
  // All redundant instances assign surrogates through one registry, so
  // their outputs are identical and the vote succeeds.
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(true, registry));
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target, registry), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(registry->size(), 3u);  // categories a, b, c
}

TEST(RedundancyTest, MetricsComeFromAcceptedInstance) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ExecutionConfig config;
  config.num_threads = 2;
  config.redundancy = 3;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().rows_extracted, 200u);
  EXPECT_GT(metrics.value().extract_micros, 0);
  EXPECT_EQ(metrics.value().rows_loaded, target->NumRows().value());
}

// A failed load fails the attempt in every mode and at every redundancy:
// the run backs off, and the next attempt (a redundant run's winner
// replaying the voted output) skips the durable prefix. Two failing loads:
// the target's 2nd append fails torn, or an injected failure strikes
// mid-load.
TEST(RedundancyTest, FailedLoadResumesLikeASingleInstance) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  auto reference = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());
  const std::vector<Row> clean = reference->ReadAll().value().rows();
  ASSERT_EQ(clean.size(), 350u);
  for (const bool torn : {true, false}) {
    for (const bool streaming : {false, true}) {
      for (const size_t redundancy : {1, 3}) {
        SCOPED_TRACE(std::string(torn ? "torn append" : "injected") +
                     (streaming ? " streaming" : " phased") +
                     " redundancy=" + std::to_string(redundancy));
        auto warehouse = std::make_shared<MemTable>("tgt", BoundSchema(false));
        DataStorePtr target = warehouse;
        FailureInjector injector;
        if (torn) {
          FaultPlan plan;
          plan.append_fail_on_call = 2;
          plan.torn_writes = true;
          target = std::make_shared<FaultyStore>(warehouse, plan, /*seed=*/1);
        } else {
          FailureSpec spec;
          spec.at_op = FailureSpec::kAtLoad;
          spec.at_fraction = 0.5;
          injector.AddFailure(spec);
        }
        ExecutionConfig config;
        config.num_threads = 4;
        config.streaming = streaming;
        config.redundancy = redundancy;
        config.batch_size = 64;
        config.injector = &injector;
        config.retry.initial_backoff_micros = 0;
        const Result<RunMetrics> metrics =
            Executor::Run(MakeFlow(source, target), config);
        ASSERT_TRUE(metrics.ok()) << metrics.status();
        EXPECT_EQ(metrics.value().attempts, 2u);
        EXPECT_EQ(metrics.value().retries_by_cause,
                  (std::map<std::string, size_t>{
                      {torn ? "unavailable" : "injected_failure", 1}}));
        EXPECT_EQ(metrics.value().failures_injected, torn ? 0u : 1u);
        EXPECT_EQ(metrics.value().rows_loaded, clean.size());
        // Exactly once, in the clean run's order.
        EXPECT_EQ(warehouse->ReadAll().value().rows(), clean);
      }
    }
  }
}

// Rows shed at the load are skipped, like landed rows, by the attempt that
// retries the load, so warehouse and ledger together hold the clean output
// exactly once. The target sheds its 2nd append (ENOSPC) before the load
// fails transiently: by a torn 4th append, or by an injected failure at
// 75 % of the load (a streaming load without redundancy knows no total, so
// there it strikes at the first batch, before the shed).
TEST(RedundancyTest, ShedRowsStaySkippedWhenALoadRetries) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  auto reference = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());
  const std::vector<Row> clean = reference->ReadAll().value().rows();
  for (const bool injected : {true, false}) {
    for (const bool streaming : {false, true}) {
      for (const size_t redundancy : {1, 3}) {
        SCOPED_TRACE(std::string(injected ? "injected" : "torn append") +
                     (streaming ? " streaming" : " phased") +
                     " redundancy=" + std::to_string(redundancy));
        auto warehouse = std::make_shared<MemTable>("tgt", BoundSchema(false));
        FaultPlan enospc;
        enospc.append_fail_on_call = 2;
        enospc.disk_fault = DiskFaultKind::kEnospc;
        DataStorePtr target =
            std::make_shared<FaultyStore>(warehouse, enospc, /*seed=*/1);
        FailureInjector injector;
        if (injected) {
          FailureSpec spec;
          spec.at_op = FailureSpec::kAtLoad;
          spec.at_fraction = 0.75;
          injector.AddFailure(spec);
        } else {
          FaultPlan torn;
          torn.append_fail_on_call = 4;
          torn.torn_writes = true;
          target = std::make_shared<FaultyStore>(target, torn, /*seed=*/2);
        }
        auto dlq = DeadLetterStore::InMemory("dlq");
        ExecutionConfig config;
        config.num_threads = 4;
        config.streaming = streaming;
        config.redundancy = redundancy;
        config.batch_size = 64;
        config.injector = &injector;
        config.retry.initial_backoff_micros = 0;
        config.resource_policy = ResourcePolicy::kShedToQuarantine;
        config.dead_letter = dlq;
        const Result<RunMetrics> metrics =
            Executor::Run(MakeFlow(source, target), config);
        ASSERT_TRUE(metrics.ok()) << metrics.status();
        EXPECT_EQ(metrics.value().attempts, 2u);
        std::vector<Row> recovered = warehouse->ReadAll().value().rows();
        EXPECT_EQ(metrics.value().rows_loaded, recovered.size());
        const std::vector<QuarantineRecord> records = dlq->ReadAll().value();
        EXPECT_EQ(records.size(), 64u);
        EXPECT_EQ(metrics.value().rows_shed, records.size());
        for (const QuarantineRecord& record : records) {
          recovered.push_back(
              DecodeQuarantinePayload(record.payload, BoundSchema(false))
                  .value());
        }
        EXPECT_EQ(recovered.size(), clean.size());
        EXPECT_TRUE(SameMultiset(recovered, clean));
      }
    }
  }
}

// A load retry neither forgets nor recharges the rows the transforms
// contained: a resume from the voted output, or from a recovery point at
// the last cut, starts from the count recorded with it. Five rows are
// skipped at op 1. When the target's 2nd append fails torn, the run
// reports all five. When the retried load then sheds a 64-row batch
// (ENOSPC) against max_rows = 68, the 5 + 64 contained rows abort the run.
TEST(RedundancyTest, ContainedRowsStayChargedWhenALoadRetries) {
  const std::string dir = ::testing::TempDir() + "/qox_nmr_budget_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const RecoveryPointStorePtr rp_store = RecoveryPointStore::Open(dir).value();
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  FailureInjector injector;
  for (const int64_t id : {10, 20, 30, 40, 50}) {
    injector.AddPoison(PoisonSpec{/*at_op=*/1, id});
  }
  for (const bool shed : {false, true}) {
    for (const bool streaming : {false, true}) {
      for (const size_t redundancy : {1, 3}) {
        SCOPED_TRACE(std::string(shed ? "shed" : "torn append") +
                     (streaming ? " streaming" : " phased") +
                     " redundancy=" + std::to_string(redundancy));
        auto warehouse = std::make_shared<MemTable>("tgt", BoundSchema(false));
        DataStorePtr target = warehouse;
        if (shed) {
          FaultPlan enospc;
          enospc.append_fail_on_call = 3;
          enospc.disk_fault = DiskFaultKind::kEnospc;
          target = std::make_shared<FaultyStore>(target, enospc, /*seed=*/1);
        }
        FaultPlan torn;
        torn.append_fail_on_call = 2;
        torn.torn_writes = true;
        target = std::make_shared<FaultyStore>(target, torn, /*seed=*/2);
        ExecutionConfig config;
        config.num_threads = 4;
        config.streaming = streaming;
        config.redundancy = redundancy;
        config.batch_size = 64;
        config.injector = &injector;
        config.retry.initial_backoff_micros = 0;
        config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kSkip};
        config.error_budget.max_rows = 68;
        config.resource_policy = ResourcePolicy::kShedToQuarantine;
        if (redundancy == 1) {
          // A fresh point per run: an aborted run leaves its points behind.
          ASSERT_TRUE(rp_store->DropFlow("nmr_flow").ok());
          config.recovery_points = {2};
          config.rp_store = rp_store;
        }
        const Result<RunMetrics> metrics =
            Executor::Run(MakeFlow(source, target), config);
        if (shed) {
          ASSERT_FALSE(metrics.ok());
          EXPECT_EQ(metrics.status().code(), StatusCode::kErrorBudgetExceeded)
              << metrics.status();
          continue;
        }
        ASSERT_TRUE(metrics.ok()) << metrics.status();
        EXPECT_EQ(metrics.value().attempts, 2u);
        EXPECT_EQ(metrics.value().resumed_from_rp, redundancy == 1 ? 1u : 0u);
        EXPECT_EQ(metrics.value().rows_skipped, 5u);
        EXPECT_EQ(metrics.value().rows_loaded, 345u);
        EXPECT_EQ(warehouse->NumRows().value(), 345u);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// The vote's winner, whichever instance it is, journals the attempts its
// load spends: instance 0 records the first attempt's start, the winner
// ends it and records the retry.
TEST(RedundancyTest, WinnersLoadAttemptsAreJournaled) {
  const std::string dir = ::testing::TempDir() + "/qox_nmr_journal_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  auto warehouse = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FaultPlan plan;
  plan.append_fail_on_call = 2;
  plan.torn_writes = true;
  const FlowSpec flow = MakeFlow(
      source, std::make_shared<FaultyStore>(warehouse, plan, /*seed=*/1));
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  config.batch_size = 64;
  config.retry.initial_backoff_micros = 0;
  config.journal =
      FlowJournal::Open(dir, flow.id, JournalSync::kNone).value();
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(warehouse->NumRows().value(), 350u);
  const FlowJournalState state = config.journal->state();
  EXPECT_EQ(state.attempts_started, 2u);
  EXPECT_EQ(state.attempts_finished, 2u);
  EXPECT_EQ(state.last_attempt_status, "ok");
  EXPECT_TRUE(state.committed);

  // No majority: two of the three instances die, no instance loads, and
  // the attempt instance 0 started ends with the vote's status.
  const std::string no_majority_dir = dir + "_no_majority";
  std::filesystem::remove_all(no_majority_dir);
  std::filesystem::create_directories(no_majority_dir);
  auto untouched = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FailureInjector injector;
  for (const int instance : {1, 2}) {
    FailureSpec spec;
    spec.at_op = 0;
    spec.target_instance = instance;
    injector.AddFailure(spec);
  }
  config.injector = &injector;
  config.journal =
      FlowJournal::Open(no_majority_dir, flow.id, JournalSync::kNone).value();
  const Result<RunMetrics> failed =
      Executor::Run(MakeFlow(source, untouched), config);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal) << failed.status();
  EXPECT_EQ(untouched->NumRows().value(), 0u);
  const FlowJournalState no_majority = config.journal->state();
  EXPECT_EQ(no_majority.attempts_started, 1u);
  EXPECT_EQ(no_majority.attempts_finished, 1u);
  EXPECT_EQ(no_majority.last_attempt_status, "internal");
  EXPECT_FALSE(no_majority.committed);
  std::filesystem::remove_all(no_majority_dir);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace qox
