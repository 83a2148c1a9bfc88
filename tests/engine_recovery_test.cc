// Recovery semantics: recovery points are written at cuts, failures resume
// from the latest durable point, and the final warehouse state equals the
// no-failure run (exactly-once) — swept over failure positions as a
// parameterized property suite (the Fig. 6 scenarios).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/recovery_test_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    rp_store_ = RecoveryPointStore::Open(dir_).value();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  FlowSpec MakeFlow(const DataStorePtr& source,
                    const std::shared_ptr<MemTable>& target) {
    FlowSpec spec;
    spec.id = "recovery_flow";
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
    spec.transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<SortOp>("sort",
                                      std::vector<SortKey>{{"id", false}});
    });
    spec.target = target;
    return spec;
  }

  Schema BoundSchema() {
    FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
    return fn.Bind(SimpleSchema()).value();
  }

  std::string dir_;
  RecoveryPointStorePtr rp_store_;
};

TEST_F(RecoveryTest, RecoveryPointsWrittenAtCuts) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.recovery_points = {0, 2};
  config.rp_store = rp_store_;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rp_points_written, 2u);
  EXPECT_GT(metrics.value().rp_bytes_written, 0u);
  EXPECT_GT(metrics.value().rp_write_micros, 0);
  // Successful runs clean their recovery points up.
  EXPECT_TRUE(rp_store_->List().empty());
}

TEST_F(RecoveryTest, FailureWithoutRpRestartsFromScratch) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 1;
  spec.at_fraction = 0.5;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.injector = &injector;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  EXPECT_EQ(metrics.value().resumed_from_rp, 0u);
  EXPECT_GT(metrics.value().lost_work_micros, 0);
  // Extraction ran twice (restart from scratch).
  EXPECT_EQ(metrics.value().rows_extracted, 400u);
}

TEST_F(RecoveryTest, FailureWithRpResumesWithoutReExtracting) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 1;
  spec.at_fraction = 0.5;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.injector = &injector;
  config.recovery_points = {0};
  config.rp_store = rp_store_;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(metrics.value().resumed_from_rp, 1u);
  EXPECT_GT(metrics.value().rp_read_micros, 0);
  // Extraction ran exactly once.
  EXPECT_EQ(metrics.value().rows_extracted, 200u);
}

// A recovery point holding empty strings and boxed cells (cells of
// another runtime type than their column's) resumes as written: the retry
// starts from the point and loads the fault-free rows, cell types
// included.
TEST_F(RecoveryTest, ResumeFromAPointOfEmptyAndBoxedCellsLoadsTheFaultFreeRows) {
  const std::vector<Row> input = testing_util::EmptyAndBoxedRows(2000);
  auto clean_target = std::make_shared<MemTable>("clean", BoundSchema());
  ASSERT_TRUE(Executor::Run(MakeFlow(testing_util::MakeSource(SimpleSchema(),
                                                              input),
                                     clean_target),
                            ExecutionConfig{})
                  .ok());
  const std::vector<Row> expected = clean_target->ReadAll().value().rows();

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 2;  // the sort, after the point at cut 1
  spec.at_fraction = 0.5;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.injector = &injector;
  config.recovery_points = {1};
  config.rp_store = rp_store_;
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow(testing_util::MakeSource(SimpleSchema(), input), target),
      config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(metrics.value().resumed_from_rp, 1u);
  const std::vector<Row> loaded = target->ReadAll().value().rows();
  EXPECT_EQ(loaded, expected);
  EXPECT_EQ(testing_util::CellTypes(loaded), testing_util::CellTypes(expected));
}

struct FailurePoint {
  int at_op;             // -1 extract .. 2 transform ops, kAtLoad
  double at_fraction;
  std::vector<size_t> recovery_points;
};

class RecoveryEquivalenceTest
    : public RecoveryTest,
      public ::testing::WithParamInterface<FailurePoint> {};

TEST_P(RecoveryEquivalenceTest, OutputEqualsNoFailureRun) {
  const FailurePoint& point = GetParam();
  const std::vector<Row> input = SimpleRows(500);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);

  // Reference run without failures.
  auto reference = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(Executor::Run(MakeFlow(source, reference), ExecutionConfig{})
                  .ok());

  // Failing run.
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = point.at_op;
  spec.at_fraction = point.at_fraction;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.injector = &injector;
  config.recovery_points = point.recovery_points;
  config.rp_store = point.recovery_points.empty() ? nullptr : rp_store_;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  // Exactly-once: the warehouse matches the clean run, no duplicates.
  EXPECT_TRUE(SameMultiset(reference->ReadAll().value().rows(),
                           target->ReadAll().value().rows()));
}

INSTANTIATE_TEST_SUITE_P(
    FailurePositions, RecoveryEquivalenceTest,
    ::testing::Values(
        // Failure during extraction, no recovery points.
        FailurePoint{-1, 0.5, {}},
        // Failures in each transform op, without and with RPs.
        // Fractions are relative to the rows entering the segment; ops
        // downstream of the filter see ~87.5% of the chain input, so
        // their trigger fractions stay at or below 0.8.
        FailurePoint{0, 0.25, {}}, FailurePoint{1, 0.5, {}},
        FailurePoint{2, 0.8, {}}, FailurePoint{0, 0.25, {0}},
        FailurePoint{1, 0.5, {0}}, FailurePoint{1, 0.5, {0, 1}},
        FailurePoint{2, 0.9, {0, 2}}, FailurePoint{2, 0.8, {3}},
        // Failure during the load, resumed incrementally.
        FailurePoint{FailureSpec::kAtLoad, 0.5, {}},
        FailurePoint{FailureSpec::kAtLoad, 0.5, {0, 3}}));

// A phased run counts the rows that actually enter each stage: behind a
// recovery-point cut after the filter, a failure fraction of the next op
// is relative to the filter's survivors, not to the source size. The spec
// must fire at the first batch boundary at or past that fraction.
TEST_F(RecoveryTest, FailureFractionBehindCutCountsSurvivingRows) {
  constexpr size_t kBatch = 32;
  constexpr double kFraction = 0.75;
  const std::vector<Row> input = SimpleRows(800);
  size_t survivors = 0;
  for (const Row& row : input) {
    if (!row.value(2).is_null()) ++survivors;
  }
  size_t fire_at = 0;
  while (static_cast<double>(fire_at) / static_cast<double>(survivors) +
             1e-12 <
         kFraction) {
    fire_at += kBatch;
  }
  const DataStorePtr source = testing_util::MakeSource(SimpleSchema(), input);
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 1;
  spec.at_fraction = kFraction;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.batch_size = kBatch;
  config.recovery_points = {1};
  config.rp_store = rp_store_;
  config.injector = &injector;
  config.retry.max_attempts = 1;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsInjectedFailure()) << metrics.status();
  const std::string position =
      std::to_string(static_cast<double>(fire_at) /
                     static_cast<double>(survivors) * 100.0) +
      "%";
  EXPECT_NE(metrics.status().message().find("transform op 1 at " + position),
            std::string::npos)
      << metrics.status();
}

TEST_F(RecoveryTest, MultipleSuccessiveFailures) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(300));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    FailureSpec spec;
    spec.at_op = 1;
    spec.at_fraction = 0.5;
    spec.on_attempt = attempt;
    injector.AddFailure(spec);
  }
  ExecutionConfig config;
  config.injector = &injector;
  config.recovery_points = {0};
  config.rp_store = rp_store_;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 4u);
  EXPECT_EQ(metrics.value().failures_injected, 3u);
  EXPECT_EQ(metrics.value().rows_extracted, 300u);  // extracted once
}

TEST_F(RecoveryTest, MaxAttemptsExhaustedReturnsFailure) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(100));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    FailureSpec spec;
    spec.at_op = 0;
    spec.at_fraction = 0.0;
    spec.on_attempt = attempt;
    injector.AddFailure(spec);
  }
  ExecutionConfig config;
  config.injector = &injector;
  config.retry.max_attempts = 3;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsInjectedFailure());
}

// A failed load resumes from the recovery point before it, in either mode:
// the resumed attempt replays the point instead of re-running transforms.
TEST_F(RecoveryTest, RpBeforeLoadSkipsAllTransformsOnResume) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  for (const bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming" : "phased");
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    FailureInjector injector;
    FailureSpec spec;
    spec.at_op = FailureSpec::kAtLoad;
    spec.at_fraction = 0.0;
    injector.AddFailure(spec);
    ExecutionConfig config;
    config.streaming = streaming;
    config.injector = &injector;
    config.recovery_points = {3};  // before load
    config.rp_store = rp_store_;
    const Result<RunMetrics> metrics =
        Executor::Run(MakeFlow(source, target), config);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(metrics.value().rows_loaded, 175u);
    EXPECT_EQ(metrics.value().attempts, 2u);
    EXPECT_EQ(metrics.value().resumed_from_rp, 1u);
    EXPECT_EQ(metrics.value().rows_extracted, 200u);  // extracted once
  }
}

TEST_F(RecoveryTest, ParallelFlowWithRecoveryPoints) {
  const std::vector<Row> input = SimpleRows(400);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);
  auto reference = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 2;
  spec.at_fraction = 0.7;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.injector = &injector;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  config.recovery_points = {0, 2};
  config.rp_store = rp_store_;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // The partitioned [0, 2) keeps serial order and the sort runs behind the
  // merge, so the resumed run loads the clean run's bytes.
  EXPECT_TRUE(reference->ReadAll().value().rows() ==
              target->ReadAll().value().rows());
}

}  // namespace
}  // namespace qox
