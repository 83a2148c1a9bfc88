// Streaming (pipelined) execution: output equivalence with phased mode
// across partitioning configurations, recovery-point persistence and
// resume, inline-load incremental restart, redundancy voting, and the
// per-stage metrics the streaming executor reports.

#include <gtest/gtest.h>

#include <unistd.h>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "engine/streaming.h"
#include "storage/faulty_store.h"
#include "storage/recovery_store.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const DataStorePtr& source,
                  const DataStorePtr& target) {
  FlowSpec spec;
  spec.id = "streaming_test_flow";
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

std::vector<Row> RunPhased(const DataStorePtr& source,
                           ExecutionConfig config = ExecutionConfig{}) {
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  config.streaming = false;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return target->ReadAll().value().rows();
}

struct StreamingCase {
  size_t partitions;
  PartitionScheme scheme;
  size_t range_begin;
  size_t range_end;
  size_t batch_size;
};

class StreamingEquivalenceTest
    : public ::testing::TestWithParam<StreamingCase> {};

TEST_P(StreamingEquivalenceTest, MatchesPhasedOutput) {
  const StreamingCase& c = GetParam();
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(1337));

  ExecutionConfig config;
  config.num_threads = c.partitions;
  config.batch_size = c.batch_size;
  config.parallel.partitions = c.partitions;
  config.parallel.scheme = c.scheme;
  config.parallel.hash_column = "id";
  config.parallel.range_begin = c.range_begin;
  config.parallel.range_end = c.range_end;
  const std::vector<Row> expected = RunPhased(source, config);

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  config.streaming = true;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_TRUE(metrics.value().streaming);
  EXPECT_FALSE(metrics.value().stage_stats.empty());
  // Both modes run the same stages, so the order matches exactly.
  EXPECT_EQ(expected, target->ReadAll().value().rows());
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, StreamingEquivalenceTest,
    ::testing::Values(
        // Purely sequential dataflow, default batches.
        StreamingCase{1, PartitionScheme::kRoundRobin, 0, 3, 128},
        // Tiny batches: heavy backpressure exercise.
        StreamingCase{1, PartitionScheme::kRoundRobin, 0, 3, 7},
        // Round-robin partitioned, full range.
        StreamingCase{4, PartitionScheme::kRoundRobin, 0, 3, 64},
        // A range holding only the sort: lowering ends it before the
        // sort, so nothing runs partitioned.
        StreamingCase{4, PartitionScheme::kRoundRobin, 2, 3, 16},
        // Hash partitioned, full range.
        StreamingCase{4, PartitionScheme::kHash, 0, 3, 64},
        // Partial parallel range: sequential prefix + partitioned suffix.
        StreamingCase{3, PartitionScheme::kRoundRobin, 1, 3, 32},
        StreamingCase{3, PartitionScheme::kHash, 1, 2, 32},
        // More partitions than a typical core count.
        StreamingCase{8, PartitionScheme::kRoundRobin, 0, 3, 16}));

class StreamingRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/streaming_rp_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    rp_store_ = RecoveryPointStore::Open(dir_).value();
  }

  std::string dir_;
  RecoveryPointStorePtr rp_store_;
};

TEST_F(StreamingRecoveryTest, ResumesFromRecoveryPointAfterInjectedFailure) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(500));
  const std::vector<Row> expected = RunPhased(source);

  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 2;  // during the sort, downstream of the cut at 1
  spec.at_fraction = 0.5;
  spec.on_attempt = 1;
  injector.AddFailure(spec);

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.batch_size = 32;
  config.recovery_points = {1};
  config.rp_store = rp_store_;
  config.injector = &injector;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_micros = 0;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  EXPECT_EQ(metrics.value().resumed_from_rp, 1u);
  EXPECT_GT(metrics.value().rp_points_written, 0u);
  // No duplicate or missing rows despite the mid-stream abort + resume.
  EXPECT_EQ(expected, target->ReadAll().value().rows());
}

TEST_F(StreamingRecoveryTest, InlineLoadRestartsIncrementally) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  const std::vector<Row> expected = RunPhased(source);

  // Target whose 2nd append fails transiently: the first attempt loads a
  // prefix inline, aborts, and the retry must skip exactly that prefix.
  auto inner = std::make_shared<MemTable>("tgt", BoundSchema());
  FaultPlan plan;
  plan.append_fail_on_call = 2;
  auto target = std::make_shared<FaultyStore>(inner, plan, /*seed=*/7);

  ExecutionConfig config;
  config.streaming = true;
  config.batch_size = 64;  // several appends per run
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_micros = 0;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(target->append_faults_injected(), 1u);
  EXPECT_EQ(expected, inner->ReadAll().value().rows());
  EXPECT_EQ(metrics.value().rows_loaded, expected.size());
}

TEST_F(StreamingRecoveryTest, TornWriteIsNotLoadedTwice) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(300));
  const std::vector<Row> expected = RunPhased(source);

  auto inner = std::make_shared<MemTable>("tgt", BoundSchema());
  FaultPlan plan;
  plan.append_fail_on_call = 2;
  plan.torn_writes = true;  // half the failed batch lands durably
  auto target = std::make_shared<FaultyStore>(inner, plan, /*seed=*/11);

  ExecutionConfig config;
  config.streaming = true;
  config.batch_size = 50;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_micros = 0;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(expected, inner->ReadAll().value().rows());
}

TEST(StreamingExecutorTest, InjectedExtractFailureRetries) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(600));
  const std::vector<Row> expected = RunPhased(source);

  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = -1;  // mid-extraction
  spec.at_fraction = 0.5;
  spec.on_attempt = 1;
  injector.AddFailure(spec);

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.batch_size = 32;
  config.parallel.partitions = 2;
  config.num_threads = 2;
  config.parallel.hash_column = "id";
  config.injector = &injector;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_micros = 0;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  // The poisoned first attempt must not leak rows into the target.
  EXPECT_EQ(expected, target->ReadAll().value().rows());
}

TEST(StreamingExecutorTest, OnAttemptNumberingMatchesPhasedAcrossRestarts) {
  // Regression: a one-shot FailureSpec armed for a given attempt must fire
  // on exactly that attempt of the streaming executor too — restarted
  // dataflows continue the flow's attempt numbering rather than restarting
  // it, so a multi-failure schedule consumes attempts 1..k in lockstep
  // with phased mode.
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(300));
  const auto run = [&](bool streaming) {
    FailureInjector injector;
    for (int attempt = 1; attempt <= 2; ++attempt) {
      FailureSpec spec;
      spec.at_op = attempt - 1;  // a different op each time
      spec.at_fraction = 0.5;
      spec.on_attempt = attempt;
      injector.AddFailure(spec);
    }
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    ExecutionConfig config;
    config.streaming = streaming;
    config.batch_size = 32;
    config.injector = &injector;
    config.retry.max_attempts = 4;
    config.retry.initial_backoff_micros = 0;
    const Result<RunMetrics> metrics =
        Executor::Run(MakeFlow(source, target), config);
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(injector.triggered_count(), 2u);  // both one-shots consumed
    return metrics.value();
  };
  const RunMetrics phased = run(false);
  const RunMetrics streaming = run(true);
  // Attempts 1 and 2 failed, attempt 3 completed — in both modes.
  EXPECT_EQ(phased.attempts, 3u);
  EXPECT_EQ(streaming.attempts, phased.attempts);
  EXPECT_EQ(streaming.failures_injected, phased.failures_injected);
  EXPECT_EQ(streaming.TotalRetries(), phased.TotalRetries());
}

TEST(StreamingExecutorTest, ExhaustedRetriesSurfaceInjectedFailure) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  FailureInjector injector;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    FailureSpec spec;
    spec.at_op = 1;
    spec.at_fraction = 0.25;
    spec.on_attempt = attempt;
    injector.AddFailure(spec);
  }
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.injector = &injector;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_micros = 0;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsInjectedFailure()) << metrics.status();
}

TEST(StreamingExecutorTest, RedundantInstancesVoteAndLoadOnce) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(450));
  const std::vector<Row> expected = RunPhased(source);

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.redundancy = 3;
  config.batch_size = 64;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().redundancy, 3u);
  EXPECT_EQ(expected, target->ReadAll().value().rows());
}

TEST(StreamingExecutorTest, StageStatsCoverTheDataflow) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(800));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.batch_size = 32;
  config.parallel.partitions = 2;
  config.num_threads = 2;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const RunMetrics& m = metrics.value();
  EXPECT_TRUE(m.streaming);
  // The requested range [0, 3) ends before the sort at op 2: extract +
  // partition + 2 branches + merge + transform[2,3) + load = 7 stages.
  ASSERT_EQ(m.stage_stats.size(), 7u);
  bool saw_extract = false;
  bool saw_load = false;
  size_t merge_rows = 0;
  for (const StageStats& s : m.stage_stats) {
    EXPECT_GE(s.busy_micros, 0) << s.name;
    EXPECT_GE(s.stall_micros, 0) << s.name;
    EXPECT_GE(s.backpressure_micros, 0) << s.name;
    if (s.name == "extract") {
      saw_extract = true;
      EXPECT_EQ(s.rows, 800u);
      EXPECT_GT(s.batches, 1u);
    }
    EXPECT_LE(s.channel_high_water, StageSet::kChannelCapacity) << s.name;
    if (s.name == "load") saw_load = true;
    if (s.name.rfind("merge", 0) == 0) merge_rows = s.rows;
  }
  EXPECT_TRUE(saw_extract);
  EXPECT_TRUE(saw_load);
  EXPECT_EQ(merge_rows, m.rows_loaded);
  EXPECT_EQ(m.rows_loaded, target->NumRows().value());
  // The Summary line advertises the mode.
  EXPECT_NE(m.Summary().find("streaming"), std::string::npos);

  // A phased run goes through the same stage builders, staged: every
  // stage reports its plan node, none ever waits on a channel, and each
  // parallel unit leaves one ParallelUnitStats per attempt. The sort
  // behind the partitioned [0, 2) unit fails once, so the unit runs twice.
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 2;
  spec.at_fraction = 0.5;
  injector.AddFailure(spec);
  auto phased_target = std::make_shared<MemTable>("tgt", BoundSchema());
  config.streaming = false;
  config.parallel.range_end = 2;
  config.injector = &injector;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_micros = 0;
  const FlowSpec phased_flow = MakeFlow(source, phased_target);
  const Result<ExecutionPlan> plan = Executor::LowerPlan(phased_flow, config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const Result<RunMetrics> phased = Executor::Run(phased_flow, config);
  ASSERT_TRUE(phased.ok()) << phased.status();
  const RunMetrics& pm = phased.value();
  EXPECT_FALSE(pm.streaming);
  EXPECT_EQ(pm.attempts, 2u);
  // Attempt 1 stops at the failed sort: extract, partition, 2 branches,
  // merge, sort = 6 stages. Attempt 2 adds the load.
  EXPECT_EQ(pm.stage_stats.size(), 6u + 7u);
  for (const StageStats& s : pm.stage_stats) {
    ASSERT_GE(s.node_id, 0) << s.name;
    ASSERT_LT(static_cast<size_t>(s.node_id), plan.value().nodes().size());
    EXPECT_EQ(s.name,
              plan.value().nodes()[static_cast<size_t>(s.node_id)].label);
    EXPECT_EQ(s.stall_micros, 0) << s.name;
    EXPECT_EQ(s.backpressure_micros, 0) << s.name;
  }
  ASSERT_EQ(pm.parallel_units.size(), 2u);
  for (const ParallelUnitStats& unit : pm.parallel_units) {
    EXPECT_EQ(unit.range_begin, 0u);
    EXPECT_EQ(unit.range_end, 2u);
    EXPECT_EQ(unit.partition_micros.size(), 2u);
    EXPECT_EQ(unit.serialized_micros.size(), 2u);
  }
  EXPECT_EQ(phased_target->ReadAll().value().rows(),
            target->ReadAll().value().rows());
}

TEST(StreamingExecutorTest, FullySkewedHashPartitionsDoNotDeadlock) {
  // Regression: every row hashes to ONE partition. The merge pops the
  // partition channels in a fixed order, which would head-of-line block
  // on a starved partition that the router never feeds: the hot
  // partition's bounded channels fill, the router stalls behind them, and
  // the starved partitions never see end-of-stream. The batch schedule
  // rules that out: the router sends every partition a slice of every
  // input batch (empty here for all but one), so the partition the merge
  // waits on next has always been fed.
  //
  // The run fills every channel before anything drains. The flow is the
  // filter and the function, both partitioned (a blocking op would absorb
  // the backlog and mask the head-of-line topology), and the load holds
  // its first append until the source has handed out every batch. Between
  // the extract and the held load, the stages and channels take exactly
  // 36 batches: the load's 1, merge->load 8, the merge's 1, a branch's
  // output 8 and its 1, router->branch 8, the router's 1, extract->router
  // 8. The hot partition is the last one the router deals to, so once the
  // scan of 36 batches has ended the router has dealt batch 26 to it while
  // its branch holds batch 18: its channel holds batches 19..26, full.
  constexpr size_t kPartitions = 4;
  constexpr size_t kBatch = 16;
  int64_t hot_id = 0;
  while (Row({Value::Int64(hot_id)}).HashColumns({0}) % kPartitions !=
         kPartitions - 1) {
    ++hot_id;
  }
  std::vector<Row> rows;
  for (size_t i = 0; i < 36 * kBatch; ++i) {
    rows.push_back(testing_util::SimpleRow(hot_id, "a",
                                           static_cast<double>(i % 100)));
  }
  const DataStorePtr source = testing_util::MakeSource(SimpleSchema(), rows);
  const auto per_row_flow = [](const DataStorePtr& from,
                               const DataStorePtr& to) {
    FlowSpec flow = MakeFlow(from, to);
    flow.transforms.pop_back();  // the sort
    return flow;
  };

  ExecutionConfig config;
  config.num_threads = kPartitions;
  config.batch_size = kBatch;
  config.parallel.partitions = kPartitions;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "id";
  const auto phased_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(
      Executor::Run(per_row_flow(source, phased_target), config).ok());

  auto gate = std::make_shared<testing_util::Gate>();
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  config.streaming = true;
  const Result<RunMetrics> metrics = Executor::Run(
      per_row_flow(std::make_shared<testing_util::GatedStore>(source, gate),
                   std::make_shared<testing_util::GatedStore>(target, gate)),
      config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(phased_target->ReadAll().value().rows(),
            target->ReadAll().value().rows());
  bool saw_router = false;
  for (const StageStats& s : metrics.value().stage_stats) {
    if (s.name.rfind("partition", 0) != 0) continue;
    saw_router = true;
    EXPECT_EQ(s.channel_high_water, StageSet::kChannelCapacity);
  }
  EXPECT_TRUE(saw_router);
}

TEST(StreamingExecutorTest, MidLoadInjectedFailureFiresAndRetries) {
  // A load spec at fraction > 0: the streaming sink reports an unknown
  // rows_total, so the injector fires it on the first flush after rows
  // reached the sink (it used to never fire, making phased-vs-streaming
  // load-failure experiments silently incomparable).
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  const std::vector<Row> expected = RunPhased(source);

  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = FailureSpec::kAtLoad;
  spec.at_fraction = 0.5;
  spec.on_attempt = 1;
  injector.AddFailure(spec);

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.batch_size = 64;
  config.injector = &injector;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_micros = 0;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 2u);
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  EXPECT_EQ(expected, target->ReadAll().value().rows());
}

TEST(StageSetTest, PoisonEchoIsTaggedNotMessageMatched) {
  // Echo classification is by explicit tag: a raw status is never an
  // echo, even if its text coincides with the recorded failure, and
  // wrapping is idempotent.
  const Status cause = Status::IoError("disk exploded");
  const Status echo = StageSet::PoisonEcho(cause);
  EXPECT_TRUE(StageSet::IsPoisonEcho(echo));
  EXPECT_FALSE(StageSet::IsPoisonEcho(cause));
  EXPECT_EQ(StageSet::PoisonEcho(echo), echo);
  EXPECT_NE(echo.message().find("disk exploded"), std::string::npos);
  EXPECT_FALSE(StageSet::IsPoisonEcho(Status::Cancelled("disk exploded")));
}

TEST(StageSetTest, BlockedStageUnwindsWithEchoAndPrimaryWins) {
  // A consumer blocked on a channel is woken by another stage's failure;
  // Join must report the raw primary cause, not the kCancelled echo the
  // consumer returned.
  WorkerPool pool(2);
  StageSet stages(ExecContext(&pool, TaskTag{}));
  BatchChannelPtr ch = stages.MakeChannel();
  stages.Spawn("consumer", [ch](StageStats* stats) -> Status {
    QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                         ch->Pop(&stats->stall_micros));
    (void)item;
    return Status::OK();
  });
  stages.Spawn("producer", [](StageStats*) -> Status {
    return Status::IoError("primary cause");
  });
  const Status winner = stages.Join(nullptr);
  EXPECT_EQ(winner.code(), StatusCode::kIoError);
  EXPECT_EQ(winner.message(), "primary cause");
}

TEST(StreamingExecutorTest, EmptySourceProducesEmptyTarget) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), {});
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.parallel.partitions = 2;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(target->NumRows().value(), 0u);
}

}  // namespace
}  // namespace qox
