// Streaming (pipelined) execution: output equivalence with phased mode
// across partitioning configurations, recovery-point persistence and
// resume, inline-load incremental restart, redundancy voting, and the
// per-stage metrics the streaming executor reports.

#include <gtest/gtest.h>

#include <unistd.h>

#include <thread>

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
  size_t channel_capacity;
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
  config.channel_capacity = c.channel_capacity;
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
        StreamingCase{1, PartitionScheme::kRoundRobin, 0, 3, 4, 128},
        // Tiny channel + tiny batches: heavy backpressure exercise.
        StreamingCase{1, PartitionScheme::kRoundRobin, 0, 3, 1, 7},
        // Round-robin partitioned, full range.
        StreamingCase{4, PartitionScheme::kRoundRobin, 0, 3, 4, 64},
        // Round-robin partitioned around the blocking sort only.
        StreamingCase{4, PartitionScheme::kRoundRobin, 2, 3, 1, 16},
        // Hash partitioned, full range.
        StreamingCase{4, PartitionScheme::kHash, 0, 3, 4, 64},
        // Partial parallel range: sequential prefix + partitioned suffix.
        StreamingCase{3, PartitionScheme::kRoundRobin, 1, 3, 2, 32},
        StreamingCase{3, PartitionScheme::kHash, 1, 2, 2, 32},
        // More partitions than a typical core count.
        StreamingCase{8, PartitionScheme::kRoundRobin, 0, 3, 2, 16}));

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
  config.channel_capacity = 2;
  config.parallel.partitions = 2;
  config.num_threads = 2;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const RunMetrics& m = metrics.value();
  EXPECT_TRUE(m.streaming);
  // extract + partition + 2 branches + merge + load = 6 stages.
  ASSERT_EQ(m.stage_stats.size(), 6u);
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
      EXPECT_LE(s.channel_high_water, config.channel_capacity);
    }
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
  // merge, sort = 6 stages. Attempt 2 adds the collector feeding the load.
  EXPECT_EQ(pm.stage_stats.size(), 6u + 7u);
  for (const StageStats& s : pm.stage_stats) {
    ASSERT_GE(s.node_id, 0) << s.name;
    ASSERT_LT(static_cast<size_t>(s.node_id), plan.value().nodes().size());
    EXPECT_EQ(s.name == "collect" ? "load" : s.name,
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
  // Regression: every row hashes to ONE partition. A merge popping the
  // partition channels in fixed order head-of-line blocks on the starved
  // partitions; once the hot partition accumulates ~2*channel_capacity
  // batches its bounded channels fill, the partitioner stalls behind them,
  // and the starved partitions never see end-of-stream — deadlock. The
  // any-ready PartitionFeed must keep the dataflow moving. Row count is
  // chosen >> channel_capacity * batch_size so the skew saturates the
  // channels, and the parallel range covers only streaming (non-blocking)
  // operators — a blocking branch would mask the head-of-line topology.
  std::vector<Row> rows;
  for (size_t i = 0; i < 4000; ++i) {
    rows.push_back(testing_util::SimpleRow(/*id=*/42, "a",
                                           static_cast<double>(i % 100)));
  }
  const DataStorePtr source = testing_util::MakeSource(SimpleSchema(), rows);

  ExecutionConfig config;
  config.num_threads = 4;
  config.batch_size = 16;
  config.parallel.partitions = 4;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "id";
  config.parallel.range_begin = 0;
  config.parallel.range_end = 2;
  const std::vector<Row> expected = RunPhased(source, config);

  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  config.streaming = true;
  config.channel_capacity = 2;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(expected, target->ReadAll().value().rows());
}

TEST(PartitionFeedTest, AnyReadyDrainAvoidsHeadOfLineDeadlock) {
  // The deadlock shape in miniature: the producer must push 8 batches into
  // the hot channel (capacity 1) before it will ever close the starved
  // one, while the consumer waits on the starved channel first. Next()
  // must drain the hot channel into its local buffer in the background —
  // a head-of-line blocking Pop would hang here.
  const Schema schema = SimpleSchema();
  auto hot = std::make_shared<BatchChannel>(1);
  auto cold = std::make_shared<BatchChannel>(1);
  PartitionFeed feed({hot, cold});
  std::thread producer([&] {
    for (int i = 0; i < 8; ++i) {
      RowBatch batch(schema);
      batch.Append(testing_util::SimpleRow(i, "a", 1.0));
      EXPECT_TRUE(hot->Push(std::move(batch)).ok());
    }
    hot->Close();
    cold->Close();
  });
  int64_t wait = 0;
  Result<std::optional<RowBatch>> starved = feed.Next(1, &wait);
  ASSERT_TRUE(starved.ok());
  EXPECT_FALSE(starved.value().has_value());  // exhausted, no data
  producer.join();
  // The hot partition's batches come out complete and in order.
  for (int i = 0; i < 8; ++i) {
    Result<std::optional<RowBatch>> got = feed.Next(0, &wait);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(got.value()->row(0).value(0).Compare(Value::Int64(i)), 0);
  }
  EXPECT_FALSE(feed.Next(0, &wait).value().has_value());
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
  BatchChannelPtr ch = stages.MakeChannel(1);
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
