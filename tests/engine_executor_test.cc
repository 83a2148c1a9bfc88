#include "engine/executor.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

/// A small standard flow: filter NULL amounts, scale, (optional) sort.
struct TestFlow {
  DataStorePtr source;
  std::shared_ptr<MemTable> target;
  FlowSpec spec;
};

TestFlow MakeTestFlow(size_t rows, bool with_sort = false) {
  TestFlow flow;
  flow.source = testing_util::MakeSource(SimpleSchema(), SimpleRows(rows));
  std::vector<OperatorFactory> transforms;
  transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  if (with_sort) {
    transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<SortOp>("sort",
                                      std::vector<SortKey>{{"id", false}});
    });
  }
  // Bind by hand to create the target.
  Schema schema = SimpleSchema();
  for (const OperatorFactory& factory : transforms) {
    schema = factory()->Bind(schema).value();
  }
  flow.target = std::make_shared<MemTable>("tgt", schema);
  flow.spec.id = "test_flow";
  flow.spec.source = flow.source;
  flow.spec.transforms = std::move(transforms);
  flow.spec.target = flow.target;
  return flow;
}

TEST(ExecutorTest, SequentialRunProducesExpectedRows) {
  TestFlow flow = MakeTestFlow(256);
  ExecutionConfig config;
  const Result<RunMetrics> metrics = Executor::Run(flow.spec, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rows_extracted, 256u);
  EXPECT_EQ(metrics.value().rows_loaded, 224u);  // 32 NULL amounts dropped
  EXPECT_EQ(metrics.value().rows_rejected, 32u);
  EXPECT_EQ(metrics.value().attempts, 1u);
  EXPECT_EQ(flow.target->NumRows().value(), 224u);
  EXPECT_GT(metrics.value().total_micros, 0);
}

TEST(ExecutorTest, OpStatsAggregated) {
  TestFlow flow = MakeTestFlow(128);
  const Result<RunMetrics> metrics =
      Executor::Run(flow.spec, ExecutionConfig{});
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().op_stats.size(), 2u);
  EXPECT_EQ(metrics.value().op_stats[0].name, "flt");
  EXPECT_EQ(metrics.value().op_stats[0].rows_in, 128u);
}

TEST(ExecutorTest, BindChainValidatesSchemas) {
  TestFlow flow = MakeTestFlow(16);
  const Result<std::vector<Schema>> schemas =
      Executor::BindChain(flow.spec, ExecutionConfig{});
  ASSERT_TRUE(schemas.ok());
  EXPECT_EQ(schemas.value().size(), 3u);  // source + 2 ops
  EXPECT_TRUE(schemas.value().back().HasField("scaled"));
}

TEST(ExecutorTest, BindChainRejectsTargetMismatch) {
  TestFlow flow = MakeTestFlow(16);
  FlowSpec bad = flow.spec;
  bad.target = std::make_shared<MemTable>(
      "bad", Schema({{"wrong", DataType::kInt64, true}}));
  EXPECT_FALSE(Executor::BindChain(bad, ExecutionConfig{}).ok());
}

TEST(ExecutorTest, ConfigValidation) {
  TestFlow flow = MakeTestFlow(16);
  ExecutionConfig config;
  config.parallel.partitions = 0;
  EXPECT_FALSE(Executor::BindChain(flow.spec, config).ok());

  config = ExecutionConfig{};
  config.recovery_points = {99};
  EXPECT_FALSE(Executor::BindChain(flow.spec, config).ok());

  config = ExecutionConfig{};
  config.recovery_points = {0};  // no rp_store supplied
  EXPECT_FALSE(Executor::BindChain(flow.spec, config).ok());

  config = ExecutionConfig{};
  config.redundancy = 0;
  EXPECT_FALSE(Executor::BindChain(flow.spec, config).ok());

  config = ExecutionConfig{};
  config.parallel.partitions = 2;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "missing";
  EXPECT_FALSE(Executor::BindChain(flow.spec, config).ok());
}

TEST(ExecutorTest, NullSourceOrTargetRejected) {
  TestFlow flow = MakeTestFlow(4);
  FlowSpec no_source = flow.spec;
  no_source.source = nullptr;
  EXPECT_FALSE(Executor::Run(no_source, ExecutionConfig{}).ok());
  FlowSpec no_target = flow.spec;
  no_target.target = nullptr;
  EXPECT_FALSE(Executor::Run(no_target, ExecutionConfig{}).ok());
}

TEST(ExecutorTest, PostSuccessHookRunsOnce) {
  TestFlow flow = MakeTestFlow(16);
  int calls = 0;
  flow.spec.post_success = [&calls]() {
    ++calls;
    return Status::OK();
  };
  ASSERT_TRUE(Executor::Run(flow.spec, ExecutionConfig{}).ok());
  EXPECT_EQ(calls, 1);
}

TEST(ExecutorTest, PostSuccessFailurePropagates) {
  TestFlow flow = MakeTestFlow(16);
  flow.spec.post_success = []() { return Status::Internal("commit failed"); };
  const Result<RunMetrics> metrics =
      Executor::Run(flow.spec, ExecutionConfig{});
  EXPECT_EQ(metrics.status().code(), StatusCode::kInternal);
}

TEST(ExecutorTest, EmptySourceLoadsNothing) {
  TestFlow flow = MakeTestFlow(0);
  const Result<RunMetrics> metrics =
      Executor::Run(flow.spec, ExecutionConfig{});
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().rows_loaded, 0u);
  EXPECT_EQ(flow.target->NumRows().value(), 0u);
}

TEST(ExecutorTest, BlockingOpInsideFlow) {
  TestFlow flow = MakeTestFlow(100, /*with_sort=*/true);
  const Result<RunMetrics> metrics =
      Executor::Run(flow.spec, ExecutionConfig{});
  ASSERT_TRUE(metrics.ok());
  const RowBatch loaded = flow.target->ReadAll().value();
  for (size_t i = 1; i < loaded.num_rows(); ++i) {
    EXPECT_LE(loaded.row(i - 1).value(0).int64_value(),
              loaded.row(i).value(0).int64_value());
  }
}

/// Counts NumRows calls on the wrapped store: a file target's count
/// re-reads the whole file.
class RowCountingStore : public DataStore {
 public:
  explicit RowCountingStore(DataStorePtr inner) : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  Result<size_t> NumRows() const override {
    ++counts_;
    return inner_->NumRows();
  }
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override {
    return inner_->Scan(batch_size, fan_out, consumer);
  }
  Status Append(const RowBatch& batch) override {
    return inner_->Append(batch);
  }
  Status Truncate() override { return inner_->Truncate(); }
  size_t counts() const { return counts_; }

 private:
  const DataStorePtr inner_;
  mutable std::atomic<size_t> counts_{0};
};

// A clean run reads the target's row count once for its load baseline,
// and its load starts from that count. A journaled run also reads it to
// seal the baseline in the journal. Both modes alike.
TEST(ExecutorTest, CleanRunReadsTheTargetCountOncePerBaseline) {
  const std::string dir = ::testing::TempDir() + "/qox_exec_count_" +
                          std::to_string(::getpid());
  for (const bool streaming : {false, true}) {
    for (const bool journaled : {false, true}) {
      SCOPED_TRACE(std::string(streaming ? "streaming" : "phased") +
                   (journaled ? " journaled" : ""));
      TestFlow flow = MakeTestFlow(256);
      auto target = std::make_shared<RowCountingStore>(flow.target);
      flow.spec.target = target;
      ExecutionConfig config;
      config.streaming = streaming;
      config.batch_size = 32;
      if (journaled) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        config.journal =
            FlowJournal::Open(dir, flow.spec.id, JournalSync::kNone).value();
      }
      const Result<RunMetrics> metrics = Executor::Run(flow.spec, config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_EQ(flow.target->NumRows().value(), 224u);
      EXPECT_EQ(target->counts(), journaled ? 2u : 1u);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FingerprintTest, OrderInsensitiveAndContentSensitive) {
  const std::vector<Row> a = SimpleRows(50);
  std::vector<Row> shuffled = a;
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(FingerprintRows(a), FingerprintRows(shuffled));
  std::vector<Row> different = a;
  different[0].Set(0, Value::Int64(9999));
  EXPECT_NE(FingerprintRows(a), FingerprintRows(different));
  EXPECT_NE(FingerprintRows(a), FingerprintRows({}));
}

TEST(ExecutorTest, SameMultisetHelperSanity) {
  const std::vector<Row> a = SimpleRows(10);
  std::vector<Row> b = a;
  std::reverse(b.begin(), b.end());
  EXPECT_TRUE(SameMultiset(a, b));
  b.pop_back();
  EXPECT_FALSE(SameMultiset(a, b));
}

}  // namespace
}  // namespace qox
