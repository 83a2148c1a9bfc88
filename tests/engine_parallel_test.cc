// Partitioned-parallel execution: output equivalence with the sequential
// plan across schemes, degrees, extents, and thread counts (the Fig. 4
// configurations), verified as a parameterized property suite, plus the
// exact row order of the merge against an independently computed oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/group_op.h"
#include "engine/ops/sort_op.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const DataStorePtr& source,
                  const std::shared_ptr<MemTable>& target) {
  FlowSpec spec;
  spec.id = "parallel_test_flow";
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

struct ParallelCase {
  size_t partitions;
  size_t threads;
  PartitionScheme scheme;
  size_t range_begin;
  size_t range_end;
};

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelEquivalenceTest, MatchesSequentialOutput) {
  const ParallelCase& test_case = GetParam();
  const std::vector<Row> input = SimpleRows(1337);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);

  // Sequential reference.
  auto seq_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, seq_target), ExecutionConfig{}).ok());
  const std::vector<Row> expected = seq_target->ReadAll().value().rows();

  // Parallel run.
  auto par_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.num_threads = test_case.threads;
  config.parallel.partitions = test_case.partitions;
  config.parallel.scheme = test_case.scheme;
  config.parallel.hash_column = "id";
  config.parallel.range_begin = test_case.range_begin;
  config.parallel.range_end = test_case.range_end;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, par_target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().partitions, test_case.partitions);
  EXPECT_TRUE(
      SameMultiset(expected, par_target->ReadAll().value().rows()));
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ParallelEquivalenceTest,
    ::testing::Values(
        // Whole-flow parallelism (the paper's xPF-f).
        ParallelCase{2, 2, PartitionScheme::kRoundRobin, 0, 99},
        ParallelCase{4, 4, PartitionScheme::kRoundRobin, 0, 99},
        ParallelCase{8, 4, PartitionScheme::kRoundRobin, 0, 99},
        ParallelCase{4, 1, PartitionScheme::kRoundRobin, 0, 99},
        // Partial-flow parallelism (xPF-p): only ops [0, 2).
        ParallelCase{4, 4, PartitionScheme::kRoundRobin, 0, 2},
        ParallelCase{2, 4, PartitionScheme::kRoundRobin, 1, 2},
        // Hash partitioning.
        ParallelCase{4, 4, PartitionScheme::kHash, 0, 99},
        ParallelCase{3, 2, PartitionScheme::kHash, 0, 2},
        // Hash-partitioned suffix behind a sequential prefix.
        ParallelCase{4, 2, PartitionScheme::kHash, 1, 99}));

/// Drops every column: one empty row out per row in, so the chain's
/// output has no first column to order a merge by.
class DropColumnsOp : public Operator {
 public:
  const char* kind() const override { return "drop_columns"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema&) override { return Schema(); }
  Status PushColumnar(ColumnBatch* batch, ColumnarPushContext*) override {
    while (batch->num_columns() > 0) batch->EraseColumn(0);
    return Status::OK();
  }

 private:
  std::string name_ = "drop";
};

// The merge's exact row order against an oracle this test computes on its
// own: the serial output, stable-sorted by the first column, with ties
// broken by partition index and then by arrival order. The chain is one
// row-preserving op, so serial output row i came from source row i, which
// the router sent to partition i % k (round-robin) or hash(amount) % k.
// The first column repeats every 7 rows and `amount` is distinct per row,
// so equal keys land in every partition and a wrong tie-break shows.
TEST(ParallelExecutionTest, MergeOrderMatchesIndependentOracle) {
  constexpr size_t kRows = 2000;
  constexpr size_t kParts = 4;
  std::vector<Row> input;
  for (size_t i = 0; i < kRows; ++i) {
    input.push_back(testing_util::SimpleRow(static_cast<int64_t>(i % 7), "a",
                                            static_cast<double>(i)));
  }
  const DataStorePtr source = testing_util::MakeSource(SimpleSchema(), input);
  const auto make_flow = [&](const std::shared_ptr<MemTable>& target,
                             bool drop_columns) {
    FlowSpec spec;
    spec.id = "merge_order_flow";
    spec.source = source;
    spec.transforms.push_back([drop_columns]() -> OperatorPtr {
      if (drop_columns) return std::make_unique<DropColumnsOp>();
      return std::make_unique<FunctionOp>(
          "fn", std::vector<ColumnTransform>{
                    ColumnTransform::Scale("scaled", "amount", 3.0)});
    });
    spec.target = target;
    return spec;
  };

  auto serial_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(Executor::Run(make_flow(serial_target, false), ExecutionConfig{})
                  .ok());
  const std::vector<Row> serial = serial_target->ReadAll().value().rows();
  ASSERT_EQ(serial.size(), kRows);

  for (const PartitionScheme scheme :
       {PartitionScheme::kRoundRobin, PartitionScheme::kHash}) {
    std::vector<size_t> part(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      part[i] = scheme == PartitionScheme::kHash
                    ? input[i].HashColumns({2}) % kParts
                    : i % kParts;
    }
    std::vector<size_t> order(kRows);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const int key = serial[a].value(0).Compare(serial[b].value(0));
      if (key != 0) return key < 0;
      return part[a] < part[b];  // arrival order: the stable sort keeps it
    });
    std::vector<Row> expected;
    for (const size_t i : order) expected.push_back(serial[i]);

    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(std::string(scheme == PartitionScheme::kHash ? "hash"
                                                                : "rr") +
                   (streaming ? " streaming" : " phased"));
      ExecutionConfig config;
      config.num_threads = kParts;
      config.batch_size = 64;
      config.parallel.partitions = kParts;
      config.parallel.scheme = scheme;
      config.parallel.hash_column = "amount";
      config.streaming = streaming;
      auto target = std::make_shared<MemTable>("tgt", BoundSchema());
      ASSERT_TRUE(Executor::Run(make_flow(target, false), config).ok());
      EXPECT_EQ(target->ReadAll().value().rows(), expected);

      // No columns: the merge concatenates the partitions, every row kept.
      auto empty_target = std::make_shared<MemTable>("tgt", Schema());
      const Result<RunMetrics> metrics =
          Executor::Run(make_flow(empty_target, true), config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_EQ(empty_target->NumRows().value(), kRows);
      EXPECT_EQ(metrics.value().rows_loaded, kRows);
    }
  }
}

TEST(ParallelExecutionTest, MergeCostReported) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(4096));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics.value().merge_micros, 0);
}

TEST(ParallelExecutionTest, GroupByWithHashPartitioningOnGroupKey) {
  // Hash partitioning on the group key keeps groups partition-local, so a
  // partitioned group-by equals the sequential one.
  const std::vector<Row> input = SimpleRows(999);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);
  const auto make_flow = [&source](const std::shared_ptr<MemTable>& target) {
    FlowSpec spec;
    spec.id = "group_flow";
    spec.source = source;
    spec.transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<GroupOp>(
          "grp", std::vector<std::string>{"category"},
          std::vector<Aggregate>{Aggregate::Count("n"),
                                 Aggregate::Sum("amount", "total")});
    });
    spec.target = target;
    return spec;
  };
  GroupOp prototype("grp", {"category"},
                    {Aggregate::Count("n"), Aggregate::Sum("amount", "total")});
  const Schema out_schema = prototype.Bind(SimpleSchema()).value();

  auto seq_target = std::make_shared<MemTable>("tgt", out_schema);
  ASSERT_TRUE(Executor::Run(make_flow(seq_target), ExecutionConfig{}).ok());

  auto par_target = std::make_shared<MemTable>("tgt", out_schema);
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "category";
  ASSERT_TRUE(Executor::Run(make_flow(par_target), config).ok());
  EXPECT_TRUE(SameMultiset(seq_target->ReadAll().value().rows(),
                           par_target->ReadAll().value().rows()));
}

TEST(ParallelExecutionTest, MorePartitionsThanRows) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(3));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 8;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(target->NumRows().value(), 3u);
}

}  // namespace
}  // namespace qox
