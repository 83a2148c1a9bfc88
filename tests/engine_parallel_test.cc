// Partitioned-parallel execution: byte equality with the sequential plan
// across schemes, degrees, extents, and thread counts (the Fig. 4
// configurations), verified as a parameterized property suite, plus the
// exact row order of the merge against independently computed oracles
// (round robin, hash, batches smaller than the partition count, a hash
// group), a sort that a requested range holds, and a group that only a
// hash on its key splits.

#include <gtest/gtest.h>

#include <algorithm>

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

/// A flow of one group: the row count and the amount total by category.
FlowSpec GroupFlow(const DataStorePtr& source,
                   const std::shared_ptr<MemTable>& target) {
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
}

Schema GroupSchema() {
  GroupOp prototype("grp", {"category"},
                    {Aggregate::Count("n"), Aggregate::Sum("amount", "total")});
  return prototype.Bind(SimpleSchema()).value();
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
  // A sort ends every range, so it runs behind the merge on all rows.
  EXPECT_TRUE(expected == par_target->ReadAll().value().rows());
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
/// output is zero columns wide.
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
// own. The chain is one row-preserving op, so serial output row i came
// from source row i. Round robin deals each input batch out as contiguous
// slices, so it must load the serial bytes. Hash sends row i to partition
// hash(amount) % k, and the merge takes one slice per partition in turn,
// so each input batch comes out with its rows grouped by partition, in
// partition order.
TEST(ParallelExecutionTest, MergeOrderMatchesIndependentOracle) {
  constexpr size_t kRows = 2000;
  constexpr size_t kParts = 4;
  constexpr size_t kBatch = 64;
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

  std::vector<Row> hash_order;
  for (size_t batch = 0; batch < kRows; batch += kBatch) {
    for (size_t p = 0; p < kParts; ++p) {
      for (size_t i = batch; i < std::min(kRows, batch + kBatch); ++i) {
        if (input[i].HashColumns({2}) % kParts == p) {
          hash_order.push_back(serial[i]);
        }
      }
    }
  }
  ASSERT_FALSE(hash_order == serial);  // the hash oracle is not trivial

  for (const PartitionScheme scheme :
       {PartitionScheme::kRoundRobin, PartitionScheme::kHash}) {
    const bool hash = scheme == PartitionScheme::kHash;
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(std::string(hash ? "hash" : "rr") +
                   (streaming ? " streaming" : " phased"));
      ExecutionConfig config;
      config.num_threads = kParts;
      config.batch_size = kBatch;
      config.parallel.partitions = kParts;
      config.parallel.scheme = scheme;
      config.parallel.hash_column = "amount";
      config.streaming = streaming;
      auto target = std::make_shared<MemTable>("tgt", BoundSchema());
      ASSERT_TRUE(Executor::Run(make_flow(target, false), config).ok());
      EXPECT_TRUE(target->ReadAll().value().rows() ==
                  (hash ? hash_order : serial));

      // No columns: every row is still kept.
      auto empty_target = std::make_shared<MemTable>("tgt", Schema());
      const Result<RunMetrics> metrics =
          Executor::Run(make_flow(empty_target, true), config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_EQ(empty_target->NumRows().value(), kRows);
      EXPECT_EQ(metrics.value().rows_loaded, kRows);
    }
  }
}

// A sort ends a parallel range, so a requested range that holds the sort
// runs the sort behind the merge and loads the serial bytes. The function
// before the sort still runs partitioned. Each amount (NULL included) is
// shared by several rows, so the bytes also pin the stable sort's tie
// order: round robin feeds the sort in serial order, and hashing on the
// sort key keeps tied rows in one partition, in arrival order.
TEST(ParallelExecutionTest, PartitionedSortLoadsSerialBytes) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(500));
  const auto make_flow = [&](const std::shared_ptr<MemTable>& target) {
    FlowSpec spec;
    spec.id = "partitioned_sort_flow";
    spec.source = source;
    spec.transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<FunctionOp>(
          "fn", std::vector<ColumnTransform>{
                    ColumnTransform::Scale("scaled", "amount", 3.0)});
    });
    spec.transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<SortOp>(
          "sort", std::vector<SortKey>{{"amount", /*descending=*/true}});
    });
    spec.target = target;
    return spec;
  };
  auto serial_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(Executor::Run(make_flow(serial_target), ExecutionConfig{}).ok());
  const std::vector<Row> serial = serial_target->ReadAll().value().rows();
  ASSERT_EQ(serial.size(), 500u);

  for (const PartitionScheme scheme :
       {PartitionScheme::kRoundRobin, PartitionScheme::kHash}) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(std::string(scheme == PartitionScheme::kHash ? "hash"
                                                                : "rr") +
                   (streaming ? " streaming" : " phased"));
      ExecutionConfig config;
      config.num_threads = 4;
      config.batch_size = 32;
      config.parallel.partitions = 4;
      config.parallel.scheme = scheme;
      config.parallel.hash_column = "amount";
      config.streaming = streaming;
      auto target = std::make_shared<MemTable>("tgt", BoundSchema());
      const Result<RunMetrics> metrics =
          Executor::Run(make_flow(target), config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_TRUE(target->ReadAll().value().rows() == serial);
      // The requested range [0, 2) ran as [0, 1).
      ASSERT_EQ(metrics.value().parallel_units.size(), 1u);
      EXPECT_EQ(metrics.value().parallel_units[0].range_end, 1u);
    }
  }
}

// Input batches smaller than the partition count leave slices empty (a
// one-row batch goes to partition 0 alone). Each branch still answers
// every slice, and the merge forwards only the non-empty answers: the run
// loads the serial bytes, and the merge passes on exactly one batch per
// (input batch, partition) slice that keeps a row through the filter.
TEST(ParallelExecutionTest, SmallBatchesLeaveSlicesEmptyAndKeepSerialOrder) {
  constexpr size_t kRows = 200;
  constexpr size_t kParts = 4;
  const std::vector<Row> input = SimpleRows(kRows);
  const DataStorePtr source = testing_util::MakeSource(SimpleSchema(), input);
  const auto make_flow = [&](const std::shared_ptr<MemTable>& target) {
    FlowSpec spec = MakeFlow(source, target);
    spec.transforms.pop_back();  // no sort: the merge order is the output
    return spec;
  };
  auto serial_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(Executor::Run(make_flow(serial_target), ExecutionConfig{}).ok());
  const std::vector<Row> serial = serial_target->ReadAll().value().rows();
  ASSERT_LT(serial.size(), kRows);  // the filter drops the NULL amounts

  for (const size_t batch_size : {size_t{1}, size_t{3}, size_t{5}}) {
    size_t forwarded = 0;
    for (size_t begin = 0; begin < kRows; begin += batch_size) {
      const size_t n = std::min(batch_size, kRows - begin);
      std::vector<bool> kept(kParts, false);
      for (size_t i = 0; i < n; ++i) {
        if (!input[begin + i].value(2).is_null()) kept[i * kParts / n] = true;
      }
      forwarded += static_cast<size_t>(
          std::count(kept.begin(), kept.end(), true));
    }
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE("batch " + std::to_string(batch_size) +
                   (streaming ? " streaming" : " phased"));
      ExecutionConfig config;
      config.num_threads = kParts;
      config.batch_size = batch_size;
      config.parallel.partitions = kParts;
      config.streaming = streaming;
      auto target = std::make_shared<MemTable>("tgt", BoundSchema());
      const Result<RunMetrics> metrics =
          Executor::Run(make_flow(target), config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_TRUE(target->ReadAll().value().rows() == serial);
      size_t merges = 0;
      for (const StageStats& stage : metrics.value().stage_stats) {
        if (stage.name.rfind("merge", 0) != 0) continue;
        ++merges;
        EXPECT_EQ(stage.batches, forwarded);
        EXPECT_EQ(stage.rows, serial.size());
      }
      EXPECT_EQ(merges, 1u);
    }
  }
}

// A group inside a hash range keyed on the group column keeps each group in
// one partition, so it computes the serial groups. Each branch's Finish
// emits its groups in first-seen order and the merge takes the partitions
// in index order, so the oracle is the serial output stably partitioned by
// the partition of its key (the router hashes the same value). The bytes
// hold for every thread count in both modes.
TEST(ParallelExecutionTest, HashGroupEmitsPartitionsInIndexOrder) {
  constexpr size_t kParts = 4;
  constexpr size_t kKeys = 12;
  std::vector<Row> input;
  for (size_t i = 0; i < 600; ++i) {
    input.push_back(testing_util::SimpleRow(
        static_cast<int64_t>(i), "k" + std::to_string(i * 7 % kKeys),
        static_cast<double>(i % 37) / 4.0));
  }
  const DataStorePtr source = testing_util::MakeSource(SimpleSchema(), input);
  const Schema out_schema = GroupSchema();

  auto serial_target = std::make_shared<MemTable>("tgt", out_schema);
  ASSERT_TRUE(
      Executor::Run(GroupFlow(source, serial_target), ExecutionConfig{}).ok());
  const std::vector<Row> serial = serial_target->ReadAll().value().rows();
  ASSERT_EQ(serial.size(), kKeys);
  std::vector<Row> expected;
  for (size_t p = 0; p < kParts; ++p) {
    for (const Row& row : serial) {
      if (row.HashColumns({0}) % kParts == p) expected.push_back(row);
    }
  }
  ASSERT_FALSE(expected == serial);  // the oracle is not trivial

  for (const size_t threads : {size_t{1}, kParts}) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(std::to_string(threads) + " threads" +
                   (streaming ? " streaming" : " phased"));
      ExecutionConfig config;
      config.num_threads = threads;
      config.batch_size = 64;
      config.parallel.partitions = kParts;
      config.parallel.scheme = PartitionScheme::kHash;
      config.parallel.hash_column = "category";
      config.streaming = streaming;
      auto target = std::make_shared<MemTable>("tgt", out_schema);
      const Result<RunMetrics> metrics =
          Executor::Run(GroupFlow(source, target), config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_TRUE(target->ReadAll().value().rows() == expected);
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
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(999));
  auto seq_target = std::make_shared<MemTable>("tgt", GroupSchema());
  ASSERT_TRUE(
      Executor::Run(GroupFlow(source, seq_target), ExecutionConfig{}).ok());

  auto par_target = std::make_shared<MemTable>("tgt", GroupSchema());
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "category";
  ASSERT_TRUE(Executor::Run(GroupFlow(source, par_target), config).ok());
  // The partitions' groups come out of Finish concatenated in partition
  // order, not in the serial first-seen order: compare as multisets.
  EXPECT_TRUE(SameMultiset(seq_target->ReadAll().value().rows(),
                           par_target->ReadAll().value().rows()));
}

// Round robin deals rows by position, so a branch's group would see a part
// of every group and emit a partial one. A round-robin range that begins
// at the group starts after it: the group runs serially and the run loads
// the serial groups byte for byte.
TEST(ParallelExecutionTest, RoundRobinRangeRunsTheGroupSerially) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(999));
  auto seq_target = std::make_shared<MemTable>("tgt", GroupSchema());
  ASSERT_TRUE(
      Executor::Run(GroupFlow(source, seq_target), ExecutionConfig{}).ok());
  const std::vector<Row> serial = seq_target->ReadAll().value().rows();
  ASSERT_EQ(serial.size(), 3u);
  for (const bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming" : "phased");
    auto target = std::make_shared<MemTable>("tgt", GroupSchema());
    ExecutionConfig config;
    config.num_threads = 4;
    config.parallel.partitions = 4;
    config.streaming = streaming;
    const Result<RunMetrics> metrics =
        Executor::Run(GroupFlow(source, target), config);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_TRUE(target->ReadAll().value().rows() == serial);
  }
}

// A hash on a column that is not a group column splits every group across
// branches: the run is refused before any row moves.
TEST(ParallelExecutionTest, HashRangeOffTheGroupKeyIsRefused) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(999));
  auto target = std::make_shared<MemTable>("tgt", GroupSchema());
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "id";
  const Result<RunMetrics> metrics =
      Executor::Run(GroupFlow(source, target), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(target->NumRows().value(), 0u);
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
