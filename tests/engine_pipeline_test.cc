#include "engine/pipeline.h"

#include <gtest/gtest.h>

#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRow;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

std::vector<OperatorPtr> MakeChain() {
  std::vector<OperatorPtr> ops;
  ops.push_back(std::make_unique<FilterOp>(
      "flt", std::vector<Predicate>{Predicate::NotNull("amount")}));
  ops.push_back(std::make_unique<FunctionOp>(
      "fn", std::vector<ColumnTransform>{
                ColumnTransform::Scale("scaled", "amount", 2.0)}));
  return ops;
}

TEST(PipelineTest, CascadesThroughOps) {
  OperatorContext ctx;
  std::atomic<size_t> rejected{0};
  ctx.rejected_rows = &rejected;
  const Result<std::unique_ptr<Pipeline>> pipeline =
      Pipeline::Create(SimpleSchema(), MakeChain(), &ctx, PipelineConfig{});
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  EXPECT_TRUE(pipeline.value()->output_schema().HasField("scaled"));

  const std::vector<Row> rows = SimpleRows(64);  // 8 NULL amounts
  ASSERT_TRUE(pipeline.value()->Push(RowBatch(SimpleSchema(), rows)).ok());
  ASSERT_TRUE(pipeline.value()->Finish().ok());
  const std::vector<Row> out = pipeline.value()->TakeOutput();
  EXPECT_EQ(out.size(), 56u);
  EXPECT_EQ(rejected.load(), 8u);
  for (const Row& row : out) {
    EXPECT_DOUBLE_EQ(row.value(4).double_value(),
                     row.value(2).double_value() * 2.0);
  }
}

TEST(PipelineTest, BlockingOpEmitsAtFinish) {
  OperatorContext ctx;
  std::vector<OperatorPtr> ops;
  ops.push_back(
      std::make_unique<SortOp>("sort", std::vector<SortKey>{{"id", true}}));
  const Result<std::unique_ptr<Pipeline>> pipeline =
      Pipeline::Create(SimpleSchema(), std::move(ops), &ctx,
                       PipelineConfig{});
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(
      pipeline.value()
          ->Push(RowBatch(SimpleSchema(), {SimpleRow(1, "a", 1.0)}))
          .ok());
  ASSERT_TRUE(
      pipeline.value()
          ->Push(RowBatch(SimpleSchema(), {SimpleRow(2, "b", 2.0)}))
          .ok());
  EXPECT_TRUE(pipeline.value()->TakeOutput().empty());
  ASSERT_TRUE(pipeline.value()->Finish().ok());
  const std::vector<Row> out = pipeline.value()->TakeOutput();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value(0).int64_value(), 2);  // descending
}

TEST(PipelineTest, BlockingThenStreamingCascade) {
  // Sort -> filter: the filter must process rows the sorter emits at
  // Finish.
  OperatorContext ctx;
  std::vector<OperatorPtr> ops;
  ops.push_back(
      std::make_unique<SortOp>("sort", std::vector<SortKey>{{"id", false}}));
  ops.push_back(std::make_unique<FilterOp>(
      "flt", std::vector<Predicate>{Predicate::Compare(
                 "id", Predicate::CmpOp::kLt, Value::Int64(2))}));
  const Result<std::unique_ptr<Pipeline>> pipeline =
      Pipeline::Create(SimpleSchema(), std::move(ops), &ctx,
                       PipelineConfig{});
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline.value()
                  ->Push(RowBatch(SimpleSchema(),
                                  {SimpleRow(3, "a", 1.0),
                                   SimpleRow(0, "b", 2.0),
                                   SimpleRow(1, "c", 3.0)}))
                  .ok());
  ASSERT_TRUE(pipeline.value()->Finish().ok());
  const std::vector<Row> out = pipeline.value()->TakeOutput();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value(0).int64_value(), 0);
  EXPECT_EQ(out[1].value(0).int64_value(), 1);
}

TEST(PipelineTest, OpStatsCollected) {
  OperatorContext ctx;
  std::atomic<size_t> rejected{0};
  ctx.rejected_rows = &rejected;
  const Result<std::unique_ptr<Pipeline>> pipeline =
      Pipeline::Create(SimpleSchema(), MakeChain(), &ctx, PipelineConfig{});
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(
      pipeline.value()->Push(RowBatch(SimpleSchema(), SimpleRows(16))).ok());
  ASSERT_TRUE(pipeline.value()->Finish().ok());
  const std::vector<OpStats>& stats = pipeline.value()->op_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "flt");
  EXPECT_EQ(stats[0].rows_in, 16u);
  EXPECT_EQ(stats[0].rows_out, 14u);
  EXPECT_EQ(stats[1].rows_in, 14u);

  // A blocking op consumes the batch pushed into it: its rows_in is
  // counted before the move, its rows_out at Finish.
  std::vector<OperatorPtr> blocking;
  blocking.push_back(std::make_unique<FilterOp>(
      "flt", std::vector<Predicate>{Predicate::NotNull("amount")}));
  blocking.push_back(std::make_unique<SortOp>(
      "srt", std::vector<SortKey>{{"amount", /*descending=*/true}}));
  const Result<std::unique_ptr<Pipeline>> sorted = Pipeline::Create(
      SimpleSchema(), std::move(blocking), &ctx, PipelineConfig{});
  ASSERT_TRUE(sorted.ok()) << sorted.status();
  ASSERT_TRUE(
      sorted.value()->Push(RowBatch(SimpleSchema(), SimpleRows(16))).ok());
  ASSERT_TRUE(
      sorted.value()->Push(RowBatch(SimpleSchema(), SimpleRows(8))).ok());
  ASSERT_TRUE(sorted.value()->Finish().ok());
  const std::vector<OpStats>& sort_stats = sorted.value()->op_stats();
  ASSERT_EQ(sort_stats.size(), 2u);
  EXPECT_EQ(sort_stats[1].rows_in, 21u);  // 14 + 7 non-NULL amounts
  EXPECT_EQ(sort_stats[1].rows_out, 21u);
  EXPECT_EQ(sorted.value()->TakeOutput().size(), 21u);
}

TEST(PipelineTest, BindFailurePropagates) {
  OperatorContext ctx;
  std::vector<OperatorPtr> ops;
  ops.push_back(std::make_unique<FilterOp>(
      "flt", std::vector<Predicate>{Predicate::NotNull("missing")}));
  EXPECT_FALSE(
      Pipeline::Create(SimpleSchema(), std::move(ops), &ctx, PipelineConfig{})
          .ok());
}

TEST(PipelineTest, CancellationStopsProcessing) {
  OperatorContext ctx;
  std::atomic<bool> cancelled{true};
  ctx.cancelled = &cancelled;
  const Result<std::unique_ptr<Pipeline>> pipeline =
      Pipeline::Create(SimpleSchema(), MakeChain(), &ctx, PipelineConfig{});
  ASSERT_TRUE(pipeline.ok());
  const Status st =
      pipeline.value()->Push(RowBatch(SimpleSchema(), SimpleRows(8)));
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST(PipelineTest, InjectedFailureFiresAtConfiguredPoint) {
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 1;          // the function op
  spec.at_fraction = 0.5;  // halfway through its input
  spec.on_attempt = 1;
  injector.AddFailure(spec);

  OperatorContext ctx;
  std::atomic<size_t> rejected{0};
  ctx.rejected_rows = &rejected;
  PipelineConfig config;
  config.injector = &injector;
  config.attempt = 1;
  config.expected_input_rows = 100;
  const Result<std::unique_ptr<Pipeline>> pipeline =
      Pipeline::Create(SimpleSchema(), MakeChain(), &ctx, config);
  ASSERT_TRUE(pipeline.ok());
  Status st = Status::OK();
  const std::vector<Row> rows = SimpleRows(100);
  for (size_t i = 0; i < rows.size() && st.ok(); i += 10) {
    RowBatch batch(SimpleSchema());
    for (size_t j = i; j < std::min(rows.size(), i + 10); ++j) {
      batch.Append(rows[j]);
    }
    st = pipeline.value()->Push(batch);
  }
  EXPECT_TRUE(st.IsInjectedFailure()) << st;
  EXPECT_EQ(injector.triggered_count(), 1u);
}

TEST(PipelineTest, EmptyChainPassesThrough) {
  OperatorContext ctx;
  const Result<std::unique_ptr<Pipeline>> pipeline = Pipeline::Create(
      SimpleSchema(), std::vector<OperatorPtr>{}, &ctx, PipelineConfig{});
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(
      pipeline.value()->Push(RowBatch(SimpleSchema(), SimpleRows(5))).ok());
  ASSERT_TRUE(pipeline.value()->Finish().ok());
  EXPECT_EQ(pipeline.value()->TakeOutput().size(), 5u);
}

}  // namespace
}  // namespace qox
