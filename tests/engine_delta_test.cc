#include "engine/ops/delta_op.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRow;
using testing_util::SimpleSchema;

std::shared_ptr<SnapshotStore> MakeSnapshot() {
  return std::make_shared<SnapshotStore>("snap", SimpleSchema(),
                                         std::vector<size_t>{0});
}

Result<std::vector<Row>> RunDelta(DeltaOp* op,
                                  const std::vector<Row>& rows) {
  return testing_util::RunOperator(op, SimpleSchema(), rows);
}

TEST(DeltaOpTest, FirstRunEmitsEverythingAsInserts) {
  DeltaOp op("delta", MakeSnapshot());
  const Result<std::vector<Row>> out =
      RunDelta(&op, {SimpleRow(1, "a", 1.0), SimpleRow(2, "b", 2.0)});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out.value().size(), 2u);
}

TEST(DeltaOpTest, EmitsOnlyChangesAgainstSnapshot) {
  auto snapshot = MakeSnapshot();
  ASSERT_TRUE(
      snapshot->Commit({SimpleRow(1, "a", 1.0), SimpleRow(2, "b", 2.0)}).ok());
  DeltaOp op("delta", snapshot);
  const Result<std::vector<Row>> out = RunDelta(
      &op, {SimpleRow(1, "a", 1.0),     // unchanged -> dropped
            SimpleRow(2, "b", 99.0),    // update
            SimpleRow(3, "c", 3.0)});   // insert
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 2u);
}

TEST(DeltaOpTest, ChangeTypeColumnTagsRows) {
  auto snapshot = MakeSnapshot();
  ASSERT_TRUE(snapshot->Commit({SimpleRow(1, "a", 1.0)}).ok());
  DeltaOp op("delta", snapshot, "change_type");
  const Result<Schema> bound = op.Bind(SimpleSchema());
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound.value().HasField("change_type"));
  OperatorContext ctx;
  ASSERT_TRUE(op.Open(&ctx).ok());
  RowBatch out(bound.value());
  ASSERT_TRUE(op.Push(RowBatch(SimpleSchema(), {SimpleRow(1, "a", 42.0),
                                                SimpleRow(2, "b", 2.0)}),
                      &out)
                  .ok());
  EXPECT_TRUE(out.empty());  // blocking: nothing until Finish
  ASSERT_TRUE(op.Finish(&out).ok());
  ASSERT_EQ(out.num_rows(), 2u);
  // Inserts come first, then updates.
  EXPECT_EQ(out.row(0).value(4).string_value(), "insert");
  EXPECT_EQ(out.row(0).value(0).int64_value(), 2);
  EXPECT_EQ(out.row(1).value(4).string_value(), "update");
  EXPECT_EQ(out.row(1).value(0).int64_value(), 1);
}

TEST(DeltaOpTest, InterleavedDuplicatesEmitInFirstSeenKeyOrder) {
  // Surrogate keys follow arrival order, so the Δ's output order is part
  // of its contract: inserts, then updates, each in the order their keys
  // first appear in the landing, each carrying the key's last row.
  auto snapshot = MakeSnapshot();
  ASSERT_TRUE(snapshot
                  ->Commit({SimpleRow(2, "b", 2.0), SimpleRow(4, "d", 4.0),
                            SimpleRow(6, "f", 6.0)})
                  .ok());
  DeltaOp op("delta", snapshot);
  const Result<std::vector<Row>> out = RunDelta(
      &op, {SimpleRow(5, "e", 1.0),    // insert, superseded below
            SimpleRow(2, "b", 20.0),   // update, reverted below
            SimpleRow(3, "c", 1.0),    // insert, superseded below
            SimpleRow(5, "e", 50.0),
            SimpleRow(4, "d", 4.0),    // unchanged, changed below
            SimpleRow(6, "f", 60.0),   // update, superseded below
            SimpleRow(2, "b", 2.0),    // back to the snapshot: unchanged
            SimpleRow(1, "a", 1.0),    // insert
            SimpleRow(6, "f", 61.0),
            SimpleRow(3, "c", 33.0),
            SimpleRow(4, "d", 44.0)});
  ASSERT_TRUE(out.ok()) << out.status();
  const std::vector<Row> expected{SimpleRow(5, "e", 50.0),
                                  SimpleRow(3, "c", 33.0),
                                  SimpleRow(1, "a", 1.0),
                                  SimpleRow(4, "d", 44.0),
                                  SimpleRow(6, "f", 61.0)};
  ASSERT_EQ(out.value().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out.value()[i], expected[i])
        << "row " << i << ": " << out.value()[i].ToString();
  }
}

TEST(DeltaOpTest, RepeatableWithoutCommit) {
  // The delta must be stable across reruns until the snapshot commits —
  // the property restart-based recovery relies on.
  auto snapshot = MakeSnapshot();
  ASSERT_TRUE(snapshot->Commit({SimpleRow(1, "a", 1.0)}).ok());
  const std::vector<Row> landing{SimpleRow(1, "a", 2.0),
                                 SimpleRow(5, "e", 5.0)};
  for (int attempt = 0; attempt < 3; ++attempt) {
    DeltaOp op("delta", snapshot);
    const Result<std::vector<Row>> out = RunDelta(&op, landing);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().size(), 2u);
  }
}

TEST(DeltaOpTest, AfterCommitDeltaShrinks) {
  auto snapshot = MakeSnapshot();
  const std::vector<Row> landing{SimpleRow(1, "a", 1.0),
                                 SimpleRow(2, "b", 2.0)};
  {
    DeltaOp op("delta", snapshot);
    EXPECT_EQ(RunDelta(&op, landing).value().size(), 2u);
  }
  ASSERT_TRUE(snapshot->Commit(landing).ok());
  {
    DeltaOp op("delta", snapshot);
    EXPECT_EQ(RunDelta(&op, landing).value().size(), 0u);
  }
}

TEST(DeltaOpTest, BindRejectsSchemaMismatch) {
  DeltaOp op("delta", MakeSnapshot());
  EXPECT_FALSE(op.Bind(Schema({{"other", DataType::kInt64, true}})).ok());
  DeltaOp no_snapshot("delta", nullptr);
  EXPECT_FALSE(no_snapshot.Bind(SimpleSchema()).ok());
}

TEST(DeltaOpTest, IsBlocking) {
  DeltaOp op("delta", MakeSnapshot());
  EXPECT_TRUE(op.IsBlocking());
  EXPECT_STREQ(op.kind(), "delta");
}

}  // namespace
}  // namespace qox
