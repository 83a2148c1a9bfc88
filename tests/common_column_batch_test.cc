// ColumnBatch unit tests: row/column round-trips, validity bitmaps across
// word boundaries, selection-vector semantics, boxed columns for cells of
// another runtime type, and the probe-key encoding's equivalence with Value
// hash/compare semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/column_batch.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRow;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

TEST(ColumnBatchTest, RoundTripPreservesRowsByteForByte) {
  const Schema schema = SimpleSchema();
  const std::vector<Row> rows = SimpleRows(200);  // NULL amounts every 8th
  const RowBatch batch(schema, rows);

  std::optional<ColumnBatch> cb = ColumnBatch::FromRowBatch(batch);
  ASSERT_TRUE(cb.has_value());
  EXPECT_EQ(cb->num_columns(), schema.num_fields());
  EXPECT_EQ(cb->num_physical_rows(), rows.size());
  EXPECT_EQ(cb->num_rows(), rows.size());

  const RowBatch back = cb->ToRowBatch();
  ASSERT_EQ(back.num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(back.row(i) == rows[i]) << "row " << i;
    // Row::Compare is numeric-tolerant; also pin the exact runtime types.
    for (size_t c = 0; c < rows[i].num_values(); ++c) {
      EXPECT_EQ(back.row(i).value(c).type(), rows[i].value(c).type())
          << "row " << i << " col " << c;
    }
  }
}

TEST(ColumnBatchTest, ValidityBitmapSurvivesWordBoundaries) {
  Column col(DataType::kInt64);
  for (int64_t i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      col.AppendNull();
    } else {
      col.AppendInt64(i);
    }
  }
  ASSERT_EQ(col.size(), 200u);
  for (size_t i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      EXPECT_FALSE(col.IsValid(i)) << i;
      EXPECT_TRUE(col.ValueAt(i).is_null()) << i;
    } else {
      ASSERT_TRUE(col.IsValid(i)) << i;
      EXPECT_EQ(col.Int64At(i), static_cast<int64_t>(i)) << i;
    }
  }
}

TEST(ColumnBatchTest, SelectionVectorMaterializesOnlySelectedRowsInOrder) {
  const Schema schema = SimpleSchema();
  const std::vector<Row> rows = SimpleRows(10);
  std::optional<ColumnBatch> cb =
      ColumnBatch::FromRowBatch(RowBatch(schema, rows));
  ASSERT_TRUE(cb.has_value());

  // Drop rows as a filter or a quarantining op would: edit the selection.
  cb->SetSelection({1, 4, 7});
  EXPECT_EQ(cb->num_rows(), 3u);
  EXPECT_EQ(cb->num_physical_rows(), 10u);

  const RowBatch out = cb->ToRowBatch();
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_TRUE(out.row(0) == rows[1]);
  EXPECT_TRUE(out.row(1) == rows[4]);
  EXPECT_TRUE(out.row(2) == rows[7]);

  // Dropped rows remain addressable for containment sinks via RowAt.
  EXPECT_TRUE(cb->RowAt(5) == rows[5]);
}

/// Expects `back` to hold exactly `rows`, runtime cell types included
/// (Row equality alone is numeric-tolerant).
void ExpectSameCells(const RowBatch& back, const std::vector<Row>& rows) {
  ASSERT_EQ(back.num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(back.row(i) == rows[i]) << "row " << i;
    for (size_t c = 0; c < rows[i].num_values(); ++c) {
      EXPECT_EQ(back.row(i).value(c).type(), rows[i].value(c).type())
          << "row " << i << " col " << c;
    }
  }
}

TEST(ColumnBatchTest, MistypedCellsBoxTheirColumnAndRoundTrip) {
  const Schema schema = SimpleSchema();
  std::vector<Row> rows = SimpleRows(200);
  rows[2].Set(2, Value::String("not a double"));  // amount declared kDouble
  rows[150].Set(2, Value::Int64(9));
  std::optional<ColumnBatch> cb =
      ColumnBatch::FromRowBatch(RowBatch(schema, rows));
  ASSERT_TRUE(cb.has_value());
  EXPECT_TRUE(cb->column(2).boxed());
  EXPECT_FALSE(cb->column(0).boxed());
  EXPECT_FALSE(cb->column(1).boxed());
  // Cells before and after the first mismatch keep their runtime types,
  // NULLs (every 8th amount) stay invalid.
  EXPECT_EQ(cb->column(2).ValueAt(1).type(), DataType::kDouble);
  EXPECT_EQ(cb->column(2).ValueAt(2).type(), DataType::kString);
  EXPECT_EQ(cb->column(2).ValueAt(150).type(), DataType::kInt64);
  EXPECT_FALSE(cb->column(2).IsValid(7));
  EXPECT_TRUE(cb->column(2).IsValid(2));
  ExpectSameCells(cb->ToRowBatch(), rows);

  cb->SetSelection({2, 7, 150});
  const RowBatch picked = cb->ToRowBatch();
  ExpectSameCells(picked, {rows[2], rows[7], rows[150]});
  EXPECT_TRUE(cb->RowAt(2) == rows[2]);
}

TEST(ColumnBatchTest, TimestampColumnsKeepTheirRuntimeType) {
  const Schema schema = Schema({{"ts", DataType::kTimestamp, true}});
  std::vector<Row> rows;
  rows.push_back(Row({Value::Timestamp(1000)}));
  rows.push_back(Row({Value::Null()}));
  std::optional<ColumnBatch> cb =
      ColumnBatch::FromRowBatch(RowBatch(schema, rows));
  ASSERT_TRUE(cb.has_value());
  EXPECT_FALSE(cb->column(0).boxed());
  EXPECT_EQ(cb->column(0).ValueAt(0).type(), DataType::kTimestamp);
  EXPECT_EQ(cb->column(0).ValueAt(0).timestamp_micros(), 1000);

  // A plain Int64 in a timestamp-declared column boxes it, so the cell
  // comes back as an Int64, not as a timestamp.
  rows[1] = Row({Value::Int64(7)});
  cb = ColumnBatch::FromRowBatch(RowBatch(schema, rows));
  ASSERT_TRUE(cb.has_value());
  EXPECT_TRUE(cb->column(0).boxed());
  ExpectSameCells(cb->ToRowBatch(), rows);
  EXPECT_TRUE(cb->ToRowBatch().row(1).value(0).is_int64());
}

TEST(ColumnBatchTest, AppendValueBoxesAtTheFirstMismatch) {
  Column col(DataType::kDouble);
  col.AppendValue(Value::Double(1.5));
  col.AppendValue(Value::Null());
  EXPECT_FALSE(col.boxed());
  col.AppendValue(Value::Int64(2));  // runtime type mismatch
  EXPECT_TRUE(col.boxed());
  col.AppendNull();
  col.AppendValue(Value::Double(3.0));
  ASSERT_EQ(col.size(), 5u);
  EXPECT_EQ(col.ValueAt(0).type(), DataType::kDouble);
  EXPECT_EQ(col.ValueAt(0).double_value(), 1.5);
  EXPECT_TRUE(col.ValueAt(1).is_null());
  EXPECT_TRUE(col.ValueAt(2).is_int64());
  EXPECT_TRUE(col.ValueAt(3).is_null());
  EXPECT_EQ(col.ValueAt(4).double_value(), 3.0);
  EXPECT_TRUE(col.has_nulls());
  EXPECT_FALSE(col.IsValid(1));
  EXPECT_FALSE(col.IsValid(3));
  EXPECT_TRUE(col.IsValid(2));

  // Boxed key bytes are the boxed Value's encoding.
  std::string from_column;
  col.AppendKeyBytes(2, &from_column);
  std::string from_value;
  AppendValueKeyBytes(Value::Int64(2), &from_value);
  EXPECT_EQ(from_column, from_value);
}

TEST(ColumnBatchTest, NullDeclaredColumnBoxesAnyValue) {
  const Schema schema = Schema({{"nothing", DataType::kNull, true}});
  const std::vector<Row> rows = {Row({Value::Null()}),
                                 Row({Value::String("x")}),
                                 Row({Value::Bool(true)})};
  std::optional<ColumnBatch> cb =
      ColumnBatch::FromRowBatch(RowBatch(schema, rows));
  ASSERT_TRUE(cb.has_value());
  EXPECT_TRUE(cb->column(0).boxed());
  ExpectSameCells(cb->ToRowBatch(), rows);
}

TEST(ColumnBatchTest, RowWidthMismatchIsRefused) {
  const Schema schema = SimpleSchema();
  std::vector<Row> rows = SimpleRows(3);
  rows[1] = Row({Value::Int64(1)});
  EXPECT_FALSE(ColumnBatch::FromRowBatch(RowBatch(schema, rows)).has_value());
}

TEST(ColumnBatchTest, KeyBytesMatchBoxedValueEncoding) {
  Column col(DataType::kInt64);
  col.AppendInt64(42);
  std::string from_column;
  col.AppendKeyBytes(0, &from_column);
  std::string from_value;
  AppendValueKeyBytes(Value::Int64(42), &from_value);
  EXPECT_EQ(from_column, from_value);

  // Int64 and timestamp hash/compare identically, so they share one
  // encoding; a double never matches an int64 probe under Value::Hash, so
  // it must encode differently even when numerically equal.
  std::string ts_bytes;
  AppendValueKeyBytes(Value::Timestamp(42), &ts_bytes);
  EXPECT_EQ(ts_bytes, from_value);
  std::string dbl_bytes;
  AppendValueKeyBytes(Value::Double(42.0), &dbl_bytes);
  EXPECT_NE(dbl_bytes, from_value);
}

TEST(ColumnBatchTest, NegativeZeroKeyCanonicalizesToPositiveZero) {
  std::string neg;
  AppendValueKeyBytes(Value::Double(-0.0), &neg);
  std::string pos;
  AppendValueKeyBytes(Value::Double(0.0), &pos);
  // -0.0 == 0.0 under Value::Compare and they hash identically, so the
  // byte encoding must collapse them too.
  EXPECT_EQ(neg, pos);
}

TEST(ColumnBatchTest, UpperInPlaceAsciiUppercasesPayloads) {
  Column col(DataType::kString);
  col.AppendString("abc");
  col.AppendNull();
  col.AppendString("MiXeD9!");
  col.UpperInPlaceAscii();
  EXPECT_EQ(col.StringAt(0), "ABC");
  EXPECT_EQ(col.StringAt(2), "MIXED9!");
}

TEST(ColumnBatchTest, ByteSizeGrowsWithData) {
  const Schema schema = SimpleSchema();
  std::optional<ColumnBatch> small =
      ColumnBatch::FromRowBatch(RowBatch(schema, SimpleRows(8)));
  std::optional<ColumnBatch> large =
      ColumnBatch::FromRowBatch(RowBatch(schema, SimpleRows(800)));
  ASSERT_TRUE(small.has_value() && large.has_value());
  EXPECT_GT(small->ByteSize(), 0u);
  EXPECT_GT(large->ByteSize(), small->ByteSize());
}

}  // namespace
}  // namespace qox
