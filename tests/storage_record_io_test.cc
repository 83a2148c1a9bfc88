// Doubles round-trip through every line file. Value::ToString prints 15
// significant digits (printf's %.15g) and 17 only when 15 do not parse
// back to the same double, so a flat file, a spill run, a recovery point
// and a dead-letter payload each read back the exact bits written, while a
// double that 15 digits already round-trip keeps its old text. Tagged
// records (spill runs, recovery points, payloads) also keep empty strings
// and boxed cells.

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "storage/dead_letter_store.h"
#include "storage/flat_file.h"
#include "storage/record_io.h"
#include "storage/recovery_store.h"
#include "storage/spill_manager.h"

namespace qox {
namespace {

std::vector<double> Doubles() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {3 * 0.37,
          0.1 + 0.2,
          1e-7,
          1e21,
          -0.0,
          kInf,
          -kInf,
          std::numeric_limits<double>::denorm_min(),
          1.0 / 3,
          2.5};
}

Schema DoubleSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"x", DataType::kDouble, true}});
}

std::vector<Row> DoubleRows() {
  std::vector<Row> rows;
  const std::vector<double> doubles = Doubles();
  for (size_t i = 0; i < doubles.size(); ++i) {
    rows.push_back(Row({Value::Int64(static_cast<int64_t>(i)),
                        Value::Double(doubles[i])}));
  }
  return rows;
}

/// Every row of `read` holds the bits of the same row of `written`.
void ExpectSameBits(const std::vector<Row>& read,
                    const std::vector<Row>& written) {
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < read.size(); ++i) {
    const double want = written[i].value(1).double_value();
    ASSERT_TRUE(read[i].value(1).is_double()) << "row " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(read[i].value(1).double_value()),
              std::bit_cast<uint64_t>(want))
        << "row " << i << " wrote " << Value::Double(want).ToString()
        << ", read " << read[i].value(1).ToString();
  }
}

class DoubleRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/double_round_trip_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(DoubleRoundTripTest, TextParsesBackToTheSameBits) {
  for (const double d : Doubles()) {
    const std::string text = Value::Double(d).ToString();
    const Result<Value> parsed = Value::Parse(text, DataType::kDouble);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed.value().double_value()),
              std::bit_cast<uint64_t>(d))
        << text;
  }
  // 15 digits where they suffice, so those bytes stay as they were.
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(1e21).ToString(), "1e+21");
  EXPECT_EQ(Value::Double(1e-7).ToString(), "1e-07");
  EXPECT_EQ(Value::Double(-0.0).ToString(), "-0");
  EXPECT_EQ(Value::Double(0.1).ToString(), "0.1");
  EXPECT_EQ(Value::Double(3 * 0.37).ToString(), "1.1099999999999999");
}

TEST_F(DoubleRoundTripTest, FlatFile) {
  auto file =
      FlatFile::Open("doubles", DoubleSchema(), dir_ + "/doubles.csv").value();
  ASSERT_TRUE(file->Append(RowBatch(DoubleSchema(), DoubleRows())).ok());
  ExpectSameBits(file->ReadAll().value().rows(), DoubleRows());
}

TEST_F(DoubleRoundTripTest, SpillRun) {
  SpillManager manager(dir_ + "/spill");
  auto writer = manager.CreateRun("doubles", DoubleSchema()).value();
  for (const Row& row : DoubleRows()) ASSERT_TRUE(writer->Append(row).ok());
  SpillReader reader(writer->Finalize().value());
  std::vector<Row> read;
  while (true) {
    Result<std::optional<Row>> next = reader.Next();
    ASSERT_TRUE(next.ok()) << next.status();
    if (!next.value().has_value()) break;
    read.push_back(std::move(*next.value()));
  }
  ExpectSameBits(read, DoubleRows());
}

TEST_F(DoubleRoundTripTest, RecoveryPoint) {
  auto store = RecoveryPointStore::Open(dir_ + "/rp").value();
  const RecoveryPointId id{"flow", "cut"};
  ASSERT_TRUE(store->Save(id, DoubleSchema(), DoubleRows()).ok());
  const Result<RowBatch> loaded = store->Load(id, DoubleSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameBits(loaded.value().rows(), DoubleRows());
}

TEST_F(DoubleRoundTripTest, DeadLetterPayload) {
  std::vector<Row> read;
  for (const Row& row : DoubleRows()) {
    const Result<Row> decoded =
        DecodeQuarantinePayload(EncodeQuarantinePayload(row, DoubleSchema()),
                                DoubleSchema());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    read.push_back(decoded.value());
  }
  ExpectSameBits(read, DoubleRows());
}

// A tagged record reads back the row written, cell types included: an
// empty string beside a NULL, and cells of another runtime type than their
// column's. The tag cell names only those cells; a malformed one is
// refused.
TEST(TaggedRowTest, EmptyStringsAndBoxedCellsReadBackExactly) {
  const Schema schema({{"id", DataType::kInt64, true},
                       {"s", DataType::kString, true},
                       {"d", DataType::kDouble, true},
                       {"t", DataType::kTimestamp, true}});
  const std::vector<Row> rows = {
      Row({Value::Int64(1), Value::String("a,b"), Value::Double(0.5),
           Value::Timestamp(7)}),
      Row({Value::Int64(2), Value::String(""), Value::Null(), Value::Null()}),
      Row({Value::String("x"), Value::Int64(3), Value::String("n/a"),
           Value::Int64(9)}),
      Row({Value::String(""), Value::Bool(true), Value::Int64(4),
           Value::Double(1.5)}),
      Row({Value::Timestamp(5), Value::Double(0.25), Value::String(""),
           Value::String("two\nlines")})};
  const std::vector<std::string> records = {"1,\"a,b\",0.5,7,", "2,,,,1s",
                                            "x,3,n/a,9,0s1i2s3i",
                                            ",true,4,1.5,0s1b2i3d",
                                            "5,0.25,,\"two\nlines\",0t1d2s3s"};
  std::vector<std::string> cells;
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string record;
    AppendTaggedRow(rows[r], schema, &record);
    EXPECT_EQ(record, records[r]);
    const Result<Row> back = ParseTaggedRow(record, schema, &cells);
    ASSERT_TRUE(back.ok()) << record << ": " << back.status();
    EXPECT_EQ(back.value(), rows[r]) << record;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      EXPECT_EQ(back.value().value(i).type(), rows[r].value(i).type())
          << record << ", cell " << i;
    }
  }
  for (const char* bad : {"2,,,,1", "2,,,,s", "2,,,,1x", "2,,,,4s",
                          "2,,,,1s1s", "2,,,,2s1s", "2,,,,1s,", "2,,,",
                          "2,,,,3i", "2,,,,+1s"}) {
    EXPECT_EQ(ParseTaggedRow(bad, schema, &cells).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

}  // namespace
}  // namespace qox
