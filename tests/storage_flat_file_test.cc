#include "storage/flat_file.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/exec_context.h"

namespace qox {
namespace {

/// Batches FlatFile::Scan splits ahead per fan-out (its window): the scans
/// below cover more than three windows at every batch size.
constexpr size_t kWindowMorsels = 8;

/// What a scan handed over: each batch's rows, in order, and its status.
struct Scanned {
  Status status = Status::OK();
  std::vector<std::vector<Row>> batches;
};

Scanned ScanAll(const DataStore& store, size_t batch_size,
                const DataStore::FanOut& fan_out) {
  Scanned out;
  out.status = store.Scan(batch_size, fan_out, [&](RowBatch& batch) {
    out.batches.push_back(std::move(batch.rows()));
    return Status::OK();
  });
  return out;
}

/// Scans `store` serially and through a 4-worker pool's fan-out at batch
/// sizes 1, 7 and 1024: both must hand over the same batches, and `rows`
/// in order.
void ExpectParallelScanMatchesSerial(const DataStore& store,
                                     const std::vector<Row>& rows) {
  WorkerPool pool(4);
  const ExecContext ctx(&pool, TaskTag());
  const DataStore::FanOut fan_out =
      [&ctx](size_t n, const std::function<void(size_t)>& fn) {
        ctx.BulkExecute(n, fn);
      };
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    ASSERT_GT(rows.size(), 3 * kWindowMorsels * batch_size);
    const Scanned serial =
        ScanAll(store, batch_size, DataStore::SerialFanOut());
    const Scanned parallel = ScanAll(store, batch_size, fan_out);
    ASSERT_TRUE(serial.status.ok()) << serial.status;
    ASSERT_TRUE(parallel.status.ok()) << parallel.status;
    ASSERT_EQ(serial.batches.size(), parallel.batches.size()) << batch_size;
    size_t next = 0;
    for (size_t b = 0; b < serial.batches.size(); ++b) {
      ASSERT_EQ(serial.batches[b].size(),
                std::min(batch_size, rows.size() - next));
      ASSERT_TRUE(serial.batches[b] == parallel.batches[b])
          << "batch " << b << " at batch size " << batch_size;
      for (const Row& row : serial.batches[b]) {
        ASSERT_TRUE(row == rows[next]) << "row " << next;
        ++next;
      }
    }
    EXPECT_EQ(next, rows.size());
  }
  EXPECT_GT(pool.stats().tasks_run, 0u);
}

void AppendRaw(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::app | std::ios::binary) << bytes;
}

/// Drops the file's final newline, so its last record is unterminated.
void DropFinalNewline(const std::string& path) {
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
}

class FlatFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/flat_file_test_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Schema TestSchema() {
    return Schema({{"id", DataType::kInt64, false},
                   {"text", DataType::kString, true},
                   {"value", DataType::kDouble, true}});
  }

  std::string dir_;
};

TEST_F(FlatFileTest, CreateWritesHeader) {
  const Result<std::shared_ptr<FlatFile>> file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv");
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file.value()->NumRows().value(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/t.csv"));
}

TEST_F(FlatFileTest, AppendScanRoundTrip) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  RowBatch batch(TestSchema());
  batch.Append(Row({Value::Int64(1), Value::String("plain"),
                    Value::Double(1.5)}));
  batch.Append(Row({Value::Int64(2), Value::String("with,comma"),
                    Value::Double(-2.25)}));
  batch.Append(Row({Value::Int64(3), Value::Null(), Value::Null()}));
  ASSERT_TRUE(file->Append(batch).ok());
  EXPECT_EQ(file->NumRows().value(), 3u);

  const Result<RowBatch> all = file->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all.value().num_rows(), 3u);
  EXPECT_EQ(all.value().row(0).value(1).string_value(), "plain");
  EXPECT_EQ(all.value().row(1).value(1).string_value(), "with,comma");
  EXPECT_TRUE(all.value().row(2).value(1).is_null());
  EXPECT_DOUBLE_EQ(all.value().row(1).value(2).double_value(), -2.25);
}

TEST_F(FlatFileTest, PersistsAcrossReopen) {
  {
    const auto file =
        FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
    RowBatch batch(TestSchema());
    batch.Append(Row({Value::Int64(7), Value::String("x"),
                      Value::Double(0.5)}));
    ASSERT_TRUE(file->Append(batch).ok());
  }
  const auto reopened =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  EXPECT_EQ(reopened->NumRows().value(), 1u);
  EXPECT_EQ(reopened->ReadAll().value().row(0).value(0).int64_value(), 7);
}

TEST_F(FlatFileTest, TruncateKeepsHeaderOnly) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  RowBatch batch(TestSchema());
  batch.Append(Row({Value::Int64(1), Value::String("a"), Value::Double(1)}));
  ASSERT_TRUE(file->Append(batch).ok());
  ASSERT_TRUE(file->Truncate().ok());
  EXPECT_EQ(file->NumRows().value(), 0u);
  EXPECT_EQ(file->ReadAll().value().num_rows(), 0u);
}

TEST_F(FlatFileTest, SchemaMismatchRejected) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  const RowBatch wrong(Schema({{"other", DataType::kInt64, true}}));
  EXPECT_EQ(file->Append(wrong).code(), StatusCode::kInvalidArgument);
}

TEST_F(FlatFileTest, BytesWrittenAccounted) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  EXPECT_EQ(file->bytes_written(), 0u);
  RowBatch batch(TestSchema());
  batch.Append(Row({Value::Int64(1), Value::String("abcdef"),
                    Value::Double(1)}));
  ASSERT_TRUE(file->Append(batch).ok());
  EXPECT_GT(file->bytes_written(), 8u);
}

TEST_F(FlatFileTest, ScanBatchSizes) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  RowBatch batch(TestSchema());
  for (int i = 0; i < 23; ++i) {
    batch.Append(Row({Value::Int64(i), Value::String("r"),
                      Value::Double(i)}));
  }
  ASSERT_TRUE(file->Append(batch).ok());
  size_t batches = 0;
  std::vector<Row> taken;
  // The consumer moves every row out, as the extract stage does: the next
  // batch must still arrive whole.
  ASSERT_TRUE(file->Scan(10, [&](RowBatch& b) {
                    ++batches;
                    EXPECT_LE(b.num_rows(), 10u);
                    for (Row& row : b.rows()) taken.push_back(std::move(row));
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(batches, 3u);
  ASSERT_EQ(taken.size(), 23u);
  for (size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken[i].value(0).int64_value(), static_cast<int64_t>(i));
  }
}

TEST_F(FlatFileTest, OneColumnEmptyRowsRoundTrip) {
  // A one-column row holding NULL or "" encodes to an empty line; Scan
  // must return it (as NULL: the empty cell parses as NULL) and NumRows
  // must count it.
  const Schema schema({{"note", DataType::kString, true}});
  const auto file = FlatFile::Open("t", schema, dir_ + "/t.csv").value();
  RowBatch batch(schema);
  batch.Append(Row({Value::String("x")}));
  batch.Append(Row({Value::Null()}));
  batch.Append(Row({Value::String("")}));
  batch.Append(Row({Value::String("y")}));
  ASSERT_TRUE(file->Append(batch).ok());
  EXPECT_EQ(file->NumRows().value(), 4u);
  const Result<RowBatch> all = file->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all.value().num_rows(), 4u);
  EXPECT_EQ(all.value().row(0).value(0).string_value(), "x");
  EXPECT_TRUE(all.value().row(1).value(0).is_null());
  EXPECT_TRUE(all.value().row(2).value(0).is_null());
  EXPECT_EQ(all.value().row(3).value(0).string_value(), "y");
}

TEST_F(FlatFileTest, QuotedNewlineCellRoundTrips) {
  // Append quotes a cell holding a newline; Scan continues the quoted
  // cell across the line break and NumRows counts records, not lines.
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  RowBatch batch(TestSchema());
  batch.Append(Row({Value::Int64(1), Value::String("two\nlines, \"quoted\""),
                    Value::Double(1.5)}));
  batch.Append(Row({Value::Int64(2), Value::String("a\n\nb"),
                    Value::Double(2.5)}));
  batch.Append(Row({Value::Int64(3), Value::String("plain"),
                    Value::Double(3.5)}));
  ASSERT_TRUE(file->Append(batch).ok());
  EXPECT_EQ(file->NumRows().value(), 3u);
  const Result<RowBatch> all = file->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all.value().num_rows(), 3u);
  EXPECT_EQ(all.value().row(0).value(1).string_value(),
            "two\nlines, \"quoted\"");
  EXPECT_EQ(all.value().row(1).value(1).string_value(), "a\n\nb");
  EXPECT_EQ(all.value().row(2).value(0).int64_value(), 3);
  EXPECT_DOUBLE_EQ(all.value().row(2).value(2).double_value(), 3.5);

  // A ~350 KB file: its 64 KiB read blocks end inside long quoted
  // multi-line cells as well as inside plain lines.
  ASSERT_TRUE(file->Truncate().ok());
  RowBatch many(TestSchema());
  std::vector<std::string> texts;
  for (int i = 0; i < 4000; ++i) {
    std::string text(static_cast<size_t>(i % 41), 'x');
    if (i % 3 == 0) text += "\n\"q\",\n" + std::to_string(i);
    if (i % 3 == 1) text = "\n" + std::string(150 + i % 53, 'y') + "\n";
    texts.push_back(text);
    many.Append(Row({Value::Int64(i), Value::String(text),
                     Value::Double(i * 0.5)}));
  }
  ASSERT_TRUE(file->Append(many).ok());
  EXPECT_EQ(file->NumRows().value(), texts.size());
  const Result<RowBatch> reread = file->ReadAll();
  ASSERT_TRUE(reread.ok()) << reread.status();
  ASSERT_EQ(reread.value().num_rows(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    const Row& row = reread.value().row(i);
    ASSERT_EQ(row.value(0).int64_value(), static_cast<int64_t>(i));
    if (texts[i].empty()) {
      EXPECT_TRUE(row.value(1).is_null()) << "row " << i;
    } else {
      EXPECT_EQ(row.value(1).string_value(), texts[i]) << "row " << i;
    }
  }
}

// A scan decoding through a pool hands over the serial scan's batches:
// quoted newlines and doubled quotes, blank lines between records, and a
// last record with no newline.
TEST_F(FlatFileTest, ParallelScanMatchesSerialScan) {
  const std::string path = dir_ + "/t.csv";
  const auto file = FlatFile::Open("t", TestSchema(), path).value();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 30000; ++i) {
    std::string text = "r" + std::to_string(i);
    if (i % 5 == 0) text += "\nsecond line, \"quoted\"";
    if (i % 7 == 0) text = "\"\"";
    rows.push_back(Row({Value::Int64(i),
                        i % 11 == 0 ? Value::Null() : Value::String(text),
                        Value::Double(static_cast<double>(i) * 0.25)}));
  }
  for (size_t begin = 0; begin < rows.size(); begin += 4000) {
    const size_t end = std::min(rows.size(), begin + 4000);
    std::vector<Row> chunk(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                           rows.begin() + static_cast<std::ptrdiff_t>(end));
    ASSERT_TRUE(file->Append(RowBatch(TestSchema(), std::move(chunk))).ok());
    // Blank lines are no rows in a three-column file.
    if (end < rows.size()) AppendRaw(path, "\n\n");
  }
  DropFinalNewline(path);
  ASSERT_EQ(file->NumRows().value(), rows.size());
  ExpectParallelScanMatchesSerial(*file, rows);
}

// In a one-column file an empty line is a NULL row, in every window.
TEST_F(FlatFileTest, ParallelScanKeepsOneColumnNullRows) {
  const Schema schema({{"note", DataType::kString, true}});
  const std::string path = dir_ + "/one.csv";
  const auto file = FlatFile::Open("one", schema, path).value();
  std::vector<Row> rows;
  RowBatch batch(schema);
  for (int64_t i = 0; i < 30000; ++i) {
    // The last row holds text: its newline is dropped below.
    const bool null = i % 3 == 0 && i != 29999;
    rows.push_back(Row({null ? Value::Null()
                             : Value::String("v\n" + std::to_string(i))}));
    batch.Append(rows.back());
  }
  ASSERT_TRUE(file->Append(batch).ok());
  DropFinalNewline(path);
  ASSERT_EQ(file->NumRows().value(), rows.size());
  ExpectParallelScanMatchesSerial(*file, rows);
}

// A cell that fails to parse in the third window fails the parallel scan
// with the serial scan's status, after exactly the batches before it.
TEST_F(FlatFileTest, ParallelScanFailsAtTheFirstBadRecordLikeTheSerialScan) {
  WorkerPool pool(4);
  const ExecContext ctx(&pool, TaskTag());
  const DataStore::FanOut fan_out =
      [&ctx](size_t n, const std::function<void(size_t)>& fn) {
        ctx.BulkExecute(n, fn);
      };
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    const std::string path =
        dir_ + "/bad" + std::to_string(batch_size) + ".csv";
    const auto file = FlatFile::Open("bad", TestSchema(), path).value();
    // The first bad record opens the third window's second batch; a
    // second one follows in a later window.
    const size_t bad = (2 * kWindowMorsels + 1) * batch_size;
    RowBatch head(TestSchema());
    for (size_t i = 0; i < bad; ++i) {
      head.Append(Row({Value::Int64(static_cast<int64_t>(i)),
                       Value::String("ok"), Value::Double(1.0)}));
    }
    ASSERT_TRUE(file->Append(head).ok());
    AppendRaw(path, std::to_string(bad) + ",bad,not_a_number\n");
    RowBatch rest(TestSchema());
    for (size_t i = bad + 1; i < 30 * batch_size + 40; ++i) {
      rest.Append(Row({Value::Int64(static_cast<int64_t>(i)),
                       Value::String("ok"), Value::Double(1.0)}));
    }
    ASSERT_TRUE(file->Append(rest).ok());
    AppendRaw(path, "x,worse\n");

    const Scanned serial =
        ScanAll(*file, batch_size, DataStore::SerialFanOut());
    const Scanned parallel = ScanAll(*file, batch_size, fan_out);
    ASSERT_EQ(serial.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(serial.status.message().find(
                  "file '" + path + "' line " + std::to_string(bad + 2) +
                  ": "),
              std::string::npos)
        << serial.status;
    EXPECT_EQ(parallel.status.code(), serial.status.code());
    EXPECT_EQ(parallel.status.message(), serial.status.message());
    ASSERT_EQ(serial.batches.size(), bad / batch_size);
    ASSERT_EQ(parallel.batches.size(), serial.batches.size());
    for (size_t b = 0; b < serial.batches.size(); ++b) {
      ASSERT_TRUE(serial.batches[b] == parallel.batches[b]) << b;
    }
  }
}

TEST_F(FlatFileTest, OpenInUncreatableDirFails) {
  const Result<std::shared_ptr<FlatFile>> file = FlatFile::Open(
      "t", TestSchema(), "/nonexistent_dir_qox/deeper/t.csv");
  EXPECT_FALSE(file.ok());
}

}  // namespace
}  // namespace qox
