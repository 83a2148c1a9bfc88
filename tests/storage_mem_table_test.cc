#include "storage/mem_table.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine/exec_context.h"

namespace qox {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"payload", DataType::kString, true}});
}

RowBatch MakeBatch(int64_t first_id, size_t n) {
  RowBatch batch(TestSchema());
  for (size_t i = 0; i < n; ++i) {
    batch.Append(Row({Value::Int64(first_id + static_cast<int64_t>(i)),
                      Value::String("row" + std::to_string(i))}));
  }
  return batch;
}

TEST(MemTableTest, AppendAndCount) {
  MemTable table("t", TestSchema());
  EXPECT_EQ(table.NumRows().value(), 0u);
  ASSERT_TRUE(table.Append(MakeBatch(0, 10)).ok());
  EXPECT_EQ(table.NumRows().value(), 10u);
  ASSERT_TRUE(table.Append(MakeBatch(10, 5)).ok());
  EXPECT_EQ(table.NumRows().value(), 15u);
}

TEST(MemTableTest, SchemaMismatchRejected) {
  MemTable table("t", TestSchema());
  const RowBatch wrong(Schema({{"other", DataType::kInt64, true}}));
  EXPECT_EQ(table.Append(wrong).code(), StatusCode::kInvalidArgument);
}

TEST(MemTableTest, ScanBatchesRespectBatchSize) {
  MemTable table("t", TestSchema());
  ASSERT_TRUE(table.Append(MakeBatch(0, 25)).ok());
  size_t batches = 0;
  size_t rows = 0;
  ASSERT_TRUE(table
                  .Scan(10,
                        [&](const RowBatch& batch) {
                          ++batches;
                          rows += batch.num_rows();
                          EXPECT_LE(batch.num_rows(), 10u);
                          return Status::OK();
                        })
                  .ok());
  EXPECT_EQ(batches, 3u);
  EXPECT_EQ(rows, 25u);
}

TEST(MemTableTest, ScanPreservesOrder) {
  MemTable table("t", TestSchema());
  ASSERT_TRUE(table.Append(MakeBatch(0, 100)).ok());
  int64_t expected = 0;
  ASSERT_TRUE(table
                  .Scan(7,
                        [&](const RowBatch& batch) {
                          for (const Row& row : batch.rows()) {
                            EXPECT_EQ(row.value(0).int64_value(), expected++);
                          }
                          return Status::OK();
                        })
                  .ok());
  EXPECT_EQ(expected, 100);
}

TEST(MemTableTest, ConsumerErrorAbortsScan) {
  MemTable table("t", TestSchema());
  ASSERT_TRUE(table.Append(MakeBatch(0, 100)).ok());
  size_t seen = 0;
  const Status st = table.Scan(10, [&](const RowBatch& batch) {
    seen += batch.num_rows();
    return seen >= 20 ? Status::Cancelled("enough") : Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(seen, 20u);
}

TEST(MemTableTest, ZeroBatchSizeRejected) {
  MemTable table("t", TestSchema());
  EXPECT_FALSE(table.Scan(0, [](const RowBatch&) { return Status::OK(); })
                   .ok());
}

TEST(MemTableTest, TruncateEmpties) {
  MemTable table("t", TestSchema());
  ASSERT_TRUE(table.Append(MakeBatch(0, 10)).ok());
  ASSERT_TRUE(table.Truncate().ok());
  EXPECT_EQ(table.NumRows().value(), 0u);
}

TEST(MemTableTest, ReadAllConvenience) {
  MemTable table("t", TestSchema());
  ASSERT_TRUE(table.Append(MakeBatch(0, 2050)).ok());
  const Result<RowBatch> all = table.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().num_rows(), 2050u);
}

TEST(MemTableTest, ConcurrentAppendsAllLand) {
  MemTable table("t", TestSchema());
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&table, t] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(table.Append(MakeBatch(t * 1000 + i * 10, 10)).ok());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(table.NumRows().value(), 4u * 50u * 10u);
}

// A scan copying its batches through a 4-worker pool's fan-out hands over
// the serial scan's batches, in order, at every batch size.
TEST(MemTableTest, ParallelScanMatchesSerialScan) {
  MemTable table("t", TestSchema());
  ASSERT_TRUE(table.Append(MakeBatch(0, 30000)).ok());
  WorkerPool pool(4);
  const ExecContext ctx(&pool, TaskTag());
  const DataStore::FanOut fan_out =
      [&ctx](size_t n, const std::function<void(size_t)>& fn) {
        ctx.BulkExecute(n, fn);
      };
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    std::vector<std::vector<Row>> serial;
    std::vector<std::vector<Row>> parallel;
    ASSERT_TRUE(table
                    .Scan(batch_size, DataStore::SerialFanOut(),
                          [&](RowBatch& batch) {
                            serial.push_back(std::move(batch.rows()));
                            return Status::OK();
                          })
                    .ok());
    ASSERT_TRUE(table
                    .Scan(batch_size, fan_out,
                          [&](RowBatch& batch) {
                            parallel.push_back(std::move(batch.rows()));
                            return Status::OK();
                          })
                    .ok());
    ASSERT_EQ(serial.size(), (30000 + batch_size - 1) / batch_size);
    ASSERT_EQ(parallel.size(), serial.size());
    int64_t next = 0;
    for (size_t b = 0; b < serial.size(); ++b) {
      ASSERT_TRUE(serial[b] == parallel[b]) << b;
      for (const Row& row : serial[b]) {
        ASSERT_EQ(row.value(0).int64_value(), next++);
      }
    }
    EXPECT_EQ(next, 30000);
  }
  EXPECT_GT(pool.stats().tasks_run, 0u);
}

// The move overload lands the rows; a refused one leaves them all in the
// batch.
TEST(MemTableTest, MoveAppendLandsRowsAndARefusedOneKeepsThem) {
  MemTable table("t", TestSchema());
  RowBatch batch = MakeBatch(0, 10);
  ASSERT_TRUE(table.Append(std::move(batch)).ok());
  const Result<RowBatch> all = table.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all.value().rows() == MakeBatch(0, 10).rows());

  MemTable other("o", Schema({{"id", DataType::kInt64, false}}));
  RowBatch refused = MakeBatch(0, 3);
  EXPECT_EQ(other.Append(std::move(refused)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(refused.rows() == MakeBatch(0, 3).rows());
  EXPECT_EQ(other.NumRows().value(), 0u);
}

}  // namespace
}  // namespace qox
