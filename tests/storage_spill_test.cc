// SpillManager: checksummed round-trip, corruption detection, tmp-file
// discipline, cleanup, and injected disk faults.

#include "storage/spill_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace qox {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"text", DataType::kString, true},
                 {"amount", DataType::kDouble, true}});
}

Row MakeRow(int64_t id) {
  return Row({Value::Int64(id), Value::String("r,with\"comma" +
                                              std::to_string(id)),
              id % 7 == 3 ? Value::Null()
                          : Value::Double(static_cast<double>(id) * 1.5)});
}

/// A row whose string cell holds newlines and quotes: a record that spans
/// several lines of the run.
Row MakeMultiLineRow(int64_t id) {
  return Row({Value::Int64(id),
              Value::String("line one\nline \"two\"\n" + std::to_string(id)),
              Value::Double(static_cast<double>(id))});
}

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spill_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(SpillTest, RoundTripPreservesRowsInWriteOrder) {
  SpillManager manager(dir_);
  auto writer = manager.CreateRun("sort", TestSchema()).value();
  constexpr size_t kRows = 5000;  // spans multiple flush buffers
  const auto make_row = [](size_t i) {
    const auto id = static_cast<int64_t>(i);
    return i % 2 == 0 ? MakeRow(id) : MakeMultiLineRow(id);
  };
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(writer->Append(make_row(i)).ok());
  }
  const SpillFile file = writer->Finalize().value();
  EXPECT_EQ(file.rows, kRows);
  EXPECT_GT(file.bytes, 0u);
  EXPECT_EQ(manager.runs_created(), 1u);
  EXPECT_EQ(manager.rows_spilled(), kRows);

  SpillReader reader(file);
  for (size_t i = 0; i < kRows; ++i) {
    const auto row = reader.Next().value();
    ASSERT_TRUE(row.has_value()) << "short read at row " << i;
    EXPECT_EQ(*row, make_row(i));
  }
  EXPECT_FALSE(reader.Next().value().has_value());
}

TEST_F(SpillTest, CorruptedPayloadSurfacesCorruptedData) {
  SpillManager manager(dir_);
  auto writer = manager.CreateRun("g", TestSchema()).value();
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(writer->Append(MakeRow(i)).ok());
  SpillFile file = writer->Finalize().value();

  // Flip one payload byte; the line's checksum no longer matches.
  {
    std::fstream f(file.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(2);
    f.put('X');
  }
  SpillReader reader(file);
  Status st = Status::OK();
  for (int i = 0; i < 10 && st.ok(); ++i) st = reader.Next().status();
  EXPECT_EQ(st.code(), StatusCode::kCorruptedData) << st;
}

TEST_F(SpillTest, RunCutAtARecordBoundaryIsCorrupted) {
  SpillManager manager(dir_);
  // A run of the first 5 rows is a byte prefix of the 10-row run, so its
  // size is where the 10-row run's 5th record ends.
  auto prefix_writer = manager.CreateRun("p", TestSchema()).value();
  auto writer = manager.CreateRun("g", TestSchema()).value();
  for (int64_t i = 0; i < 10; ++i) {
    if (i < 5) {
      ASSERT_TRUE(prefix_writer->Append(MakeRow(i)).ok());
    }
    ASSERT_TRUE(writer->Append(MakeRow(i)).ok());
  }
  const SpillFile prefix = prefix_writer->Finalize().value();
  const SpillFile file = writer->Finalize().value();
  ASSERT_LT(prefix.bytes, file.bytes);
  std::filesystem::resize_file(file.path, prefix.bytes);

  SpillReader reader(file);
  for (int64_t i = 0; i < 5; ++i) {
    const auto row = reader.Next();
    ASSERT_TRUE(row.ok()) << row.status();
    ASSERT_TRUE(row.value().has_value());
    EXPECT_EQ(*row.value(), MakeRow(i));
  }
  // Ending here would silently drop the last 5 rows from a sort or group.
  EXPECT_EQ(reader.Next().status().code(), StatusCode::kCorruptedData);

  // A run holding more records than its writer counted is corrupted too.
  SpillFile short_count = prefix;
  short_count.rows = 4;
  SpillReader over(short_count);
  Status st = Status::OK();
  for (int i = 0; i < 5 && st.ok(); ++i) st = over.Next().status();
  EXPECT_EQ(st.code(), StatusCode::kCorruptedData) << st;
}

TEST_F(SpillTest, UnfinalizedWriterLeavesOnlyTmpAndRemoveAllClears) {
  SpillManager manager(dir_);
  {
    auto writer = manager.CreateRun("orphan", TestSchema()).value();
    ASSERT_TRUE(writer->Append(MakeRow(1)).ok());
    // Dropped without Finalize: simulates a died attempt.
  }
  auto finalized = manager.CreateRun("done", TestSchema()).value();
  ASSERT_TRUE(finalized->Append(MakeRow(2)).ok());
  ASSERT_TRUE(finalized->Finalize().ok());

  size_t spills = 0;
  size_t tmps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 10 && name.rfind(".spill.tmp") == name.size() - 10) {
      ++tmps;
    } else if (name.rfind(".spill") == name.size() - 6) {
      ++spills;
    }
  }
  // The orphan may or may not have flushed its tmp file (buffered); the
  // finalized run must exist.
  EXPECT_EQ(spills, 1u);

  ASSERT_TRUE(manager.RemoveAll().ok());
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
  (void)tmps;
}

TEST_F(SpillTest, CleanupDirSweepsArtifactsAndToleratesMissingDir) {
  // Missing directory: not an error, nothing removed.
  EXPECT_EQ(SpillManager::CleanupDir(dir_ + "/nope").value(), 0u);

  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/a.spill") << "x\n";
  std::ofstream(dir_ + "/b.spill.tmp") << "y\n";
  std::ofstream(dir_ + "/keep.txt") << "z\n";
  EXPECT_EQ(SpillManager::CleanupDir(dir_).value(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/a.spill"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/b.spill.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/keep.txt"));
}

TEST_F(SpillTest, InjectedWriteFaultSurfacesOnFlushOrFinalize) {
  SpillManager manager(dir_);
  manager.SetWriteFault([] {
    return Status::ResourceExhausted("injected ENOSPC on spill");
  });
  auto writer = manager.CreateRun("f", TestSchema()).value();
  // Appends buffer; the fault strikes at the physical write (flush inside
  // Finalize at this volume).
  Status st = Status::OK();
  for (int64_t i = 0; i < 10 && st.ok(); ++i) st = writer->Append(MakeRow(i));
  if (st.ok()) st = writer->Finalize().status();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
}

}  // namespace
}  // namespace qox
