#include "storage/recovery_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace qox {
namespace {

class RecoveryStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/rp_test_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    store_ = RecoveryPointStore::Open(dir_).value();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Schema TestSchema() {
    return Schema({{"id", DataType::kInt64, false},
                   {"text", DataType::kString, true}});
  }

  std::vector<Row> MakeRows(size_t n) {
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(Row({Value::Int64(static_cast<int64_t>(i)),
                          Value::String("r" + std::to_string(i))}));
    }
    return rows;
  }

  std::string dir_;
  std::shared_ptr<RecoveryPointStore> store_;
};

TEST_F(RecoveryStoreTest, SaveLoadRoundTrip) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(10)).ok());
  EXPECT_TRUE(store_->Has(id));
  const Result<RowBatch> loaded = store_->Load(id, TestSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded.value().num_rows(), 10u);
  EXPECT_EQ(loaded.value().row(3).value(1).string_value(), "r3");
}

TEST_F(RecoveryStoreTest, MissingPointIsNotFound) {
  EXPECT_FALSE(store_->Has({"flow1", "nope"}));
  EXPECT_EQ(store_->Load({"flow1", "nope"}, TestSchema()).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecoveryStoreTest, SaveOverwrites) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(10)).ok());
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(3)).ok());
  EXPECT_EQ(store_->Load(id, TestSchema()).value().num_rows(), 3u);
}

TEST_F(RecoveryStoreTest, DropRemovesPoint) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(5)).ok());
  ASSERT_TRUE(store_->Drop(id).ok());
  EXPECT_FALSE(store_->Has(id));
}

TEST_F(RecoveryStoreTest, DropFlowRemovesOnlyThatFlow) {
  ASSERT_TRUE(store_->Save({"flowA", "c0"}, TestSchema(), MakeRows(2)).ok());
  ASSERT_TRUE(store_->Save({"flowA", "c1"}, TestSchema(), MakeRows(2)).ok());
  ASSERT_TRUE(store_->Save({"flowB", "c0"}, TestSchema(), MakeRows(2)).ok());
  ASSERT_TRUE(store_->DropFlow("flowA").ok());
  EXPECT_FALSE(store_->Has({"flowA", "c0"}));
  EXPECT_FALSE(store_->Has({"flowA", "c1"}));
  EXPECT_TRUE(store_->Has({"flowB", "c0"}));
}

TEST_F(RecoveryStoreTest, ListReportsCompletePoints) {
  ASSERT_TRUE(store_->Save({"f", "a"}, TestSchema(), MakeRows(4)).ok());
  ASSERT_TRUE(store_->Save({"f", "b"}, TestSchema(), MakeRows(6)).ok());
  const std::vector<RecoveryPointInfo> infos = store_->List();
  EXPECT_EQ(infos.size(), 2u);
  for (const RecoveryPointInfo& info : infos) {
    EXPECT_TRUE(info.complete);
    EXPECT_GT(info.bytes, 0u);
  }
}

TEST_F(RecoveryStoreTest, BytesWrittenAccumulate) {
  EXPECT_EQ(store_->total_bytes_written(), 0u);
  ASSERT_TRUE(store_->Save({"f", "a"}, TestSchema(), MakeRows(100)).ok());
  const size_t after_first = store_->total_bytes_written();
  EXPECT_GT(after_first, 0u);
  ASSERT_TRUE(store_->Save({"f", "b"}, TestSchema(), MakeRows(100)).ok());
  EXPECT_GT(store_->total_bytes_written(), after_first);
}

TEST_F(RecoveryStoreTest, EmptyRowsSaveIsComplete) {
  const RecoveryPointId id{"f", "empty"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), {}).ok());
  EXPECT_TRUE(store_->Has(id));
  EXPECT_EQ(store_->Load(id, TestSchema()).value().num_rows(), 0u);
}

TEST_F(RecoveryStoreTest, SaveWritesCommitMarkerWithChecksum) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(4)).ok());
  std::string marker_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().string().ends_with(".commit")) {
      marker_path = entry.path().string();
    }
  }
  ASSERT_FALSE(marker_path.empty()) << "no .commit marker written";
  std::ifstream marker(marker_path);
  size_t rows = 0;
  uint64_t checksum = 0;
  marker >> rows >> checksum;
  EXPECT_EQ(rows, 4u);
  EXPECT_NE(checksum, 0u);
  const std::vector<RecoveryPointInfo> infos = store_->List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].checksum, checksum);
}

TEST_F(RecoveryStoreTest, FlippedByteFailsVerification) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(10)).ok());
  // Flip one byte of the persisted data file.
  std::string data_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().string().ends_with(".rp.csv")) {
      data_path = entry.path().string();
    }
  }
  ASSERT_FALSE(data_path.empty());
  {
    std::fstream file(data_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(3);
    file.put('#');
  }
  const Result<RowBatch> loaded = store_->Load(id, TestSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptedData)
      << loaded.status();
}

TEST_F(RecoveryStoreTest, TruncatedFileFailsVerification) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(10)).ok());
  std::string data_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().string().ends_with(".rp.csv")) {
      data_path = entry.path().string();
    }
  }
  ASSERT_FALSE(data_path.empty());
  std::filesystem::resize_file(data_path,
                               std::filesystem::file_size(data_path) / 2);
  const Result<RowBatch> loaded = store_->Load(id, TestSchema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptedData);
}

TEST_F(RecoveryStoreTest, DropRemovesMarkerFile) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(2)).ok());
  ASSERT_TRUE(store_->Drop(id).ok());
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    FAIL() << "leftover file: " << entry.path();
  }
}

TEST_F(RecoveryStoreTest, AdoptRegistersPointFromSurvivingMarker) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(6)).ok());
  // A fresh store over the same directory models a restarted process: the
  // registry is in memory, so the point is logically gone until adopted.
  auto fresh = RecoveryPointStore::Open(dir_).value();
  EXPECT_FALSE(fresh->Has(id));
  const Result<bool> adopted = fresh->Adopt(id);
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_TRUE(adopted.value());
  EXPECT_TRUE(fresh->Has(id));
  const Result<RowBatch> loaded = fresh->Load(id, TestSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().num_rows(), 6u);
}

TEST_F(RecoveryStoreTest, AdoptMissingMarkerIsFallbackNotError) {
  auto fresh = RecoveryPointStore::Open(dir_).value();
  const Result<bool> adopted = fresh->Adopt({"flow1", "never_saved"});
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_FALSE(adopted.value());
}

TEST_F(RecoveryStoreTest, AdoptZeroLengthMarkerIsFallbackNotError) {
  // Regression: a SIGKILL between creating the marker file and the atomic
  // rename publishing its contents can leave a zero-length marker. Adopt
  // must treat it exactly like a checksum mismatch — fall back to an older
  // point (return false) — not surface an error that aborts recovery.
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(6)).ok());
  std::string marker_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().string().ends_with(".commit")) {
      marker_path = entry.path().string();
    }
  }
  ASSERT_FALSE(marker_path.empty());
  std::filesystem::resize_file(marker_path, 0);
  auto fresh = RecoveryPointStore::Open(dir_).value();
  const Result<bool> adopted = fresh->Adopt(id);
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_FALSE(adopted.value());
  EXPECT_FALSE(fresh->Has(id));
}

TEST_F(RecoveryStoreTest, AdoptUnparseableMarkerIsFallbackNotError) {
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(6)).ok());
  std::string marker_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().string().ends_with(".commit")) {
      marker_path = entry.path().string();
    }
  }
  ASSERT_FALSE(marker_path.empty());
  {
    std::ofstream marker(marker_path, std::ios::trunc);
    marker << "not a row count";
  }
  auto fresh = RecoveryPointStore::Open(dir_).value();
  const Result<bool> adopted = fresh->Adopt(id);
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_FALSE(adopted.value());
}

TEST_F(RecoveryStoreTest, AdoptedPointWithLyingMarkerStillFailsLoad) {
  // Adopt trusts the marker's self-description; Load's checksum is what
  // actually protects the data. Corrupt the data after adoption and the
  // corruption still surfaces where it always did.
  const RecoveryPointId id{"flow1", "cut0"};
  ASSERT_TRUE(store_->Save(id, TestSchema(), MakeRows(10)).ok());
  std::string data_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().string().ends_with(".rp.csv")) {
      data_path = entry.path().string();
    }
  }
  ASSERT_FALSE(data_path.empty());
  {
    std::fstream file(data_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(3);
    file.put('#');
  }
  auto fresh = RecoveryPointStore::Open(dir_).value();
  ASSERT_TRUE(fresh->Adopt(id).value());
  EXPECT_EQ(fresh->Load(id, TestSchema()).status().code(),
            StatusCode::kCorruptedData);
}

TEST_F(RecoveryStoreTest, ValuesWithCommasSurvive) {
  const RecoveryPointId id{"f", "commas"};
  std::vector<Row> rows{
      Row({Value::Int64(1), Value::String("a,b,\"c\"")})};
  ASSERT_TRUE(store_->Save(id, TestSchema(), rows).ok());
  const Result<RowBatch> loaded = store_->Load(id, TestSchema());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().row(0).value(1).string_value(), "a,b,\"c\"");
}

}  // namespace
}  // namespace qox
