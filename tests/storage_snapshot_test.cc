#include "storage/snapshot_store.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace qox {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"payload", DataType::kString, true},
                 {"amount", DataType::kDouble, true}});
}

Row MakeRow(int64_t id, const std::string& payload, double amount) {
  return Row({Value::Int64(id), Value::String(payload),
              Value::Double(amount)});
}

TEST(SnapshotStoreTest, FirstLandingIsAllInserts) {
  SnapshotStore store("snap", TestSchema(), {0});
  const std::vector<Row> fresh{MakeRow(1, "a", 1), MakeRow(2, "b", 2)};
  const Result<DeltaResult> delta = store.ComputeDelta(fresh);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().inserts.size(), 2u);
  EXPECT_EQ(delta.value().updates.size(), 0u);
  EXPECT_EQ(delta.value().unchanged, 0u);
}

TEST(SnapshotStoreTest, ClassifiesInsertUpdateUnchanged) {
  SnapshotStore store("snap", TestSchema(), {0});
  ASSERT_TRUE(store.Commit({MakeRow(1, "a", 1), MakeRow(2, "b", 2)}).ok());
  EXPECT_EQ(store.snapshot_size(), 2u);

  const std::vector<Row> fresh{
      MakeRow(1, "a", 1),      // unchanged
      MakeRow(2, "b", 99),     // update (amount changed)
      MakeRow(3, "c", 3),      // insert (new key)
  };
  const Result<DeltaResult> delta = store.ComputeDelta(fresh);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta.value().inserts.size(), 1u);
  EXPECT_EQ(delta.value().inserts[0].value(0).int64_value(), 3);
  ASSERT_EQ(delta.value().updates.size(), 1u);
  EXPECT_EQ(delta.value().updates[0].value(0).int64_value(), 2);
  EXPECT_EQ(delta.value().unchanged, 1u);
}

TEST(SnapshotStoreTest, ComputeDeltaDoesNotMutateSnapshot) {
  SnapshotStore store("snap", TestSchema(), {0});
  ASSERT_TRUE(store.Commit({MakeRow(1, "a", 1)}).ok());
  const std::vector<Row> fresh{MakeRow(2, "b", 2)};
  ASSERT_TRUE(store.ComputeDelta(fresh).ok());
  // Same delta again: still an insert (not committed).
  const Result<DeltaResult> again = store.ComputeDelta(fresh);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().inserts.size(), 1u);
}

TEST(SnapshotStoreTest, DuplicateKeysInLandingKeepLast) {
  SnapshotStore store("snap", TestSchema(), {0});
  const std::vector<Row> fresh{MakeRow(1, "first", 1),
                               MakeRow(1, "last", 2)};
  const Result<DeltaResult> delta = store.ComputeDelta(fresh);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta.value().inserts.size(), 1u);
  EXPECT_EQ(delta.value().inserts[0].value(1).string_value(), "last");

  // Commit keeps the last row of a duplicated key too.
  ASSERT_TRUE(store.Commit(fresh).ok());
  EXPECT_EQ(store.snapshot_size(), 1u);
  const Result<DeltaResult> last = store.ComputeDelta({MakeRow(1, "last", 2)});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().unchanged, 1u);
  const Result<DeltaResult> first =
      store.ComputeDelta({MakeRow(1, "first", 1)});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().updates.size(), 1u);
}

TEST(SnapshotStoreTest, CompositeKeys) {
  SnapshotStore store("snap", TestSchema(), {0, 1});
  ASSERT_TRUE(store.Commit({MakeRow(1, "a", 1)}).ok());
  const std::vector<Row> fresh{MakeRow(1, "b", 1)};  // different composite
  const Result<DeltaResult> delta = store.ComputeDelta(fresh);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().inserts.size(), 1u);

  // A non-leading composite key (amount, id): the payload is not part of
  // it, so a changed payload under the same key is an update.
  SnapshotStore by_amount("snap", TestSchema(), {2, 0});
  ASSERT_TRUE(by_amount.Commit({MakeRow(1, "a", 1)}).ok());
  const Result<DeltaResult> changed = by_amount.ComputeDelta(
      {MakeRow(1, "b", 1),    // same (amount, id): update
       MakeRow(1, "a", 2)});  // new (amount, id): insert
  ASSERT_TRUE(changed.ok());
  ASSERT_EQ(changed.value().updates.size(), 1u);
  EXPECT_EQ(changed.value().updates[0], MakeRow(1, "b", 1));
  ASSERT_EQ(changed.value().inserts.size(), 1u);
  EXPECT_EQ(changed.value().inserts[0], MakeRow(1, "a", 2));
  EXPECT_EQ(changed.value().unchanged, 0u);
}

TEST(SnapshotStoreTest, CommitReplacesSnapshot) {
  SnapshotStore store("snap", TestSchema(), {0});
  ASSERT_TRUE(store.Commit({MakeRow(1, "a", 1)}).ok());
  ASSERT_TRUE(store.Commit({MakeRow(2, "b", 2)}).ok());
  // Key 1 is gone; landing it again is an insert.
  const Result<DeltaResult> delta = store.ComputeDelta({MakeRow(1, "a", 1)});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().inserts.size(), 1u);
}

TEST(SnapshotStoreTest, ClearEmptiesSnapshot) {
  SnapshotStore store("snap", TestSchema(), {0});
  ASSERT_TRUE(store.Commit({MakeRow(1, "a", 1)}).ok());
  ASSERT_TRUE(store.Clear().ok());
  EXPECT_EQ(store.snapshot_size(), 0u);
}

TEST(SnapshotStoreTest, BadKeyColumnErrors) {
  SnapshotStore store("snap", TestSchema(), {9});
  EXPECT_FALSE(store.ComputeDelta({MakeRow(1, "a", 1)}).ok());
  EXPECT_FALSE(store.Commit({MakeRow(1, "a", 1)}).ok());
  EXPECT_EQ(store.snapshot_size(), 0u);
}

TEST(SnapshotStoreTest, ConcurrentComputeDeltaMatchesSerial) {
  // Hash-partitioned Δ branches classify their partitions against one
  // committed snapshot at the same time.
  SnapshotStore store("snap", TestSchema(), {0});
  std::vector<Row> committed;
  for (int64_t id = 0; id < 2000; ++id) {
    committed.push_back(MakeRow(id, "p" + std::to_string(id % 7), id));
  }
  ASSERT_TRUE(store.Commit(committed).ok());
  std::vector<Row> fresh;
  for (int64_t id = 1000; id < 3000; ++id) {
    const double amount = id % 3 == 0 ? -1.0 : static_cast<double>(id);
    fresh.push_back(MakeRow(id, "p" + std::to_string(id % 7), amount));
  }
  const Result<DeltaResult> serial = store.ComputeDelta(fresh);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().inserts.size(), 1000u);
  EXPECT_GT(serial.value().updates.size(), 0u);
  EXPECT_GT(serial.value().unchanged, 0u);

  constexpr int kThreads = 4;
  std::vector<Result<DeltaResult>> results(kThreads,
                                           Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &fresh, &results, t] {
      results[t] = store.ComputeDelta(fresh);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Result<DeltaResult>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.value().inserts, serial.value().inserts);
    EXPECT_EQ(result.value().updates, serial.value().updates);
    EXPECT_EQ(result.value().unchanged, serial.value().unchanged);
  }
}

}  // namespace
}  // namespace qox
