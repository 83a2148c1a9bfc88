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
    EXPECT_EQ(result.value().landing.Rows(), serial.value().landing.Rows());
  }
}

TEST(SnapshotStoreTest, ComputeDeltaReturnsTheDeduplicatedLanding) {
  SnapshotStore store("snap", TestSchema(), {0});
  ASSERT_TRUE(store.Commit({MakeRow(1, "a", 1), MakeRow(2, "b", 2)}).ok());
  Result<DeltaResult> delta = store.ComputeDelta({
      MakeRow(3, "c", 3),       // insert
      MakeRow(1, "a", 1),       // unchanged
      MakeRow(3, "c-last", 4),  // the landing keeps this row for key 3
      MakeRow(2, "b", 9),       // update
  });
  ASSERT_TRUE(delta.ok()) << delta.status();
  const std::vector<Row> landed = {MakeRow(3, "c-last", 4), MakeRow(1, "a", 1),
                                   MakeRow(2, "b", 9)};
  EXPECT_EQ(delta.value().landing.Rows(), landed);
  EXPECT_EQ(delta.value().inserts, std::vector<Row>{MakeRow(3, "c-last", 4)});
  EXPECT_EQ(delta.value().updates, std::vector<Row>{MakeRow(2, "b", 9)});
  EXPECT_EQ(delta.value().unchanged, 1u);

  // Committing it makes exactly those rows the snapshot, key 3 included.
  ASSERT_TRUE(store.Commit(std::move(delta.value().landing)).ok());
  EXPECT_EQ(store.Rows(), landed);
  const Result<DeltaResult> again = store.ComputeDelta(landed);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().unchanged, 3u);
}

TEST(SnapshotStoreTest, LandingsSpanManyChunksAndCopyDeeply) {
  SnapshotStore store("snap", TestSchema(), {0});
  std::vector<Row> rows;
  for (int64_t id = 0; id < 1000; ++id) {
    rows.push_back(MakeRow(id % 700, "p" + std::to_string(id), id));
  }
  Result<Landing> landing = store.MakeLanding(rows);
  ASSERT_TRUE(landing.ok()) << landing.status();
  ASSERT_EQ(landing.value().size(), 700u);
  const Landing copy = landing.value();
  for (int64_t id = 0; id < 700; ++id) {
    const Row& last = rows[static_cast<size_t>(id < 300 ? id + 700 : id)];
    const size_t pos = copy.Find(last, last.HashColumns({0}));
    ASSERT_NE(pos, Landing::kNone) << id;
    EXPECT_EQ(Row(std::vector<Value>(copy.row(pos), copy.row(pos) + 3)), last);
  }
  ASSERT_TRUE(store.Commit(std::move(landing.value())).ok());
  EXPECT_EQ(store.Rows(), copy.Rows());
}

TEST(SnapshotStoreTest, AbsorbAppendsADisjointPartInOrder) {
  // Two partitions' parts of one landing under a hash on the key: each
  // keeps its keys' last rows, and the second part's rows follow the
  // first's.
  SnapshotStore store("snap", TestSchema(), {0});
  Result<DeltaResult> first = store.ComputeDelta(
      {MakeRow(2, "old", 2), MakeRow(4, "p0", 4), MakeRow(2, "p0", 2)});
  Result<DeltaResult> second =
      store.ComputeDelta({MakeRow(3, "p1", 3), MakeRow(1, "p1", 1)});
  ASSERT_TRUE(first.ok() && second.ok());
  Landing folded = std::move(first.value().landing);
  ASSERT_TRUE(folded.Absorb(std::move(second.value().landing)).ok());
  EXPECT_EQ(folded.Rows(),
            (std::vector<Row>{MakeRow(2, "p0", 2), MakeRow(4, "p0", 4),
                              MakeRow(3, "p1", 3), MakeRow(1, "p1", 1)}));
  // The appended rows are indexed.
  const std::vector<Row> rows = folded.Rows();
  for (size_t pos = 0; pos < rows.size(); ++pos) {
    EXPECT_EQ(folded.Find(rows[pos], rows[pos].HashColumns({0})), pos);
  }
}

TEST(SnapshotStoreTest, AbsorbRefusesAKeyBothPartsHold) {
  SnapshotStore store("snap", TestSchema(), {0});
  Landing folded =
      store.MakeLanding({MakeRow(1, "p0", 1), MakeRow(2, "p0", 2)}).value();
  EXPECT_FALSE(
      folded.Absorb(store.MakeLanding({MakeRow(2, "p1", 2)}).value()).ok());
}

TEST(SnapshotStoreTest, AbsorbRefusesAPartOfAnotherShape) {
  SnapshotStore store("snap", TestSchema(), {0});
  Landing folded = store.MakeLanding({MakeRow(1, "a", 1)}).value();
  SnapshotStore other("other", TestSchema(), {1});
  EXPECT_FALSE(folded.Absorb(other.MakeLanding({}).value()).ok());
  EXPECT_FALSE(other.Commit(std::move(folded)).ok());
}

TEST(SnapshotStoreTest, RowsOfTheWrongWidthError) {
  SnapshotStore store("snap", TestSchema(), {0});
  EXPECT_FALSE(
      store.ComputeDelta({Row({Value::Int64(1), Value::String("a")})}).ok());
  EXPECT_FALSE(store.Commit({Row({Value::Int64(1)})}).ok());
}

}  // namespace
}  // namespace qox
