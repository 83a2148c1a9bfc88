// CdcSource invariants the sharded ingestion mode leans on: the stream is
// a pure function of its spec (any process can re-derive any window),
// versions are globally unique and per-key monotone, and the hash shard
// views partition every offset window exactly.

#include "storage/cdc_source.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

namespace qox {
namespace {

CdcStreamSpec SmallSpec() {
  CdcStreamSpec spec;
  spec.seed = 7;
  spec.num_keys = 16;
  spec.total_events = 200;
  return spec;
}

TEST(CdcSourceTest, StreamIsDeterministicAcrossInstances) {
  const CdcSource a(SmallSpec());
  const CdcSource b(SmallSpec());
  for (size_t i = 0; i < SmallSpec().total_events; ++i) {
    EXPECT_EQ(a.EventAt(i), b.EventAt(i)) << "offset " << i;
  }
  EXPECT_EQ(a.ContentVersion(), b.ContentVersion());

  // A different seed is a different stream (and says so).
  CdcStreamSpec other = SmallSpec();
  other.seed = 8;
  const CdcSource c(other);
  EXPECT_NE(a.ContentVersion(), c.ContentVersion());
  bool any_diff = false;
  for (size_t i = 0; i < 16 && !any_diff; ++i) {
    any_diff = !(a.EventAt(i) == c.EventAt(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(CdcSourceTest, VersionsAreGlobalAndPerKeyMonotone) {
  const CdcSource source(SmallSpec());
  const Schema schema = CdcSchema();
  const size_t key_idx = schema.FieldIndex("key").value();
  const size_t ver_idx = schema.FieldIndex("version").value();
  std::map<int64_t, int64_t> last_version;
  std::set<int64_t> seen_versions;
  for (size_t i = 0; i < SmallSpec().total_events; ++i) {
    const Row event = source.EventAt(i);
    const int64_t key = event.value(key_idx).int64_value();
    const int64_t version = event.value(ver_idx).int64_value();
    EXPECT_EQ(version, static_cast<int64_t>(i) + 1);
    EXPECT_TRUE(seen_versions.insert(version).second);
    const auto it = last_version.find(key);
    if (it != last_version.end()) {
      EXPECT_GT(version, it->second);
    }
    last_version[key] = version;
    EXPECT_GE(key, 0);
    EXPECT_LT(key, static_cast<int64_t>(SmallSpec().num_keys));
  }
}

TEST(CdcSourceTest, NullFractionAndScanMatchEventAt) {
  const CdcSource source(SmallSpec());
  const size_t amount_idx = CdcSchema().FieldIndex("amount").value();
  size_t nulls = 0;
  std::vector<Row> direct;
  for (size_t i = 0; i < SmallSpec().total_events; ++i) {
    direct.push_back(source.EventAt(i));
    if (direct.back().value(amount_idx).is_null()) ++nulls;
  }
  // ~12.5% of 200 events; generous bounds, but zero or all would mean the
  // null draw is broken.
  EXPECT_GT(nulls, 5u);
  EXPECT_LT(nulls, 80u);

  std::vector<Row> scanned;
  ASSERT_TRUE(source
                  .Scan(32,
                        [&scanned](RowBatch& batch) {
                          for (const Row& row : batch.rows()) {
                            scanned.push_back(row);
                          }
                          return Status::OK();
                        })
                  .ok());
  EXPECT_EQ(scanned, direct);
  EXPECT_EQ(source.NumRows().value(), SmallSpec().total_events);
}

TEST(CdcSourceTest, SourceIsReadOnly) {
  CdcSource source(SmallSpec());
  RowBatch batch(CdcSchema());
  EXPECT_FALSE(source.Append(batch).ok());
  EXPECT_FALSE(source.Truncate().ok());
}

TEST(CdcSourceTest, ShardViewsPartitionEveryWindowExactly) {
  const auto source = std::make_shared<const CdcSource>(SmallSpec());
  const size_t key_idx = CdcSchema().FieldIndex("key").value();
  const size_t shards = 3;
  const size_t begin = 40;
  const size_t end = 140;

  size_t covered = 0;
  for (size_t s = 0; s < shards; ++s) {
    CdcShardView view(source, s, shards, begin, end);
    std::vector<Row> rows;
    ASSERT_TRUE(view.Scan(16,
                          [&rows](RowBatch& batch) {
                            for (const Row& row : batch.rows()) {
                              rows.push_back(row);
                            }
                            return Status::OK();
                          })
                    .ok());
    EXPECT_EQ(rows.size(), view.NumRows().value());
    covered += rows.size();
    // Every row the view yields is owned by its shard: whole key
    // histories live on one worker.
    for (const Row& row : rows) {
      EXPECT_EQ(CdcShardOf(row.value(key_idx).int64_value(), shards), s);
    }
  }
  EXPECT_EQ(covered, end - begin);  // disjoint and complete

  // Shard assignment is stable: same key, same shard, every call.
  for (int64_t key = 0; key < 16; ++key) {
    EXPECT_EQ(CdcShardOf(key, shards), CdcShardOf(key, shards));
    EXPECT_LT(CdcShardOf(key, shards), shards);
  }
  // A mixed hash should not degenerate to one shard over these keys.
  std::set<size_t> used;
  for (int64_t key = 0; key < 16; ++key) used.insert(CdcShardOf(key, shards));
  EXPECT_GT(used.size(), 1u);
}

}  // namespace
}  // namespace qox
