// KeyIndex: positions are found by hash and the owner's key equality
// across several rehashes, under many equal hashes, and a miss is kNone.

#include "common/key_index.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace qox {
namespace {

/// The position of `key` among `keys` (position i holds keys[i]).
size_t FindKey(const KeyIndex& index, const std::vector<int>& keys, int key,
               size_t hash) {
  return index.Find(hash, [&](size_t pos) { return keys[pos] == key; });
}

size_t Spread(int key) { return std::hash<int>{}(key) * 0x2545f4914f6cdd1dULL; }

TEST(KeyIndexTest, EmptyIndexFindsNothing) {
  const KeyIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.ByteSize(), 0u);
  EXPECT_EQ(index.Find(42, [](size_t) { return true; }), KeyIndex::kNone);
}

TEST(KeyIndexTest, FindsEveryKeyAcrossSeveralRehashes) {
  KeyIndex index;
  std::vector<int> keys;
  size_t rehashes = 0;
  for (int key = 0; key < 5000; ++key) {
    ASSERT_EQ(FindKey(index, keys, key, Spread(key)), KeyIndex::kNone);
    const size_t before = index.ByteSize();
    const size_t growth = index.AddBytes();
    ASSERT_EQ(index.Add(Spread(key)), keys.size());
    keys.push_back(key);
    // AddBytes predicts the growth exactly; only a rehash grows the index.
    EXPECT_EQ(index.ByteSize(), before + growth);
    if (growth > 0) ++rehashes;
  }
  EXPECT_GE(rehashes, 4u);
  ASSERT_EQ(index.size(), keys.size());
  for (int key = 0; key < 5000; ++key) {
    EXPECT_EQ(FindKey(index, keys, key, Spread(key)),
              static_cast<size_t>(key));
    EXPECT_EQ(index.hash(static_cast<size_t>(key)), Spread(key));
  }
  EXPECT_EQ(FindKey(index, keys, 5000, Spread(5000)), KeyIndex::kNone);
  EXPECT_EQ(FindKey(index, keys, -1, Spread(-1)), KeyIndex::kNone);
}

TEST(KeyIndexTest, ForcedEqualHashesAreToldApartByTheKey) {
  // 1200 keys under four hashes: each probe walks a long run of slots, and
  // only the owner's equality tells the keys apart.
  KeyIndex index;
  std::vector<int> keys;
  for (int key = 0; key < 1200; ++key) {
    const size_t hash = static_cast<size_t>(key % 4);
    ASSERT_EQ(FindKey(index, keys, key, hash), KeyIndex::kNone);
    index.Add(hash);
    keys.push_back(key);
  }
  for (int key = 0; key < 1200; ++key) {
    EXPECT_EQ(FindKey(index, keys, key, static_cast<size_t>(key % 4)),
              static_cast<size_t>(key));
    // The right key under the wrong hash is a miss.
    EXPECT_EQ(FindKey(index, keys, key, static_cast<size_t>(key % 4 + 1)),
              KeyIndex::kNone);
  }
  EXPECT_EQ(FindKey(index, keys, 1200, 0), KeyIndex::kNone);
  EXPECT_EQ(index.Find(99, [](size_t) { return true; }), KeyIndex::kNone);
}

TEST(KeyIndexTest, ReserveSizesTheIndexForItsRows) {
  KeyIndex index;
  index.Reserve(1000);
  EXPECT_EQ(index.ByteSize(), KeyIndex::BytesFor(1000));
  for (int key = 0; key < 1000; ++key) {
    ASSERT_EQ(index.AddBytes(), 0u) << key;
    index.Add(Spread(key));
  }
  EXPECT_EQ(index.ByteSize(), KeyIndex::BytesFor(1000));
}

}  // namespace
}  // namespace qox
