// KeyIndex: the engine's one index of rows by key — the Δ's landings
// (storage/snapshot_store.h), the lookup's dimension tables
// (engine/dimension_cache.h) and the group table (engine/ops/group_op.h)
// all find a row by its key through it.
//
// The index holds positions, not keys. Its owner keeps its rows at
// positions 0..size()-1, in the order they were added, and decides what
// key equality means: Find takes the probe's hash and a predicate
// `same(pos)` that compares the probe's key with the key of the row at
// `pos`. The index keeps the hash of every position and a slot array of
// uint32 positions, at most half full; a hash picks its first slot by its
// top bits after a Fibonacci multiply, and a probe walks on slot by slot.
// An Add that would fill more than half the slots first grows the array
// fourfold and re-inserts every position from its stored hash.

#ifndef QOX_COMMON_KEY_INDEX_H_
#define QOX_COMMON_KEY_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qox {

class KeyIndex {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Positions indexed: 0..size()-1.
  size_t size() const { return hashes_.size(); }

  /// The hash position `pos` was added under.
  size_t hash(size_t pos) const { return hashes_[pos]; }

  /// The position added under `hash` for which `same(pos)` holds, or kNone.
  template <typename Same>
  size_t Find(size_t hash, Same same) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return kNone;
      const size_t pos = slot - 1;
      if (hashes_[pos] == hash && same(pos)) return pos;
    }
  }

  /// Indexes position size() under `hash` and returns it. The caller has
  /// found (by Find) that no position holds an equal key.
  size_t Add(size_t hash) {
    const size_t pos = hashes_.size();
    if (2 * (pos + 1) > slots_.size()) Reserve(2 * (pos + 1));
    hashes_.push_back(hash);
    Place(pos);
    return pos;
  }

  /// Makes room for `n` positions in all, so that adding up to `n` causes
  /// no rehash.
  void Reserve(size_t n) {
    const size_t slots = SlotsFor(n);
    if (slots > slots_.size()) Rehash(slots);
  }

  /// The heap bytes the index is sized for: its slots, and a hash for
  /// every position it has room for (half the slots).
  size_t ByteSize() const { return slots_.size() * kSlotBytes; }

  /// What ByteSize() grows by on the next Add (0 unless it rehashes).
  size_t AddBytes() const {
    const size_t n = 2 * (size() + 1);
    return n > slots_.size() ? (SlotsFor(n) - slots_.size()) * kSlotBytes : 0;
  }

  /// ByteSize() of an empty index after Reserve(n).
  static size_t BytesFor(size_t n) { return SlotsFor(n) * kSlotBytes; }

 private:
  static constexpr size_t kSlotBytes = sizeof(uint32_t) + sizeof(size_t) / 2;

  static size_t SlotsFor(size_t n) {
    return std::bit_ceil(std::max<size_t>(16, 2 * n));
  }

  size_t Home(size_t hash) const {
    return (hash * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  /// Puts position `pos` into the first free slot from its hash's home.
  void Place(size_t pos) {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(hashes_[pos]);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(pos + 1);
  }

  /// Rebuilds the slot array with `slots` slots (a power of two).
  void Rehash(size_t slots) {
    slots_.assign(slots, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    hashes_.reserve(slots / 2);
    for (size_t pos = 0; pos < hashes_.size(); ++pos) Place(pos);
  }

  /// The hash of the row at each position.
  std::vector<size_t> hashes_;
  /// Position + 1 per slot (0 = free).
  std::vector<uint32_t> slots_;
  unsigned shift_ = 64;
};

}  // namespace qox

#endif  // QOX_COMMON_KEY_INDEX_H_
