#include "storage/snapshot_store.h"

#include <algorithm>

namespace qox {

SnapshotStore::SnapshotStore(std::string name, Schema schema,
                             std::vector<size_t> key_columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(std::move(key_columns)),
      snapshot_(MakeSet(0)) {
  for (const size_t c : key_columns_) min_width_ = std::max(min_width_, c + 1);
}

bool SnapshotStore::KeyEqual::operator()(const Row& a, const Row& b) const {
  for (const size_t c : *columns) {
    if (a.value(c).Compare(b.value(c)) != 0) return false;
  }
  return true;
}

SnapshotStore::RowSet SnapshotStore::MakeSet(size_t rows) const {
  return RowSet(rows, KeyHash{&key_columns_}, KeyEqual{&key_columns_});
}

Status SnapshotStore::CheckKeyColumns(const Row& row) const {
  if (row.num_values() >= min_width_) return Status::OK();
  return Status::Invalid("key column index " + std::to_string(min_width_ - 1) +
                         " out of range for row with " +
                         std::to_string(row.num_values()) + " values");
}

Result<DeltaResult> SnapshotStore::ComputeDelta(std::vector<Row> fresh) const {
  // De-duplicate in place by key: fresh[0, kept) ends up holding one row
  // per key, in first-seen key order, each slot holding the last
  // occurrence. `slots` indexes those positions by the key of their row.
  const KeyHash hash{&key_columns_};
  const KeyEqual equal{&key_columns_};
  const auto slot_hash = [&](size_t i) { return hash(fresh[i]); };
  const auto slot_equal = [&](size_t a, size_t b) {
    return equal(fresh[a], fresh[b]);
  };
  std::unordered_set<size_t, decltype(slot_hash), decltype(slot_equal)> slots(
      fresh.size(), slot_hash, slot_equal);
  size_t kept = 0;
  for (size_t i = 0; i < fresh.size(); ++i) {
    QOX_RETURN_IF_ERROR(CheckKeyColumns(fresh[i]));
    if (i != kept) fresh[kept] = std::move(fresh[i]);
    const auto [slot, inserted] = slots.insert(kept);
    if (inserted) {
      ++kept;
    } else {
      fresh[*slot] = std::move(fresh[kept]);
    }
  }
  DeltaResult result;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < kept; ++i) {
    Row& row = fresh[i];
    const auto it = snapshot_.find(row);
    if (it == snapshot_.end()) {
      result.inserts.push_back(std::move(row));
    } else if (!(*it == row)) {
      result.updates.push_back(std::move(row));
    } else {
      ++result.unchanged;
    }
  }
  return result;
}

Status SnapshotStore::Commit(std::vector<Row> fresh) {
  RowSet next = MakeSet(fresh.size());
  // Newest first: the last occurrence of a key is the one that lands, and
  // the set ignores the older duplicates after it.
  for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
    QOX_RETURN_IF_ERROR(CheckKeyColumns(*it));
    next.insert(std::move(*it));
  }
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_ = std::move(next);
  return Status::OK();
}

size_t SnapshotStore::snapshot_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_.size();
}

Status SnapshotStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_.clear();
  return Status::OK();
}

}  // namespace qox
