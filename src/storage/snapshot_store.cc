#include "storage/snapshot_store.h"

#include <algorithm>

namespace qox {

namespace {

/// True when the key cells of `a` and `b` compare equal.
bool SameKey(const std::vector<size_t>& key_columns, const Value* a,
             const Value* b) {
  for (const size_t c : key_columns) {
    if (a[c].Compare(b[c]) != 0) return false;
  }
  return true;
}

/// True when all `width` cells of `a` and `b` compare equal.
bool SameCells(size_t width, const Value* a, const Value* b) {
  for (size_t c = 0; c < width; ++c) {
    if (a[c].Compare(b[c]) != 0) return false;
  }
  return true;
}

}  // namespace

Landing::Landing(size_t width, std::vector<size_t> key_columns)
    : width_(width), key_columns_(std::move(key_columns)) {}

std::vector<Row> Landing::Rows() const {
  std::vector<Row> rows;
  rows.reserve(size());
  for (size_t pos = 0; pos < size(); ++pos) {
    const Value* cells = row(pos);
    rows.emplace_back(std::vector<Value>(cells, cells + width_));
  }
  return rows;
}

size_t Landing::Find(const Row& row, size_t hash) const {
  const Value* key = row.values().data();
  return index_.Find(hash, [&](size_t pos) {
    return SameKey(key_columns_, this->row(pos), key);
  });
}

void Landing::Reserve(size_t rows) {
  index_.Reserve(rows);
  chunks_.reserve((rows + kChunkRows - 1) / kChunkRows);
}

size_t Landing::Add(size_t hash) {
  const size_t pos = index_.Add(hash);
  if (pos % kChunkRows == 0) {
    chunks_.emplace_back(kChunkRows * width_);
  }
  return pos;
}

Status Landing::Absorb(Landing part) {
  if (part.width_ != width_ || part.key_columns_ != key_columns_) {
    return Status::Invalid("landing parts of different shapes");
  }
  Reserve(size() + part.size());
  for (size_t q = 0; q < part.size(); ++q) {
    Value* cells = part.mutable_row(q);
    const size_t hash = part.index_.hash(q);
    if (index_.Find(hash, [&](size_t p) {
          return SameKey(key_columns_, row(p), cells);
        }) != kNone) {
      return Status::Invalid("landing parts share a key");
    }
    std::move(cells, cells + width_, mutable_row(Add(hash)));
  }
  return Status::OK();
}

SnapshotStore::SnapshotStore(std::string name, Schema schema,
                             std::vector<size_t> key_columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(std::move(key_columns)),
      snapshot_(EmptyLanding()) {
  for (const size_t c : key_columns_) min_width_ = std::max(min_width_, c + 1);
}

Status SnapshotStore::CheckRow(const Row& row) const {
  if (row.num_values() < min_width_) {
    return Status::Invalid(
        "key column index " + std::to_string(min_width_ - 1) +
        " out of range for row with " + std::to_string(row.num_values()) +
        " values");
  }
  if (row.num_values() != schema_.num_fields()) {
    return Status::Invalid("snapshot '" + name_ + "' expects rows of " +
                           std::to_string(schema_.num_fields()) +
                           " values, got " +
                           std::to_string(row.num_values()));
  }
  return Status::OK();
}

Result<DeltaResult> SnapshotStore::ComputeDelta(std::vector<Row> fresh) const {
  DeltaResult result;
  Landing& landing = result.landing;
  landing = EmptyLanding();
  landing.Reserve(fresh.size());
  // De-duplicate by key: landing position p stands for the p-th distinct
  // key, and last[p] is the index in `fresh` of its last occurrence. The
  // cells are filled once the rows are classified.
  std::vector<size_t> last;
  last.reserve(fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    QOX_RETURN_IF_ERROR(CheckRow(fresh[i]));
    const size_t hash = fresh[i].HashColumns(key_columns_);
    const Value* key = fresh[i].values().data();
    const size_t pos = landing.index_.Find(hash, [&](size_t p) {
      return SameKey(key_columns_, fresh[last[p]].values().data(), key);
    });
    if (pos == Landing::kNone) {
      landing.Add(hash);
      last.push_back(i);
    } else {
      last[pos] = i;
    }
  }
  enum : uint8_t { kInsert, kUpdate, kUnchanged };
  std::vector<uint8_t> kind(landing.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t p = 0; p < landing.size(); ++p) {
      const Row& row = fresh[last[p]];
      const size_t at = snapshot_.Find(row, landing.index_.hash(p));
      kind[p] = at == Landing::kNone ? kInsert
                : SameCells(row.num_values(), snapshot_.row(at),
                            row.values().data())
                    ? kUnchanged
                    : kUpdate;
    }
  }
  const size_t width = schema_.num_fields();
  for (size_t p = 0; p < landing.size(); ++p) {
    Row& row = fresh[last[p]];
    Value* cells = landing.mutable_row(p);
    if (kind[p] == kUnchanged) {
      for (size_t c = 0; c < width; ++c) cells[c] = std::move(row.value(c));
      ++result.unchanged;
      continue;
    }
    std::copy(row.values().begin(), row.values().end(), cells);
    (kind[p] == kInsert ? result.inserts : result.updates)
        .push_back(std::move(row));
  }
  return result;
}

Result<Landing> SnapshotStore::MakeLanding(std::vector<Row> rows) const {
  Landing landing = EmptyLanding();
  landing.Reserve(rows.size());
  for (Row& row : rows) {
    QOX_RETURN_IF_ERROR(CheckRow(row));
    const size_t hash = row.HashColumns(key_columns_);
    size_t pos = landing.Find(row, hash);
    if (pos == Landing::kNone) pos = landing.Add(hash);
    Value* cells = landing.mutable_row(pos);
    for (size_t c = 0; c < row.num_values(); ++c) {
      cells[c] = std::move(row.value(c));
    }
  }
  return landing;
}

Status SnapshotStore::Commit(Landing landing) {
  if (landing.width() != schema_.num_fields() ||
      landing.key_columns() != key_columns_) {
    return Status::Invalid("landing does not match snapshot '" + name_ + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::swap(snapshot_, landing);
  return Status::OK();
}

Status SnapshotStore::Commit(std::vector<Row> rows) {
  QOX_ASSIGN_OR_RETURN(Landing landing, MakeLanding(std::move(rows)));
  return Commit(std::move(landing));
}

size_t SnapshotStore::snapshot_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_.size();
}

std::vector<Row> SnapshotStore::Rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_.Rows();
}

Status SnapshotStore::Clear() { return Commit(EmptyLanding()); }

}  // namespace qox
