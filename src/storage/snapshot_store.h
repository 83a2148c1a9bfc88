// SnapshotStore: previous-landing snapshot used by the Δ (delta)
// transformation of the paper's Fig. 3.
//
// The bottom flow lands source data and compares it "against the previous
// landing (snapshot table) for identifying the changed tuples". The
// SnapshotStore keeps the previous landing keyed by the business key and
// classifies a fresh landing into inserts and updates. The classification
// also returns the fresh landing itself, de-duplicated, and committing
// that landing (after a successful load) makes it the snapshot for the
// next run — so the snapshot advances to exactly the rows the Δ compared,
// without reading the source a second time.
//
// A landing is held as a compact table (Landing): one row per key, the
// rows' cells stored back to back in chunks of kChunkRows rows, and the
// engine's key index (common/key_index.h) of row positions by key hash
// (Row::HashColumns over the key columns; keys compare by Value::Compare).
// Neither a landing nor a commit allocates per row.
//
// The snapshot lives entirely in memory — there are no file writes here,
// so the disk-write audit (checked write/fsync/close returns) that covers
// flat_file / recovery_store / the spill path does not apply.

#ifndef QOX_STORAGE_SNAPSHOT_STORE_H_
#define QOX_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/key_index.h"
#include "common/row.h"
#include "common/status.h"

namespace qox {

/// One landing, keyed: at most one row per key, in the order the keys
/// were first seen.
class Landing {
 public:
  static constexpr size_t kChunkRows = 64;
  static constexpr size_t kNone = KeyIndex::kNone;

  Landing() = default;
  Landing(size_t width, std::vector<size_t> key_columns);

  size_t size() const { return index_.size(); }
  size_t width() const { return width_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// The width() cells of the row at `pos`.
  const Value* row(size_t pos) const {
    return chunks_[pos / kChunkRows].data() + (pos % kChunkRows) * width_;
  }

  /// The rows, copied out, in landing order.
  std::vector<Row> Rows() const;

  /// Position of the row whose key equals `row`'s, where `hash` is
  /// row.HashColumns(key_columns()); kNone when no row has that key.
  size_t Find(const Row& row, size_t hash) const;

  /// Appends `part`, another partition's part of the same Δ's landing
  /// (same width and key columns), moving its rows. The parts of a Δ in a
  /// range hashed on one of its key columns hold disjoint keys; a key both
  /// landings hold fails, leaving this landing partly appended.
  Status Absorb(Landing part);

 private:
  friend class SnapshotStore;

  Value* mutable_row(size_t pos) {
    return chunks_[pos / kChunkRows].data() + (pos % kChunkRows) * width_;
  }
  /// Makes room for `rows` rows in all.
  void Reserve(size_t rows);
  /// Appends a row of NULL cells under `hash` and indexes it; returns its
  /// position.
  size_t Add(size_t hash);

  size_t width_ = 0;
  std::vector<size_t> key_columns_;
  /// kChunkRows rows of width_ cells each.
  std::vector<std::vector<Value>> chunks_;
  /// Row positions by key hash.
  KeyIndex index_;
};

/// Classification of a fresh landing against the previous snapshot.
struct DeltaResult {
  /// Rows whose key was absent from the snapshot.
  std::vector<Row> inserts;
  /// Rows whose key was present but whose non-key columns changed.
  std::vector<Row> updates;
  /// Count of rows identical to the snapshot (dropped by the Δ operator).
  size_t unchanged = 0;
  /// The fresh landing, de-duplicated: what Commit makes the snapshot once
  /// the changes are loaded.
  Landing landing;
};

class SnapshotStore {
 public:
  /// `key_columns` are positional indexes of the business key within the
  /// landed schema.
  SnapshotStore(std::string name, Schema schema,
                std::vector<size_t> key_columns);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Classifies `fresh` against the current snapshot, moving its rows into
  /// the result and its de-duplicated landing into `landing` (a changed
  /// row's cells are copied there, an unchanged row's moved). Duplicate
  /// keys within `fresh` keep the last occurrence's row (standard landing
  /// semantics); inserts and updates each follow the order in which their
  /// keys first appear in `fresh`. Safe to call from several threads at
  /// once.
  Result<DeltaResult> ComputeDelta(std::vector<Row> fresh) const;

  /// The landing of `rows` for this store, moving their cells in.
  /// Duplicate keys keep the last occurrence's row.
  Result<Landing> MakeLanding(std::vector<Row> rows) const;

  /// Makes `landing` — ComputeDelta's or MakeLanding's — the snapshot
  /// (called after a successful load). The previous snapshot is freed
  /// outside the lock.
  Status Commit(Landing landing);
  /// Commits MakeLanding(rows).
  Status Commit(std::vector<Row> rows);

  size_t snapshot_size() const;

  /// A copy of the snapshot's rows, in landing order.
  std::vector<Row> Rows() const;

  Status Clear();

 private:
  /// Fails unless `row` has exactly one cell per schema column and holds
  /// every key column.
  Status CheckRow(const Row& row) const;

  Landing EmptyLanding() const {
    return Landing(schema_.num_fields(), key_columns_);
  }

  const std::string name_;
  const Schema schema_;
  const std::vector<size_t> key_columns_;
  /// One past the largest key column: the narrowest row that can be keyed.
  size_t min_width_ = 0;
  mutable std::mutex mu_;
  Landing snapshot_;
};

using SnapshotStorePtr = std::shared_ptr<SnapshotStore>;

}  // namespace qox

#endif  // QOX_STORAGE_SNAPSHOT_STORE_H_
