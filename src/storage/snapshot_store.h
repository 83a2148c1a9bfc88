// SnapshotStore: previous-landing snapshot used by the Δ (delta)
// transformation of the paper's Fig. 3.
//
// The bottom flow lands source data and compares it "against the previous
// landing (snapshot table) for identifying the changed tuples". The
// SnapshotStore keeps the previous landing keyed by the business key and
// classifies a fresh landing into inserts and updates; committing the fresh
// landing makes it the snapshot for the next run.
//
// Rows are keyed in place: the snapshot is one set of full rows, hashed and
// compared on the key columns only, so neither a landing nor a commit
// builds a separate key row per input row. Both take the landing by value
// and move its rows into their result.
//
// The snapshot lives entirely in memory — there are no file writes here,
// so the disk-write audit (checked write/fsync/close returns) that covers
// flat_file / recovery_store / the spill path does not apply.

#ifndef QOX_STORAGE_SNAPSHOT_STORE_H_
#define QOX_STORAGE_SNAPSHOT_STORE_H_

#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/row.h"
#include "common/status.h"

namespace qox {

/// Classification of a fresh landing against the previous snapshot.
struct DeltaResult {
  /// Rows whose key was absent from the snapshot.
  std::vector<Row> inserts;
  /// Rows whose key was present but whose non-key columns changed.
  std::vector<Row> updates;
  /// Count of rows identical to the snapshot (dropped by the Δ operator).
  size_t unchanged = 0;
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
  /// the result. Duplicate keys within `fresh` keep the last occurrence's
  /// row (standard landing semantics); inserts and updates each follow the
  /// order in which their keys first appear in `fresh`. Safe to call from
  /// several threads at once.
  Result<DeltaResult> ComputeDelta(std::vector<Row> fresh) const;

  /// Replaces the snapshot with `fresh` (called after a successful load),
  /// moving its rows in. Duplicate keys keep the last occurrence's row.
  Status Commit(std::vector<Row> fresh);

  size_t snapshot_size() const;

  Status Clear();

 private:
  /// Hash and equality over the key columns of full rows.
  struct KeyHash {
    const std::vector<size_t>* columns;
    size_t operator()(const Row& row) const {
      return row.HashColumns(*columns);
    }
  };
  struct KeyEqual {
    const std::vector<size_t>* columns;
    bool operator()(const Row& a, const Row& b) const;
  };
  using RowSet = std::unordered_set<Row, KeyHash, KeyEqual>;

  /// An empty set keyed on key_columns_, sized for `rows` rows.
  RowSet MakeSet(size_t rows) const;

  /// Fails when `row` is too narrow to hold every key column.
  Status CheckKeyColumns(const Row& row) const;

  const std::string name_;
  const Schema schema_;
  const std::vector<size_t> key_columns_;
  /// One past the largest key column: the narrowest row that can be keyed.
  size_t min_width_ = 0;
  mutable std::mutex mu_;
  RowSet snapshot_;
};

}  // namespace qox

#endif  // QOX_STORAGE_SNAPSHOT_STORE_H_
