// RecoveryPointStore: durable storage for recovery points (the paper's SP1,
// SP2 of Fig. 3 and the RP configurations of Figs. 5–8).
//
// A recovery point is a persistent copy of the rows that have crossed a
// given position in the flow, written to a real file so its I/O cost is
// genuine. On failure, the executor resumes from the most recent complete
// recovery point instead of restarting the flow from scratch.
//
// The data file `<flow>.<point>.rp.csv` holds one tagged CSV record per
// row (storage/record_io.h), so a cell holding a newline stays in its
// record and an empty string or a boxed cell reads back as written. Its
// `.commit` marker holds the row count and a checksum chained over the
// records (`<rows> <checksum>`).

#ifndef QOX_STORAGE_RECOVERY_STORE_H_
#define QOX_STORAGE_RECOVERY_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/status.h"

namespace qox {

/// Identifies one recovery point within one flow run.
struct RecoveryPointId {
  std::string flow_id;   ///< e.g. "sales_bottom_flow"
  std::string point_id;  ///< e.g. "SP1" — position in the flow

  bool operator==(const RecoveryPointId& other) const {
    return flow_id == other.flow_id && point_id == other.point_id;
  }
};

/// Saved state plus bookkeeping.
struct RecoveryPointInfo {
  RecoveryPointId id;
  size_t num_rows = 0;
  size_t bytes = 0;
  /// FNV-1a 64 content checksum over the serialized row bytes; written to
  /// the commit marker and verified on Load.
  uint64_t checksum = 0;
  bool complete = false;  ///< set only after all rows + commit marker landed
};

class RecoveryPointStore {
 public:
  /// `dir` is created if absent; existing recovery files in it are ignored
  /// until re-registered (a fresh store starts logically empty).
  static Result<std::shared_ptr<RecoveryPointStore>> Open(std::string dir);

  /// Durably saves `rows`, rows of `schema`, as recovery point `id`,
  /// replacing any previous save. The point becomes visible/complete only
  /// after the data file and commit marker (row count + content checksum)
  /// are fully written, so a crash mid-save leaves the previous state
  /// recoverable.
  Status Save(const RecoveryPointId& id, const Schema& schema,
              const std::vector<Row>& rows);

  /// True if a complete recovery point exists.
  bool Has(const RecoveryPointId& id) const;

  /// Re-registers a point persisted by an earlier process incarnation by
  /// reading its on-disk commit marker (a fresh store starts logically
  /// empty, so cross-process resume must adopt explicitly). Returns true
  /// when the point was adopted. A missing, zero-length, truncated, or
  /// unparseable marker — what a crash between the data rename and the
  /// marker seal leaves behind — is treated exactly like a checksum
  /// mismatch: the point is simply not adopted (false), so resume falls
  /// back to an older point instead of erroring. A marker that lies about
  /// the data bytes is still caught by Load's checksum verification.
  Result<bool> Adopt(const RecoveryPointId& id);

  /// Loads a complete recovery point. NotFound if absent or incomplete;
  /// kCorruptedData if the on-disk bytes no longer match the checksum
  /// sealed into the commit marker (bit rot, torn overwrite, tampering) —
  /// the caller must fall back to an older point or recompute.
  Result<RowBatch> Load(const RecoveryPointId& id, const Schema& schema) const;

  /// Drops one recovery point (e.g., after the flow commits downstream).
  Status Drop(const RecoveryPointId& id);

  /// Drops every recovery point of a flow (after a successful run).
  Status DropFlow(const std::string& flow_id);

  /// Info for all currently complete points (diagnostics/tests).
  std::vector<RecoveryPointInfo> List() const;

  /// Total bytes ever written through Save (I/O accounting for Fig. 5).
  size_t total_bytes_written() const { return total_bytes_written_.load(); }

  const std::string& dir() const { return dir_; }

 private:
  explicit RecoveryPointStore(std::string dir) : dir_(std::move(dir)) {}

  std::string DataPath(const RecoveryPointId& id) const;
  std::string MarkerPath(const RecoveryPointId& id) const;

  const std::string dir_;
  mutable std::mutex mu_;
  // key = flow_id + '\0' + point_id
  std::unordered_map<std::string, RecoveryPointInfo> points_;
  std::atomic<size_t> total_bytes_written_{0};
};

using RecoveryPointStorePtr = std::shared_ptr<RecoveryPointStore>;

}  // namespace qox

#endif  // QOX_STORAGE_RECOVERY_STORE_H_
