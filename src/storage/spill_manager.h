// SpillManager: checksummed, crash-safe spill files for memory-bounded
// operators.
//
// When a blocking operator's working set is refused by the flow's
// MemoryBudget, it writes the overflow to a spill run under this manager
// instead of growing. A spill run is a line file of the record codec
// (storage/record_io.h), sealed like the flow journal's records: every
// record carries an FNV-1a checksum verified on read-back, and the reader
// checks that the run holds exactly the rows its writer counted. Writes go
// to a `.spill.tmp` file that is fsync'd and atomically renamed to
// `.spill` at finalize, so a reader only ever sees complete runs and a
// SIGKILL mid-spill leaves at most a `.spill.tmp` orphan. Orphans cannot
// corrupt results — spill runs are strictly intra-attempt temporaries —
// but they can leak disk, so the manager supports RemoveAll() at attempt
// end and CleanupDir() on supervised restart (the flow journal records the
// spill directory so a successor process knows where a dead incarnation
// spilled).
//
// Record format, one sealed CSV record per row:  payload,checksum  where
// payload is the row as a tagged record of the run's schema (record_io.h:
// a cell holding a newline is quoted and stays in its record, and an empty
// string or a boxed cell reads back as written) and checksum is the FNV-1a
// 64 hash of the payload, in decimal.

#ifndef QOX_STORAGE_SPILL_MANAGER_H_
#define QOX_STORAGE_SPILL_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "storage/record_io.h"

namespace qox {

class SpillManager;

/// A finalized (durable, immutable) spill run.
struct SpillFile {
  std::string path;
  Schema schema;
  size_t rows = 0;
  size_t bytes = 0;
};

/// Streams a finalized run back in write order, verifying every record's
/// checksum. kCorruptedData on the first record that fails it, and when
/// the run ends before or after `SpillFile::rows` records.
class SpillReader {
 public:
  explicit SpillReader(const SpillFile& file);

  /// The next row, std::nullopt at end of run.
  Result<std::optional<Row>> Next();

 private:
  // A sort merge holds one reader per run open at once, so each reads in
  // small blocks.
  static constexpr size_t kReadBlockBytes = size_t{8} << 10;

  const SpillFile file_;
  RecordReader reader_;
  size_t rows_read_ = 0;
  // Reused across Next() calls: one record buffer, one decoded cell vector.
  std::string record_;
  std::vector<std::string> cells_;
};

/// Accumulates one spill run. Append buffers rows and flushes to the
/// `.spill.tmp` file in large writes; Finalize flushes, fsyncs, and
/// atomically renames the run into place. A writer dropped without
/// Finalize leaves only the tmp file (removed by RemoveAll/CleanupDir).
class SpillWriter {
 public:
  ~SpillWriter();
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  Status Append(const Row& row);
  Result<SpillFile> Finalize();

  size_t rows() const { return rows_; }

 private:
  friend class SpillManager;
  SpillWriter(SpillManager* manager, std::string final_path, Schema schema);

  Status Flush();

  SpillManager* const manager_;
  const std::string final_path_;
  const std::string tmp_path_;
  const Schema schema_;
  int fd_ = -1;
  std::string payload_;  // the row being sealed, reused across Append calls
  std::string buffer_;
  size_t rows_ = 0;
  size_t bytes_ = 0;
  bool finalized_ = false;
};

/// One manager per flow instance; hands out uniquely named runs under its
/// directory and tracks them for cleanup. Thread-safe: partition branches
/// and streaming stages spill concurrently.
class SpillManager {
 public:
  explicit SpillManager(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Installs a fault hook invoked before every physical spill write and
  /// finalize — the injection point for disk-pressure chaos (ENOSPC on
  /// the spill path). A non-OK return aborts the write with that status.
  void SetWriteFault(std::function<Status()> hook) {
    write_fault_ = std::move(hook);
  }

  /// Opens a new run named after `tag` (made unique by a counter). Creates
  /// the spill directory on first use.
  Result<std::unique_ptr<SpillWriter>> CreateRun(const std::string& tag,
                                                 const Schema& schema);

  /// Deletes every file this manager created (finalized and tmp). Called
  /// at attempt end — spill runs never outlive the attempt that wrote
  /// them.
  Status RemoveAll();

  /// Deletes every `.spill` / `.spill.tmp` under `dir` (a dead
  /// incarnation's leftovers, located via the flow journal's spill_dir
  /// record). Missing directory is not an error. Returns files removed.
  static Result<size_t> CleanupDir(const std::string& dir);

  // --- spill accounting (RunMetrics / bench) -------------------------------
  size_t runs_created() const { return runs_.load(); }
  size_t rows_spilled() const { return spilled_rows_.load(); }
  size_t bytes_spilled() const { return spilled_bytes_.load(); }

 private:
  friend class SpillWriter;

  Status CheckWriteFault() const {
    if (write_fault_) return write_fault_();
    return Status::OK();
  }
  void Account(size_t rows, size_t bytes) {
    spilled_rows_.fetch_add(rows);
    spilled_bytes_.fetch_add(bytes);
  }
  void Register(const std::string& path);
  void Rename(const std::string& from, const std::string& to);

  const std::string dir_;
  std::function<Status()> write_fault_;
  std::mutex mu_;  // guards files_ and dir creation
  bool dir_created_ = false;
  std::vector<std::string> files_;
  std::atomic<size_t> next_id_{0};
  std::atomic<size_t> runs_{0};
  std::atomic<size_t> spilled_rows_{0};
  std::atomic<size_t> spilled_bytes_{0};
};

}  // namespace qox

#endif  // QOX_STORAGE_SPILL_MANAGER_H_
