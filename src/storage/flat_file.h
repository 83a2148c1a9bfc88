// FlatFile: a CSV-file-backed DataStore.
//
// Models the paper's file sources (S2 log-sniffer dumps), landing
// tables/files in the staging area, and the "store first to a flat file,
// later populate a table" practice of Sec. 3.2. Appends perform real disk
// I/O so recovery-point and landing costs measured by the benchmarks are
// genuine.
//
// The file is a header line plus one CSV record per row, in the record
// codec's row encoding (storage/record_io.h). A record continues across
// line breaks inside a quoted cell, and an empty record is a row only in a
// one-column file (a NULL cell). Scan reads back every row Append wrote,
// and NumRows counts exactly the rows Scan returns.

#ifndef QOX_STORAGE_FLAT_FILE_H_
#define QOX_STORAGE_FLAT_FILE_H_

#include <mutex>
#include <string>

#include "storage/data_store.h"

namespace qox {

class FlatFile : public DataStore {
 public:
  /// Creates a store backed by `path`. The file is created (with a header
  /// line) if it does not exist. `sync_every_append` forces an fflush after
  /// every batch, modelling durable landing writes.
  static Result<std::shared_ptr<FlatFile>> Open(std::string name,
                                                Schema schema,
                                                std::string path,
                                                bool sync_every_append = true);

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  const std::string& path() const { return path_; }
  Result<size_t> NumRows() const override;
  Status Scan(size_t batch_size,
              const std::function<Status(RowBatch&)>& consumer) const override;
  Status Append(const RowBatch& batch) override;
  Status Truncate() override;

  /// Total bytes appended through this handle (I/O accounting).
  size_t bytes_written() const;

 private:
  FlatFile(std::string name, Schema schema, std::string path, bool sync)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        path_(std::move(path)),
        sync_every_append_(sync) {}

  Status WriteHeader();

  const std::string name_;
  const Schema schema_;
  const std::string path_;
  const bool sync_every_append_;
  mutable std::mutex mu_;
  size_t bytes_written_ = 0;
};

}  // namespace qox

#endif  // QOX_STORAGE_FLAT_FILE_H_
