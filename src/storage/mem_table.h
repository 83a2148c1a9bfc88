// MemTable: an in-memory, thread-safe DataStore.
//
// Used for relational sources, the staging area, and warehouse tables in
// tests and benchmarks. Scans share a reader-writer lock and appends take
// it alone, so a scan copies a consistent snapshot at its start. A scan
// holds the lock while its fan-out copies the batches on a pool, so it
// never waits behind another scan (a lookup build on a core worker).

#ifndef QOX_STORAGE_MEM_TABLE_H_
#define QOX_STORAGE_MEM_TABLE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/data_store.h"

namespace qox {

class MemTable : public DataStore {
 public:
  MemTable(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<size_t> NumRows() const override;
  /// Copies the table's batches through `fan_out` under the lock, then
  /// hands them over in order outside it.
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override;
  Status Append(const RowBatch& batch) override;
  /// Moves the batch's rows in; a failed append moves none.
  Status Append(RowBatch&& batch) override;
  Status Truncate() override;
  std::string ContentVersion() const override;

 private:
  Status CheckSchema(const RowBatch& batch) const;

  const std::string name_;
  const Schema schema_;
  /// Process-unique instance id + per-instance mutation counter: versions
  /// never collide across tables that happen to share a name (test
  /// scenarios recreate dimensions freely).
  const uint64_t instance_id_ = next_instance_id_.fetch_add(1);
  std::atomic<uint64_t> mutations_{0};
  static std::atomic<uint64_t> next_instance_id_;
  mutable std::shared_mutex mu_;
  std::vector<Row> rows_;
};

}  // namespace qox

#endif  // QOX_STORAGE_MEM_TABLE_H_
