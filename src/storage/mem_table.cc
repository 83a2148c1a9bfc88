#include "storage/mem_table.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

namespace qox {

Result<size_t> MemTable::NumRows() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return rows_.size();
}

Status MemTable::Scan(size_t batch_size, const FanOut& fan_out,
                      const Consumer& consumer) const {
  if (batch_size == 0) return Status::Invalid("batch_size must be > 0");
  // Copy under the lock, hand over outside it, so a slow consumer does not
  // block writers. ETL scans read a landed snapshot, so this matches the
  // semantics the flows need. The copies are ours alone, so the consumer
  // may move their rows out.
  const SchemaPtr schema = MakeSchemaPtr(schema_);
  std::vector<RowBatch> batches;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const size_t rows = rows_.size();
    batches.resize((rows + batch_size - 1) / batch_size);
    fan_out(batches.size(), [&](size_t i) {
      const auto first = rows_.begin() + static_cast<std::ptrdiff_t>(
                                             i * batch_size);
      const auto last = rows_.begin() + static_cast<std::ptrdiff_t>(std::min(
                                            rows, (i + 1) * batch_size));
      batches[i] = RowBatch(schema, std::vector<Row>(first, last));
    });
  }
  for (RowBatch& batch : batches) QOX_RETURN_IF_ERROR(consumer(batch));
  return Status::OK();
}

Status MemTable::Append(const RowBatch& batch) {
  QOX_RETURN_IF_ERROR(CheckSchema(batch));
  std::lock_guard<std::shared_mutex> lock(mu_);
  rows_.insert(rows_.end(), batch.rows().begin(), batch.rows().end());
  mutations_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status MemTable::Append(RowBatch&& batch) {
  QOX_RETURN_IF_ERROR(CheckSchema(batch));
  std::lock_guard<std::shared_mutex> lock(mu_);
  rows_.insert(rows_.end(), std::make_move_iterator(batch.rows().begin()),
               std::make_move_iterator(batch.rows().end()));
  mutations_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status MemTable::CheckSchema(const RowBatch& batch) const {
  if (batch.schema() == schema_) return Status::OK();
  return Status::Invalid("append to '" + name_ + "': schema mismatch (" +
                         batch.schema().ToString() + " vs " +
                         schema_.ToString() + ")");
}

Status MemTable::Truncate() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  rows_.clear();
  mutations_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::string MemTable::ContentVersion() const {
  return "mem:" + std::to_string(instance_id_) + ":" +
         std::to_string(mutations_.load(std::memory_order_relaxed));
}

std::atomic<uint64_t> MemTable::next_instance_id_{1};

}  // namespace qox
