#include "storage/data_store.h"

namespace qox {

const DataStore::FanOut& DataStore::SerialFanOut() {
  static const FanOut serial = [](size_t n,
                                  const std::function<void(size_t)>& fn) {
    for (size_t i = 0; i < n; ++i) fn(i);
  };
  return serial;
}

Result<RowBatch> DataStore::ReadAll() const {
  RowBatch all(schema());
  const Status st = Scan(kDefaultBatchSize, [&](RowBatch& batch) {
    for (Row& row : batch.rows()) all.Append(std::move(row));
    return Status::OK();
  });
  if (!st.ok()) return st;
  return all;
}

}  // namespace qox
