// ThrottledStore: a DataStore decorator modelling a bandwidth-limited
// source channel.
//
// The paper's sources are remote operational systems reached over "network
// channels used between the source sites and the transformation area"
// (Sec. 3.2); extraction time there is dominated by the channel, which is
// why extraction dominates Fig. 4 and why parallelizing it buys nothing.
// ThrottledStore reproduces that: scans deliver no faster than
// `bytes_per_second` (writes are not throttled; targets are local).

#ifndef QOX_STORAGE_THROTTLED_STORE_H_
#define QOX_STORAGE_THROTTLED_STORE_H_

#include <memory>

#include "storage/data_store.h"

namespace qox {

class ThrottledStore : public DataStore {
 public:
  /// Wraps `inner`; scans are paced to `bytes_per_second` of row payload.
  ThrottledStore(DataStorePtr inner, double bytes_per_second)
      : inner_(std::move(inner)), bytes_per_second_(bytes_per_second) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  Result<size_t> NumRows() const override { return inner_->NumRows(); }
  /// Paces each batch the inner scan delivers through `fan_out`.
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override;
  Status Append(const RowBatch& batch) override {
    return inner_->Append(batch);
  }
  Status Append(RowBatch&& batch) override {
    return inner_->Append(std::move(batch));
  }
  Status Truncate() override { return inner_->Truncate(); }

  const DataStorePtr& inner() const { return inner_; }

 private:
  const DataStorePtr inner_;
  const double bytes_per_second_;
};

}  // namespace qox

#endif  // QOX_STORAGE_THROTTLED_STORE_H_
