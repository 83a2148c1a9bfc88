// DataStore: the abstract source/target of ETL flows.
//
// The paper's workflow (Fig. 3) reads from relational tables (S1), file
// dumps (S2), and a streaming web source (S3), lands data in a staging area,
// and loads warehouse tables (DW1..DW3). All of these are DataStores here:
// an ordered collection of rows with a fixed schema that can be scanned in
// batches and appended to.

#ifndef QOX_STORAGE_DATA_STORE_H_
#define QOX_STORAGE_DATA_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"

namespace qox {

class DataStore {
 public:
  virtual ~DataStore() = default;

  /// Stable identifier of this store ("SALES_TRAN", "DW1", ...).
  virtual const std::string& name() const = 0;

  virtual const Schema& schema() const = 0;

  /// Number of rows currently stored.
  virtual Result<size_t> NumRows() const = 0;

  /// Runs `fn(0) .. fn(n-1)`, possibly in parallel, and returns when every
  /// call has finished. The engine supplies one that runs the calls as CPU
  /// tasks of the flow's worker pool; SerialFanOut runs them in order here.
  using FanOut =
      std::function<void(size_t n, const std::function<void(size_t)>& fn)>;
  using Consumer = std::function<Status(RowBatch&)>;

  static const FanOut& SerialFanOut();

  /// Streams the contents in batches of at most `batch_size` rows to the
  /// consumer, in store order, on the calling thread. The consumer may
  /// return a non-OK status to abort the scan (propagated to the caller).
  /// Each batch is handed over mutably: the consumer may move rows out of
  /// it (the store never re-reads a batch after the consumer returns),
  /// which keeps the extract path copy-free. The store may decode or copy
  /// a bounded window of batches ahead through `fan_out`; the batches, and
  /// the first error, are those of a serial scan.
  virtual Status Scan(size_t batch_size, const FanOut& fan_out,
                      const Consumer& consumer) const = 0;

  /// The serial scan: Scan through SerialFanOut.
  Status Scan(size_t batch_size, const Consumer& consumer) const {
    return Scan(batch_size, SerialFanOut(), consumer);
  }

  /// Appends a batch. The batch schema must equal the store schema.
  virtual Status Append(const RowBatch& batch) = 0;

  /// Appends a batch the caller gives up: a store may move its rows in.
  /// When the append fails, the rows the store did not land are still in
  /// the batch, where they were. The default copies, through the `const&`
  /// overload.
  virtual Status Append(RowBatch&& batch) {
    return Append(static_cast<const RowBatch&>(batch));
  }

  /// Removes all rows.
  virtual Status Truncate() = 0;

  /// Identity of the store's current contents, for cross-flow sharing of
  /// lookup builds (engine/dimension_cache.h): stable while the contents
  /// are unchanged, different after any mutation, and unique across store
  /// instances within the process. The empty default marks the store
  /// uncacheable (every flow builds its own lookup table, the seed
  /// behaviour).
  virtual std::string ContentVersion() const { return ""; }

  /// Convenience: reads the whole store into a single batch.
  Result<RowBatch> ReadAll() const;
};

using DataStorePtr = std::shared_ptr<DataStore>;

}  // namespace qox

#endif  // QOX_STORAGE_DATA_STORE_H_
