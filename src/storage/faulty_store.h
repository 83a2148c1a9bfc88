// FaultyStore: a DataStore decorator that injects storage-level I/O faults.
//
// The engine's FailureInjector models system failures striking the
// executor; FaultyStore models the other half of the paper's failure
// taxonomy — faults in the storage layer itself (a dropped connection
// mid-scan, a throttled backend rejecting an append, a torn write that
// persists only a prefix of a batch). Wrapping a source, target, or staging
// store in a FaultyStore exercises the retry/backoff and incremental-load
// machinery end to end without touching the wrapped store's semantics.
//
// Faults are classified through common/status: transient faults surface as
// kUnavailable (retry may succeed), permanent faults as kIoError (the
// executor fails fast). All randomness flows from the explicitly seeded
// Rng, so every fault schedule is reproducible.

#ifndef QOX_STORAGE_FAULTY_STORE_H_
#define QOX_STORAGE_FAULTY_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "common/rng.h"
#include "storage/data_store.h"

namespace qox {

/// Disk-pressure fault classes injectable at the append boundary,
/// modelling how real write paths die. Each maps to the status the
/// corresponding syscall failure would surface:
///   kEnospc     write(2) → ENOSPC      → kResourceExhausted (policy-driven)
///   kEio        write(2) → EIO         → kIoError (permanent)
///   kShortWrite torn page / power cut  → prefix persists + kUnavailable
///   kFsyncFail  fsync(2) error         → kIoError (data loss indeterminate:
///               after a failed fsync the durable state is unknowable, so
///               retrying the append blindly would risk duplication)
enum class DiskFaultKind {
  kNone = 0,
  kEnospc,
  kEio,
  kShortWrite,
  kFsyncFail,
};

const char* DiskFaultKindName(DiskFaultKind kind);

/// When and how the wrapped store misbehaves.
struct FaultPlan {
  /// Probability that any one scanned batch delivery fails (checked before
  /// the batch reaches the consumer).
  double scan_fault_probability = 0.0;
  /// Probability that any one Append call fails.
  double append_fault_probability = 0.0;
  /// Deterministic mode: the Nth Scan call (1-based) fails before
  /// delivering its first batch. 0 disables.
  int scan_fail_on_call = 0;
  /// Deterministic mode: the Nth Append call (1-based) fails. 0 disables.
  int append_fail_on_call = 0;
  /// Permanent faults surface as kIoError (not retryable); transient
  /// faults (the default) as kUnavailable.
  bool permanent = false;
  /// Torn writes: a failing Append durably persists a prefix of the batch
  /// to the inner store before reporting the fault, modelling a partial
  /// write. Callers must re-derive durable progress (e.g. from NumRows())
  /// instead of assuming append atomicity.
  bool torn_writes = false;
  /// Fraction of the failing batch the torn write persists, in [0, 1].
  /// The default persists floor(n/2) rows (the historical behaviour). Any
  /// negative value samples the fraction uniformly per fault from the
  /// store's seeded Rng, so arbitrary durable prefixes are exercised while
  /// staying reproducible.
  double torn_fraction = 0.5;
  /// Disk-pressure fault class for append faults. kNone keeps the
  /// classic permanent/transient behaviour above; any other kind
  /// overrides `permanent`/`torn_writes` with that kind's own semantics
  /// (see DiskFaultKind).
  DiskFaultKind disk_fault = DiskFaultKind::kNone;
};

class FaultyStore : public DataStore {
 public:
  /// Wraps `inner`; fault decisions are drawn from an Rng seeded with
  /// `seed` so schedules are reproducible.
  FaultyStore(DataStorePtr inner, FaultPlan plan, uint64_t seed)
      : inner_(std::move(inner)), plan_(plan), rng_(seed) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  Result<size_t> NumRows() const override { return inner_->NumRows(); }
  /// Forwards `fan_out`; scan faults strike per delivered batch.
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override;
  Status Append(const RowBatch& batch) override;
  /// Moves the rows into the inner store when no fault strikes. A failing
  /// append leaves every row in the batch (a torn prefix lands as a copy).
  Status Append(RowBatch&& batch) override;
  Status Truncate() override { return inner_->Truncate(); }

  const DataStorePtr& inner() const { return inner_; }

  /// Faults injected on the scan / append path so far.
  size_t scan_faults_injected() const { return scan_faults_.load(); }
  size_t append_faults_injected() const { return append_faults_.load(); }

 private:
  Status MakeFault(const std::string& operation) const;
  /// Counts an append call; when it faults, returns the fraction of the
  /// batch a torn write persists.
  std::optional<double> DrawAppendFault();
  /// Lands the torn prefix `batch` persists (if any) and returns the fault.
  Status FailAppend(const RowBatch& batch, double torn_fraction);

  const DataStorePtr inner_;
  const FaultPlan plan_;
  mutable std::mutex mu_;  // guards rng_ and call counters
  mutable Rng rng_;
  mutable int scan_calls_ = 0;
  int append_calls_ = 0;
  mutable std::atomic<size_t> scan_faults_{0};
  std::atomic<size_t> append_faults_{0};
};

}  // namespace qox

#endif  // QOX_STORAGE_FAULTY_STORE_H_
