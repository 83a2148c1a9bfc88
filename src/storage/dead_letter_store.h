// DeadLetterStore: a checksummed quarantine ledger over any DataStore.
//
// When an operator errors on an individual row under ErrorPolicy::
// kQuarantine, the executor wraps the row with provenance — which plan
// node and operator rejected it, on which instance/attempt, and why — and
// appends it here instead of aborting the flow (the "error table" /
// "reject link" of commercial ETL tools). Each record carries an FNV-1a
// checksum over all of its fields, verified on read like recovery points:
// a quarantine ledger that silently rots would make the later replay
// silently wrong, which is worse than failing loudly.
//
// The payload column holds the failing row CSV-encoded *as it entered the
// failing operator* (all upstream transforms applied), so ReplayQuarantine
// (engine/quarantine.h) can re-run just the suffix of a repaired flow over
// it without re-extracting anything.

#ifndef QOX_STORAGE_DEAD_LETTER_STORE_H_
#define QOX_STORAGE_DEAD_LETTER_STORE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/data_store.h"

namespace qox {

/// One quarantined row plus its provenance.
struct QuarantineRecord {
  std::string flow_id;
  /// ExecutionPlan node id of the failing operator (-1 when unknown).
  int64_t node_id = -1;
  /// Global index of the failing operator in the transform chain.
  int64_t op_index = 0;
  std::string op_name;
  /// Redundant-instance id (0 for non-redundant runs).
  int64_t instance = 0;
  /// 1-based attempt during which the row was quarantined.
  int64_t attempt = 1;
  /// Containment sequence number within the run (diagnostic only; differs
  /// across executors and attempts — cross-mode comparisons must use
  /// CanonicalLedger instead).
  int64_t row_index = 0;
  /// StatusCodeName of the row error ("invalid_argument", "not_found").
  std::string status_code;
  std::string status_message;
  /// The failing row, CSV-encoded against the failing op's input schema.
  std::string payload;
};

/// Schema of the underlying ledger store (one column per QuarantineRecord
/// field plus the trailing int64 checksum).
Schema DeadLetterStoreSchema();

/// CSV-encodes a row for the payload column.
std::string EncodeQuarantinePayload(const Row& row);

/// Decodes a payload back into a row of `schema` (the failing op's input
/// schema). Errors when the arity or any cell fails to parse.
Result<Row> DecodeQuarantinePayload(const std::string& payload,
                                    const Schema& schema);

/// The canonical, mode-independent view of a ledger: one line per distinct
/// (op_index, op_name, status_code, payload), sorted. Attempt, instance and
/// row_index legitimately differ between phased and streaming runs and
/// across retries (a retried attempt re-quarantines the same rows), so
/// ledger equality and replay deduplication are defined over this
/// projection.
std::vector<std::string> CanonicalLedger(
    const std::vector<QuarantineRecord>& records);

/// What a capped ledger does when an incoming record would push it past
/// its byte budget. The quarantine ledger is itself a resource: without a
/// cap, a pathological flow (every row failing) turns row containment into
/// disk exhaustion — the exact failure the quarantine was containing.
enum class DeadLetterOverflowPolicy {
  /// Evict whole oldest attempt-groups (all records sharing the smallest
  /// attempt number) until the new record fits. Keeps the most recent
  /// evidence; a replay over an evicted group is knowingly incomplete.
  kEvictOldest = 0,
  /// Refuse the append with kResourceExhausted. The flow then degrades per
  /// its ResourcePolicy (fail / pause / shed), never the ledger silently.
  kAbort,
};

const char* DeadLetterOverflowPolicyName(DeadLetterOverflowPolicy policy);

/// Byte budget for the ledger. max_bytes == 0 means uncapped.
struct DeadLetterCap {
  size_t max_bytes = 0;
  DeadLetterOverflowPolicy policy = DeadLetterOverflowPolicy::kAbort;
};

class DeadLetterStore {
 public:
  /// Wraps `inner`, which must carry DeadLetterStoreSchema(). Append-path
  /// calls are serialized internally: partition branches and streaming
  /// stages quarantine concurrently.
  static Result<std::shared_ptr<DeadLetterStore>> Wrap(DataStorePtr inner);

  /// Wraps `inner` with a byte cap. Pre-existing ledger contents count
  /// against the cap (sized lazily on the first Quarantine).
  static Result<std::shared_ptr<DeadLetterStore>> Wrap(DataStorePtr inner,
                                                       DeadLetterCap cap);

  /// A fresh in-memory ledger (MemTable-backed), for tests and defaults.
  static std::shared_ptr<DeadLetterStore> InMemory(const std::string& name);

  /// A fresh capped in-memory ledger.
  static std::shared_ptr<DeadLetterStore> InMemory(const std::string& name,
                                                   DeadLetterCap cap);

  /// Checksums and appends one record.
  Status Quarantine(const QuarantineRecord& record);

  /// Reads the whole ledger, verifying every record's checksum. Returns
  /// kCorruptedData naming the first record that fails verification.
  Result<std::vector<QuarantineRecord>> ReadAll() const;

  Result<size_t> NumRecords() const;

  const DataStorePtr& inner() const { return inner_; }

  /// Ledger bytes currently counted against the cap (serialized record
  /// sizes, not on-disk size). 0 until the first capped Quarantine sizes
  /// the pre-existing contents.
  size_t bytes_used() const;

  /// Attempt-groups evicted by DeadLetterOverflowPolicy::kEvictOldest.
  size_t groups_evicted() const;

 private:
  DeadLetterStore(DataStorePtr inner, DeadLetterCap cap)
      : inner_(std::move(inner)), cap_(cap) {}

  /// Frees room for `incoming_bytes` by evicting whole oldest
  /// attempt-groups and rewriting the inner store. Caller holds mu_.
  Status EvictForLocked(size_t incoming_bytes);

  const DataStorePtr inner_;
  const DeadLetterCap cap_;
  mutable std::mutex mu_;
  bool bytes_initialized_ = false;  // guarded by mu_
  size_t bytes_used_ = 0;          // guarded by mu_
  size_t groups_evicted_ = 0;      // guarded by mu_
};

using DeadLetterStorePtr = std::shared_ptr<DeadLetterStore>;

}  // namespace qox

#endif  // QOX_STORAGE_DEAD_LETTER_STORE_H_
