// DimensionCache: process-wide sharing of immutable lookup builds.
//
// Concurrent flows that probe the same dimension (the paper's L1 store
// dimension feeds both partitioned branches and parallel flows; Liu's
// shared-cache ETL optimization quantifies the win) each used to scan and
// hash the dimension independently at Open(). The cache hash-conses those
// builds: a DimensionTable is an immutable, refcounted flat hash table
// keyed by (store name, content version, key column), built at most once
// per version — concurrent requesters block on the in-flight build instead
// of starting their own (single-flight).
//
// The table itself is a flat open-addressing hash table over raw key bytes
// (common/column_batch.h's probe-key encoding): probing compares a cached
// 64-bit hash then memcmp's the encoded key, with no `Value` boxing on the
// path — the lookup kernel encodes keys straight from column storage
// (boxed key cells through AppendValueKeyBytes). Appended dimension cells
// are copied as they are: one whose runtime type differs from its declared
// type boxes the kernel's output column.
//
// Invariants:
//  - Tables are immutable after Build; sharing needs no further locking.
//  - The cache retains an entry until its version is superseded or the
//    retention cap evicts it; evicted tables stay alive while any acquirer
//    still holds its shared_ptr (refcounted lifetime).
//  - Memory accounting is per-acquirer: each LookupOp charges the table's
//    ByteSize() against ITS flow's MemoryBudget while holding the ref, so
//    a budgeted flow cannot smuggle working set through the shared cache.

#ifndef QOX_ENGINE_DIMENSION_CACHE_H_
#define QOX_ENGINE_DIMENSION_CACHE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/column_batch.h"
#include "storage/data_store.h"

namespace qox {

/// An immutable build of one dimension: the deduplicated rows plus a flat
/// open-addressing index over their encoded key bytes.
class DimensionTable {
 public:
  /// Scans `dimension` once and indexes it by `key_index`. First occurrence
  /// of a key wins (the same dedup an unordered_map build keeps); NULL keys
  /// are skipped (NULL probe keys never probe).
  static Result<std::shared_ptr<const DimensionTable>> Build(
      const DataStore& dimension, size_t key_index);

  /// Probes an encoded key (AppendValueKeyBytes / Column::AppendKeyBytes).
  /// Returns the matching dimension row or nullptr.
  const Row* Probe(std::string_view key_bytes) const;

  size_t num_rows() const { return rows_.size(); }

  /// Approximate heap footprint (what acquirers charge to their budget).
  size_t ByteSize() const { return bytes_; }

 private:
  DimensionTable() = default;

  struct Span {
    uint32_t offset = 0;
    uint32_t length = 0;
  };

  std::string_view KeyAt(size_t row) const {
    return std::string_view(key_arena_.data() + key_spans_[row].offset,
                            key_spans_[row].length);
  }

  /// Inserts row index `r` unless its key is already present.
  void Insert(size_t r);

  std::vector<Row> rows_;
  std::string key_arena_;
  std::vector<Span> key_spans_;      // parallel to rows_
  std::vector<uint32_t> slots_;      // row index per slot, kEmptySlot = free
  std::vector<uint64_t> slot_hashes_;
  size_t slot_mask_ = 0;
  size_t bytes_ = 0;
};

using DimensionTablePtr = std::shared_ptr<const DimensionTable>;

/// Process-wide single-flight cache of DimensionTable builds.
class DimensionCache {
 public:
  /// The process-wide instance (ops reach it through Open()).
  static DimensionCache& Instance();

  struct Acquired {
    DimensionTablePtr table;
    /// True when this call performed the build; false on a shared hit
    /// (including waiting out another flow's in-flight build).
    bool built = false;
  };

  /// Returns the shared table for (dimension name, `version`, `key_index`),
  /// building it at most once per version. `version` must be non-empty and
  /// must change whenever the store's contents change (see
  /// DataStore::ContentVersion). A new version supersedes the retained
  /// entry for the same dimension+key.
  Result<Acquired> GetOrBuild(const DataStore& dimension,
                              const std::string& version, size_t key_index);

  /// Returns the completed table for the exact (dimension, version, key) or
  /// nullptr. Never builds and never waits out an in-flight build — the
  /// path for budget-enforced flows, which may reuse a finished shared
  /// build (charging it) but must not start unbudgeted work.
  DimensionTablePtr TryGet(const DataStore& dimension,
                           const std::string& version,
                           size_t key_index) const;

  /// Drops every retained entry (tests; outstanding refs stay valid).
  void Clear();

  size_t num_entries() const;

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    DimensionTablePtr table;
  };

  /// Retain at most this many completed builds; beyond it the oldest entry
  /// is dropped (refcounting keeps in-use tables alive).
  static constexpr size_t kMaxRetained = 16;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> entries_;
  /// Latest cache key per (dimension name, key column): a new version
  /// supersedes and erases the stale entry.
  std::unordered_map<std::string, std::string> latest_;
  std::deque<std::string> retention_order_;
};

}  // namespace qox

#endif  // QOX_ENGINE_DIMENSION_CACHE_H_
