// DimensionCache: process-wide sharing of immutable lookup builds.
//
// Concurrent flows that probe the same dimension (the paper's L1 store
// dimension feeds both partitioned branches and parallel flows; Liu's
// shared-cache ETL optimization quantifies the win) each used to scan and
// hash the dimension independently at Open(). The cache hash-conses those
// builds: a shared DimensionTable is immutable and refcounted, cached by
// (store name, content version, key column), built at most once
// per version — concurrent requesters block on the in-flight build instead
// of starting their own (single-flight).
//
// The table itself holds the dimension's rows, first occurrence of a key
// winning, their encoded key bytes (common/column_batch.h's probe-key
// encoding) in one arena, and the engine's key index (common/key_index.h)
// over the FNV-1a hash of those bytes. A probe compares the hash, then the
// bytes, with no `Value` boxing on the path — the lookup kernel encodes
// keys straight from column storage (boxed key cells through
// AppendValueKeyBytes). The lookup builds every table it probes this way:
// the shared one here, a local one for an unversioned store, and, under a
// memory budget, one streamed row by row and one per spilled partition.
// Appended dimension cells are copied as they are: one whose runtime type
// differs from its declared type boxes the kernel's output column.
//
// Invariants:
//  - Shared tables are immutable after Build; sharing needs no further
//    locking.
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
#include "common/key_index.h"
#include "storage/data_store.h"

namespace qox {

/// One dimension indexed by the encoded bytes of its key column: at most
/// one row per key, in the order the keys were first seen.
class DimensionTable {
 public:
  DimensionTable() = default;

  /// Scans `dimension` once and indexes it by `key_index`. First occurrence
  /// of a key wins; NULL keys are skipped (a NULL never matches).
  static Result<std::shared_ptr<const DimensionTable>> Build(
      const DataStore& dimension, size_t key_index);

  /// The hash the table indexes encoded key bytes by (FNV-1a).
  static uint64_t HashKey(std::string_view key_bytes);

  /// Probes an encoded key (AppendValueKeyBytes / Column::AppendKeyBytes).
  /// Returns the matching dimension row or nullptr.
  const Row* Probe(std::string_view key_bytes) const {
    return Find(key_bytes, HashKey(key_bytes));
  }
  /// Probe with the key's HashKey already taken.
  const Row* Find(std::string_view key_bytes, uint64_t hash) const;

  /// Adds `row` under `key_bytes` (whose HashKey is `hash`) unless a row
  /// already has that key: the first row of a key wins. Returns whether
  /// the row was added.
  bool Add(std::string_view key_bytes, uint64_t hash, Row row);

  /// The bytes a row of `key_bytes` and `row` adds to ByteSize(), index
  /// growth aside: a table of n such rows added after Reserve(n) counts
  /// their sum plus KeyIndex::BytesFor(n).
  static size_t RowBytes(std::string_view key_bytes, const Row& row) {
    return key_bytes.size() + sizeof(Span) + row.ByteSize();
  }
  /// What ByteSize() grows by when Add adds a row of `key_bytes` and
  /// `row`, index growth included.
  size_t AddBytes(std::string_view key_bytes, const Row& row) const {
    return RowBytes(key_bytes, row) + index_.AddBytes();
  }

  /// Makes room for `rows` rows: adding up to `rows` then never grows the
  /// index.
  void Reserve(size_t rows) { index_.Reserve(rows); }

  size_t num_rows() const { return rows_.size(); }
  const Row& row(size_t r) const { return rows_[r]; }
  /// The encoded key of row `r`.
  std::string_view key(size_t r) const {
    return std::string_view(key_arena_.data() + key_spans_[r].offset,
                            key_spans_[r].length);
  }

  /// Approximate heap footprint (what acquirers charge to their budget).
  size_t ByteSize() const { return bytes_ + index_.ByteSize(); }

 private:
  struct Span {
    uint32_t offset = 0;
    uint32_t length = 0;
  };

  std::vector<Row> rows_;
  std::string key_arena_;
  std::vector<Span> key_spans_;  // parallel to rows_
  KeyIndex index_;
  /// The keys, spans and cells of rows_.
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
