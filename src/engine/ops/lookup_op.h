// LookupOp: hash-join a stream against a lookup dimension.
//
// Models the paper's "lookup operation (for finding corresponding codes
// from store sites and for verifying the moving information as well)".
// The dimension is indexed at Open() into a DimensionTable
// (engine/dimension_cache.h) keyed by the encoded bytes of its key column;
// each input row probes it with its own key column's encoded bytes and the
// requested dimension columns are appended. The first row of a key wins,
// and a NULL key on either side never matches. The miss policy implements
// verification: unresolved codes can be rejected (routed to the reject
// sink), padded with NULLs, or treated as a hard error.
//
// The table is the process-wide shared build when the store is versioned
// (DimensionCache), else a local build. Under a MemoryBudget the lookup
// only reuses a finished shared build (TryGet, charging its bytes) and
// otherwise streams the dimension scan: rows are admitted to its own table
// row by row, each charged with the index growth it causes, and the first
// refused reservation hash-partitions that table into spill runs, with the
// rest of the scan routed straight to the partition writers — the build
// never materializes a dimension larger than the budget. Rows go to the
// partition of their key's DimensionTable::HashKey, the hash a probe
// routes by, and a key's first row reaches its partition first, so a
// reloaded partition keeps the rows the unbudgeted table keeps. Probing
// stays strictly in input order (so output is byte-identical to the
// unbudgeted run) and loads the partition a key hashes to on demand,
// evicting loaded partitions when the budget refuses the load. An
// undersized budget therefore trades memory for partition-reload I/O — the
// thrash the cost model's spill tax prices.

#ifndef QOX_ENGINE_OPS_LOOKUP_OP_H_
#define QOX_ENGINE_OPS_LOOKUP_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/dimension_cache.h"
#include "engine/operator.h"
#include "storage/data_store.h"

namespace qox {

enum class LookupMissPolicy {
  kReject,  ///< route the row to the reject sink (verification failure)
  kNull,    ///< keep the row, appended columns become NULL
  kError,   ///< abort the flow
};

class LookupOp : public Operator {
 public:
  /// `dimension` is scanned once at Open(). `input_key` is the probe column
  /// of the stream; `dim_key` the dimension's key column; `append_columns`
  /// the dimension columns appended to matching rows (renamed on collision
  /// with "<dim name>_" prefix).
  LookupOp(std::string name, DataStorePtr dimension, std::string input_key,
           std::string dim_key, std::vector<std::string> append_columns,
           LookupMissPolicy miss_policy = LookupMissPolicy::kReject,
           double estimated_hit_rate = 0.98);

  const char* kind() const override { return "lookup"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override;
  Status Open(OperatorContext* ctx) override;
  /// Probes the table, or the spilled partition a key hashes to, with
  /// encoded key bytes; misses are handled per the miss policy, in
  /// selection order. Appended columns box when a dimension cell's runtime
  /// type differs from its declared type.
  Status PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) override;
  Status Finish(RowBatch* output) override;
  double CostPerRow() const override { return 2.0; }
  double Selectivity() const override {
    return miss_policy_ == LookupMissPolicy::kReject ? estimated_hit_rate_
                                                     : 1.0;
  }

  const std::string& input_key() const { return input_key_; }

  /// Columns this operator reads from its input (rewrite legality).
  std::vector<std::string> InputColumns() const { return {input_key_}; }
  /// Columns appended to the output (post-rename).
  const std::vector<std::string>& OutputColumnNames() const {
    return output_column_names_;
  }

 private:
  /// One build-side hash partition spilled at Open().
  struct Partition {
    SpillFile file;
    size_t rows = 0;   ///< rows spilled to it
    size_t bytes = 0;  ///< the budget charge of its loaded table
    DimensionTablePtr table;  ///< null while on disk
  };

  /// Scans the dimension into table_ under the budget, spilling on the
  /// first refused reservation.
  Status BuildUnderBudget();
  /// Switches the mid-scan build to partitioned mode: picks a fan-out,
  /// opens one spill writer per partition, and drains `table` into them
  /// (releasing its budget charge).
  Status StartPartitions(size_t rows_seen, const DimensionTable& table,
                         std::vector<std::unique_ptr<SpillWriter>>* writers);
  /// Loads partition `p` into memory, evicting other loaded partitions
  /// while the budget refuses it.
  Status EnsurePartition(size_t p);

  const std::string name_;
  const DataStorePtr dimension_;
  const std::string input_key_;
  const std::string dim_key_;
  const std::vector<std::string> append_columns_;
  const LookupMissPolicy miss_policy_;
  const double estimated_hit_rate_;

  std::vector<std::string> output_column_names_;
  size_t input_key_index_ = 0;
  size_t dim_key_index_ = 0;
  std::vector<size_t> append_indices_;
  /// The whole build side: shared, built locally, or streamed under the
  /// budget. Null when the build spilled into partitions_.
  DimensionTablePtr table_;
  std::vector<Partition> partitions_;
  size_t charged_ = 0;
  OperatorContext* ctx_ = nullptr;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_LOOKUP_OP_H_
