// LookupOp: hash-join a stream against a lookup dimension.
//
// Models the paper's "lookup operation (for finding corresponding codes
// from store sites and for verifying the moving information as well)".
// The dimension is scanned into a hash table at Open(); each input row is
// probed by its key column and the requested dimension columns are
// appended. The miss policy implements verification: unresolved codes can
// be rejected (routed to the reject sink), padded with NULLs, or treated
// as a hard error.
//
// Under a MemoryBudget the build streams the dimension scan: rows are
// admitted to the in-memory table row by row, and the first refused
// reservation hash-partitions the table into spill runs, with the rest of
// the scan routed straight to the partition writers — the build never
// materializes a dimension larger than the budget. Probing stays strictly
// in input order (so output is byte-identical to the unbudgeted run) and
// loads the partition a key hashes to on demand, evicting cached
// partitions when the budget refuses the load. An undersized budget
// therefore trades memory for partition-reload I/O — the thrash the cost
// model's spill tax prices.

#ifndef QOX_ENGINE_OPS_LOOKUP_OP_H_
#define QOX_ENGINE_OPS_LOOKUP_OP_H_

#include <memory>
#include <string>
#include <unordered_map>
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
  /// Probes the flat table with encoded key bytes, or the streamed/spilled
  /// build side through Probe(); misses are handled per the miss policy,
  /// in selection order. Appended columns box when a dimension cell's
  /// runtime type differs from its declared type.
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
  using Table = std::unordered_map<Value, Row, ValueHash>;

  /// One build-side hash partition spilled at Open().
  struct Partition {
    SpillFile file;
    size_t bytes = 0;  ///< in-memory table charge when loaded
    bool loaded = false;
    Table table;
  };

  /// Switches the mid-scan build to partitioned mode: picks a fan-out,
  /// opens one spill writer per partition, and drains the in-memory table
  /// into them (releasing its budget charge).
  Status StartPartitions(size_t rows_seen,
                         std::vector<std::unique_ptr<SpillWriter>>* writers);
  Status EnsurePartition(size_t p);
  /// Probes `key` in the streamed or spilled build side (flat_table_ is
  /// null); the returned pointer is valid until the next EnsurePartition
  /// call.
  Result<const Row*> Probe(const Value& key);

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
  Table table_;
  size_t charged_ = 0;
  bool partitioned_ = false;
  std::vector<Partition> partitions_;
  /// Flat probe table (shared via DimensionCache or built locally) used
  /// when the budget admits the whole build side; the streamed/partitioned
  /// build above remains the budget-enforced path.
  DimensionTablePtr flat_table_;
  OperatorContext* ctx_ = nullptr;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_LOOKUP_OP_H_
