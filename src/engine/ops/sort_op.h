// SortOp: blocking sorter.
//
// Sorters are the canonical blocking operator of the paper's pipelining
// discussion ("gather pipelining and blocking operations separately from
// each other") and a recommended recovery-point site ("following an
// operation that is costly or difficult to undo (e.g., a sort)").
//
// Under a MemoryBudget the sorter runs as an external merge sort: buffered
// rows are charged to the budget, and when a reservation is refused the
// buffer is sorted and written to a checksummed spill run. Finish merges
// the runs with the sorted in-memory tail, breaking ties toward the
// earlier run — runs hold contiguous arrival-order segments, so the merge
// reproduces std::stable_sort byte-identically.

#ifndef QOX_ENGINE_OPS_SORT_OP_H_
#define QOX_ENGINE_OPS_SORT_OP_H_

#include <string>
#include <vector>

#include "engine/operator.h"
#include "storage/spill_manager.h"

namespace qox {

/// One sort key.
struct SortKey {
  std::string column;
  bool descending = false;
};

class SortOp : public Operator {
 public:
  SortOp(std::string name, std::vector<SortKey> keys);

  const char* kind() const override { return "sort"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override;
  Status Open(OperatorContext* ctx) override;
  Status Push(RowBatch input, RowBatch* output) override;
  Status Finish(RowBatch* output) override;
  bool IsBlocking() const override { return true; }
  double CostPerRow() const override { return 3.0; }

  const std::vector<SortKey>& keys() const { return keys_; }
  std::vector<std::string> InputColumns() const;

 private:
  bool Less(const Row& a, const Row& b) const;
  Status BufferRow(Row row);
  Status SpillBuffered();
  Status MergeRuns(RowBatch* output);

  const std::string name_;
  const std::vector<SortKey> keys_;
  std::vector<size_t> indices_;
  Schema schema_;
  OperatorContext* ctx_ = nullptr;
  bool enforce_ = false;
  std::vector<Row> buffered_;
  size_t charged_ = 0;
  std::vector<SpillFile> runs_;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_SORT_OP_H_
