// GroupOp: blocking hash aggregation ("grouper" in the paper's pipelining
// example {filter, sorter, filter, filter, function, grouper}).
//
// The group table stores each group's key cells and aggregate states once,
// in first-seen order (the output order), and finds a row's group through
// the engine's key index (common/key_index.h): the group columns are
// hashed in place with Row::HashColumns and compared by Value::Compare, as
// the Δ's landing does, so a row builds no key of its own; only a new
// group copies its key cells.
//
// Under a MemoryBudget the table is charged per group, index growth
// included. When a new group is refused, the operator stops aggregating
// live and appends every subsequent raw input row to one spill run; Finish
// replays the run through the same aggregation loop in arrival order.
// Per-group update order is then live-phase rows followed by spill-phase
// rows — exactly the arrival order — so floating-point sums match the
// unbudgeted run bit for bit. Finish transiently rebuilds the full group
// state (the documented memory bound for this operator: the output itself
// must fit).

#ifndef QOX_ENGINE_OPS_GROUP_OP_H_
#define QOX_ENGINE_OPS_GROUP_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "common/key_index.h"
#include "engine/operator.h"
#include "storage/spill_manager.h"

namespace qox {

enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

const char* AggKindName(AggKind kind);

/// One aggregate: kind over `column` (ignored for kCount), output `as`.
struct Aggregate {
  AggKind kind = AggKind::kCount;
  std::string column;
  std::string as;

  static Aggregate Count(std::string as) { return {AggKind::kCount, "", std::move(as)}; }
  static Aggregate Sum(std::string column, std::string as) {
    return {AggKind::kSum, std::move(column), std::move(as)};
  }
  static Aggregate Min(std::string column, std::string as) {
    return {AggKind::kMin, std::move(column), std::move(as)};
  }
  static Aggregate Max(std::string column, std::string as) {
    return {AggKind::kMax, std::move(column), std::move(as)};
  }
  static Aggregate Avg(std::string column, std::string as) {
    return {AggKind::kAvg, std::move(column), std::move(as)};
  }
};

class GroupOp : public Operator {
 public:
  GroupOp(std::string name, std::vector<std::string> group_columns,
          std::vector<Aggregate> aggregates);

  const char* kind() const override { return "group"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override;
  Status Open(OperatorContext* ctx) override;
  Status Push(RowBatch input, RowBatch* output) override;
  Status Finish(RowBatch* output) override;
  bool IsBlocking() const override { return true; }
  double CostPerRow() const override { return 2.5; }
  double Selectivity() const override { return 0.1; }  // group reduction

  std::vector<std::string> InputColumns() const;
  const std::vector<std::string>& group_columns() const {
    return group_columns_;
  }

 private:
  struct AggState {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    size_t count = 0;      ///< non-NULL inputs
    size_t row_count = 0;  ///< all rows (kCount)
  };

  /// What a new group for `row` adds to the charge, index growth included.
  size_t GroupBytes(const Row& row) const;
  /// Folds `row` into its group, adding the group when it is new. Under an
  /// enforced budget a new group is charged — by force when
  /// `charge_forced`, otherwise only if the budget admits it: a refusal
  /// returns false and folds nothing.
  bool AggregateRow(const Row& row, bool charge_forced);

  const std::string name_;
  const std::vector<std::string> group_columns_;
  const std::vector<Aggregate> aggregates_;
  std::vector<size_t> group_indices_;
  std::vector<size_t> agg_indices_;
  Schema input_schema_;
  OperatorContext* ctx_ = nullptr;
  bool enforce_ = false;
  size_t charged_ = 0;
  bool spilling_ = false;
  std::unique_ptr<SpillWriter> spill_writer_;
  /// Per group, in first-seen order: its group_indices_.size() key cells,
  /// and its aggregates_.size() states.
  std::vector<Value> keys_;
  std::vector<AggState> states_;
  /// Group indexes by the hash of their key cells.
  KeyIndex index_;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_GROUP_OP_H_
