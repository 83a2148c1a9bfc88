#include "engine/ops/delta_op.h"

#include <iterator>

namespace qox {

DeltaOp::DeltaOp(std::string name, SnapshotStorePtr snapshot,
                 std::string change_type_column)
    : name_(std::move(name)),
      snapshot_(std::move(snapshot)),
      change_type_column_(std::move(change_type_column)) {}

Result<Schema> DeltaOp::Bind(const Schema& input) {
  if (snapshot_ == nullptr) {
    return Status::Invalid("delta op '" + name_ + "' has no snapshot store");
  }
  if (input != snapshot_->schema()) {
    return Status::Invalid("delta op '" + name_ +
                           "': input schema does not match snapshot schema");
  }
  buffered_.clear();
  if (change_type_column_.empty()) return input;
  return input.AddField({change_type_column_, DataType::kString, false});
}

Status DeltaOp::Open(OperatorContext* ctx) {
  ctx_ = ctx;
  return Status::OK();
}

Status DeltaOp::Push(RowBatch input, RowBatch* output) {
  (void)output;
  buffered_.insert(buffered_.end(),
                   std::make_move_iterator(input.rows().begin()),
                   std::make_move_iterator(input.rows().end()));
  return Status::OK();
}

Status DeltaOp::Finish(RowBatch* output) {
  QOX_ASSIGN_OR_RETURN(DeltaResult delta,
                       snapshot_->ComputeDelta(std::move(buffered_)));
  buffered_.clear();
  if (ctx_ != nullptr && ctx_->stage_landing) {
    ctx_->stage_landing(snapshot_, ctx_->partition, std::move(delta.landing));
  }
  output->Reserve(delta.inserts.size() + delta.updates.size());
  const bool tag = !change_type_column_.empty();
  for (Row& row : delta.inserts) {
    if (tag) row.Append(Value::String("insert"));
    output->Append(std::move(row));
  }
  for (Row& row : delta.updates) {
    if (tag) row.Append(Value::String("update"));
    output->Append(std::move(row));
  }
  return Status::OK();
}

}  // namespace qox
