#include "engine/ops/group_op.h"

namespace qox {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "unknown";
}

GroupOp::GroupOp(std::string name, std::vector<std::string> group_columns,
                 std::vector<Aggregate> aggregates)
    : name_(std::move(name)),
      group_columns_(std::move(group_columns)),
      aggregates_(std::move(aggregates)) {}

Result<Schema> GroupOp::Bind(const Schema& input) {
  if (group_columns_.empty()) {
    return Status::Invalid("group '" + name_ + "' has no group columns");
  }
  group_indices_.clear();
  std::vector<Field> out_fields;
  for (const std::string& col : group_columns_) {
    QOX_ASSIGN_OR_RETURN(const size_t idx, input.FieldIndex(col));
    group_indices_.push_back(idx);
    out_fields.push_back(input.field(idx));
  }
  agg_indices_.clear();
  for (const Aggregate& agg : aggregates_) {
    if (agg.kind == AggKind::kCount) {
      agg_indices_.push_back(0);  // unused
      out_fields.push_back({agg.as, DataType::kInt64, false});
      continue;
    }
    QOX_ASSIGN_OR_RETURN(const size_t idx, input.FieldIndex(agg.column));
    agg_indices_.push_back(idx);
    out_fields.push_back({agg.as, DataType::kDouble, true});
  }
  input_schema_ = input;
  groups_.clear();
  group_order_.clear();
  charged_ = 0;
  spilling_ = false;
  spill_writer_.reset();
  return Schema(std::move(out_fields));
}

Status GroupOp::Open(OperatorContext* ctx) {
  ctx_ = ctx;
  enforce_ = ctx != nullptr && ctx->BudgetEnforced();
  return Status::OK();
}

Row GroupOp::MakeKey(const Row& row) const {
  Row key;
  for (const size_t idx : group_indices_) key.Append(row.value(idx));
  return key;
}

size_t GroupOp::GroupBytes(const Row& key) const {
  return key.ByteSize() + aggregates_.size() * sizeof(AggState);
}

void GroupOp::AggregateRow(const Row& row, bool charge_forced) {
  Row key = MakeKey(row);
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    if (enforce_ && charge_forced) {
      // Replay path: Finish must rebuild the whole group state, so new
      // groups overrun the budget by force — visible in the high-water
      // mark rather than hidden from it.
      const size_t bytes = GroupBytes(key);
      ctx_->memory_budget->ForceReserve(bytes);
      charged_ += bytes;
    }
    group_order_.push_back(key);
    it = groups_.emplace(std::move(key),
                         std::vector<AggState>(aggregates_.size()))
             .first;
  }
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    AggState& state = it->second[i];
    ++state.row_count;
    if (aggregates_[i].kind == AggKind::kCount) continue;
    const Value& v = row.value(agg_indices_[i]);
    if (v.is_null()) continue;
    const Result<double> d = v.AsDouble();
    if (!d.ok()) continue;
    if (state.count == 0) {
      state.min = d.value();
      state.max = d.value();
    } else {
      state.min = std::min(state.min, d.value());
      state.max = std::max(state.max, d.value());
    }
    state.sum += d.value();
    ++state.count;
  }
}

Status GroupOp::Push(RowBatch input, RowBatch* output) {
  (void)output;
  for (const Row& row : input.rows()) {
    if (spilling_) {
      QOX_RETURN_IF_ERROR(spill_writer_->Append(row));
      continue;
    }
    if (enforce_) {
      const Row key = MakeKey(row);
      if (groups_.find(key) == groups_.end()) {
        const size_t bytes = GroupBytes(key);
        if (!ctx_->memory_budget->TryReserve(bytes)) {
          // Budget refused a new group: freeze the live table and spill
          // every subsequent raw row, preserving arrival order so Finish's
          // replay updates each group in exactly the unbudgeted order.
          QOX_ASSIGN_OR_RETURN(
              spill_writer_, ctx_->spill->CreateRun(name_, input_schema_));
          spilling_ = true;
          QOX_RETURN_IF_ERROR(spill_writer_->Append(row));
          continue;
        }
        charged_ += bytes;
      }
    }
    AggregateRow(row, /*charge_forced=*/false);
  }
  return Status::OK();
}

Status GroupOp::Finish(RowBatch* output) {
  if (spilling_) {
    QOX_ASSIGN_OR_RETURN(const SpillFile run, spill_writer_->Finalize());
    spill_writer_.reset();
    SpillReader reader(run);
    while (true) {
      QOX_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
      if (!row.has_value()) break;
      AggregateRow(*row, /*charge_forced=*/true);
    }
    spilling_ = false;
  }
  for (const Row& key : group_order_) {
    const std::vector<AggState>& states = groups_.at(key);
    Row out = key;
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      const AggState& state = states[i];
      switch (aggregates_[i].kind) {
        case AggKind::kCount:
          out.Append(Value::Int64(static_cast<int64_t>(state.row_count)));
          break;
        case AggKind::kSum:
          out.Append(state.count == 0 ? Value::Null()
                                      : Value::Double(state.sum));
          break;
        case AggKind::kMin:
          out.Append(state.count == 0 ? Value::Null()
                                      : Value::Double(state.min));
          break;
        case AggKind::kMax:
          out.Append(state.count == 0 ? Value::Null()
                                      : Value::Double(state.max));
          break;
        case AggKind::kAvg:
          out.Append(state.count == 0
                         ? Value::Null()
                         : Value::Double(state.sum /
                                         static_cast<double>(state.count)));
          break;
      }
    }
    output->Append(std::move(out));
  }
  groups_.clear();
  group_order_.clear();
  if (enforce_ && charged_ > 0) {
    ctx_->memory_budget->Release(charged_);
    charged_ = 0;
  }
  return Status::OK();
}

std::vector<std::string> GroupOp::InputColumns() const {
  std::vector<std::string> cols = group_columns_;
  for (const Aggregate& agg : aggregates_) {
    if (!agg.column.empty()) cols.push_back(agg.column);
  }
  return cols;
}

}  // namespace qox
