#include "engine/ops/group_op.h"

#include <iterator>

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
  keys_.clear();
  states_.clear();
  index_ = KeyIndex();
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

size_t GroupOp::GroupBytes(const Row& row) const {
  size_t bytes = aggregates_.size() * sizeof(AggState) + index_.AddBytes();
  for (const size_t idx : group_indices_) bytes += row.value(idx).ByteSize();
  return bytes;
}

bool GroupOp::AggregateRow(const Row& row, bool charge_forced) {
  const size_t width = group_indices_.size();
  const size_t hash = row.HashColumns(group_indices_);
  size_t g = index_.Find(hash, [&](size_t pos) {
    const Value* key = keys_.data() + pos * width;
    for (size_t c = 0; c < width; ++c) {
      if (key[c].Compare(row.value(group_indices_[c])) != 0) return false;
    }
    return true;
  });
  if (g == KeyIndex::kNone) {
    if (enforce_) {
      const size_t bytes = GroupBytes(row);
      if (charge_forced) {
        // Replay path: Finish must rebuild the whole group state, so new
        // groups overrun the budget by force — visible in the high-water
        // mark rather than hidden from it.
        ctx_->memory_budget->ForceReserve(bytes);
      } else if (!ctx_->memory_budget->TryReserve(bytes)) {
        return false;
      }
      charged_ += bytes;
    }
    for (const size_t idx : group_indices_) keys_.push_back(row.value(idx));
    states_.resize(states_.size() + aggregates_.size());
    g = index_.Add(hash);
  }
  AggState* states = states_.data() + g * aggregates_.size();
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    AggState& state = states[i];
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
  return true;
}

Status GroupOp::Push(RowBatch input, RowBatch* output) {
  (void)output;
  for (const Row& row : input.rows()) {
    if (!spilling_) {
      if (AggregateRow(row, /*charge_forced=*/false)) continue;
      // Budget refused a new group: freeze the live table and spill every
      // subsequent raw row, preserving arrival order so Finish's replay
      // updates each group in exactly the unbudgeted order.
      QOX_ASSIGN_OR_RETURN(spill_writer_,
                           ctx_->spill->CreateRun(name_, input_schema_));
      spilling_ = true;
    }
    QOX_RETURN_IF_ERROR(spill_writer_->Append(row));
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
  const size_t width = group_indices_.size();
  for (size_t g = 0; g < index_.size(); ++g) {
    Row out(std::vector<Value>(
        std::make_move_iterator(keys_.begin() + g * width),
        std::make_move_iterator(keys_.begin() + (g + 1) * width)));
    const AggState* states = states_.data() + g * aggregates_.size();
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
  keys_.clear();
  states_.clear();
  index_ = KeyIndex();
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
