#include "engine/pipeline.h"

#include "common/clock.h"

namespace qox {

Result<std::unique_ptr<Pipeline>> Pipeline::Create(
    const Schema& input_schema, std::vector<OperatorPtr> ops,
    OperatorContext* ctx, const PipelineConfig& config) {
  std::vector<Schema> schemas;
  schemas.reserve(ops.size() + 1);
  schemas.push_back(input_schema);
  for (const OperatorPtr& op : ops) {
    QOX_ASSIGN_OR_RETURN(Schema out, op->Bind(schemas.back()));
    schemas.push_back(std::move(out));
  }
  auto pipeline = std::unique_ptr<Pipeline>(
      new Pipeline(std::move(ops), std::move(schemas), ctx, config));
  for (const OperatorPtr& op : pipeline->ops_) {
    QOX_RETURN_IF_ERROR(op->Open(ctx));
  }
  return pipeline;
}

Pipeline::Pipeline(std::vector<OperatorPtr> ops, std::vector<Schema> schemas,
                   OperatorContext* ctx, const PipelineConfig& config)
    : ops_(std::move(ops)),
      schemas_(std::move(schemas)),
      ctx_(ctx),
      config_(config) {
  op_stats_.resize(ops_.size());
  rows_entered_.resize(ops_.size(), 0);
  for (size_t i = 0; i < ops_.size(); ++i) {
    op_stats_[i].name = ops_[i]->name();
    op_stats_[i].kind = ops_[i]->kind();
  }
  schema_ptrs_.reserve(schemas_.size());
  for (const Schema& s : schemas_) schema_ptrs_.push_back(MakeSchemaPtr(s));
}

Status Pipeline::CheckInterrupts(size_t op_ordinal,
                                 size_t rows_about_to_enter) {
  if (ctx_ != nullptr && ctx_->IsCancelled()) {
    return Status::Cancelled("pipeline cancelled");
  }
  if (config_.deadline_micros > 0 && NowMicros() > config_.deadline_micros) {
    return Status::DeadlineExceeded(
        "attempt deadline expired at transform op " +
        std::to_string(config_.op_index_offset +
                       static_cast<int>(op_ordinal)));
  }
  if (config_.injector != nullptr) {
    QOX_RETURN_IF_ERROR(config_.injector->Check(
        config_.instance_id, config_.attempt,
        config_.op_index_offset + static_cast<int>(op_ordinal),
        rows_about_to_enter, config_.expected_input_rows));
  }
  return Status::OK();
}

ErrorPolicy Pipeline::PolicyFor(size_t op_ordinal) const {
  if (config_.error_policies == nullptr) return ErrorPolicy::kFailFast;
  const size_t global =
      static_cast<size_t>(config_.op_index_offset) + op_ordinal;
  if (global >= config_.error_policies->size()) return ErrorPolicy::kFailFast;
  return (*config_.error_policies)[global];
}

Status Pipeline::Contain(size_t op_ordinal, const Row& row,
                         const Status& cause) {
  const ErrorPolicy policy = PolicyFor(op_ordinal);
  ++op_stats_[op_ordinal].rows_contained;
  if (policy == ErrorPolicy::kQuarantine && config_.quarantine_sink) {
    ContainedRow contained;
    contained.op_index =
        config_.op_index_offset + static_cast<int>(op_ordinal);
    contained.op_name = ops_[op_ordinal]->name();
    contained.row = row;
    contained.cause = cause;
    QOX_RETURN_IF_ERROR(config_.quarantine_sink(contained));
  }
  if (config_.error_budget != nullptr) {
    return config_.error_budget->Charge(
        policy, config_.op_index_offset + static_cast<int>(op_ordinal));
  }
  return Status::OK();
}

Status Pipeline::ScreenPoison(size_t op_ordinal, RowBatch* batch) {
  const int global_op = config_.op_index_offset + static_cast<int>(op_ordinal);
  bool any_poisoned = false;
  for (const Row& row : batch->rows()) {
    if (!config_.injector->CheckRow(global_op, row).ok()) {
      any_poisoned = true;
      break;
    }
  }
  if (!any_poisoned) return Status::OK();
  RowBatch kept(schema_ptrs_[op_ordinal]);
  kept.Reserve(batch->num_rows());
  for (Row& row : batch->rows()) {
    const Status row_st = config_.injector->CheckRow(global_op, row);
    if (row_st.ok()) {
      kept.Append(std::move(row));
      continue;
    }
    if (PolicyFor(op_ordinal) == ErrorPolicy::kFailFast) return row_st;
    QOX_RETURN_IF_ERROR(Contain(op_ordinal, row, row_st));
  }
  *batch = std::move(kept);
  return Status::OK();
}

Status Pipeline::RunKernels(size_t begin, size_t end, ColumnBatch* batch) {
  if (ctx_ != nullptr) {
    if (ctx_->columnar_batches != nullptr) {
      ctx_->columnar_batches->fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx_->columnar_rows != nullptr) {
      ctx_->columnar_rows->fetch_add(batch->num_rows(),
                                     std::memory_order_relaxed);
    }
  }
  for (size_t i = begin; i < end; ++i) {
    // A batch emptied by an earlier op of the run goes no further.
    if (i > begin && batch->num_rows() == 0) return Status::OK();
    rows_entered_[i] += batch->num_rows();
    QOX_RETURN_IF_ERROR(CheckInterrupts(i, rows_entered_[i]));
    const size_t rows_in = batch->num_rows();
    ColumnarPushContext cctx;
    cctx.contain = PolicyFor(i) != ErrorPolicy::kFailFast;
    const StopWatch timer;
    const Status st = ops_[i]->PushColumnar(batch, &cctx);
    op_stats_[i].micros += timer.ElapsedMicros();
    op_stats_[i].rows_in += rows_in;
    QOX_RETURN_IF_ERROR(st);
    for (auto& contained : cctx.contained) {
      QOX_RETURN_IF_ERROR(Contain(i, contained.first, contained.second));
    }
    if (batch->num_columns() != schema_ptrs_[i + 1]->num_fields()) {
      return Status::Internal(
          "columnar push of '" + ops_[i]->name() + "' produced " +
          std::to_string(batch->num_columns()) + " columns, schema expects " +
          std::to_string(schema_ptrs_[i + 1]->num_fields()));
    }
    batch->set_schema(schema_ptrs_[i + 1]);
    op_stats_[i].rows_out += batch->num_rows();
  }
  return Status::OK();
}

Status Pipeline::PushFrom(size_t from, RowBatch batch) {
  const bool poison =
      config_.injector != nullptr && config_.injector->HasPoison();
  size_t i = from;
  while (i < ops_.size()) {
    if (poison) {
      QOX_RETURN_IF_ERROR(ScreenPoison(i, &batch));
      if (batch.empty()) return Status::OK();  // whole batch contained
    }
    if (ops_[i]->IsBlocking()) {
      rows_entered_[i] += batch.num_rows();
      QOX_RETURN_IF_ERROR(CheckInterrupts(i, rows_entered_[i]));
      RowBatch out(schema_ptrs_[i + 1]);
      const StopWatch timer;
      const Status st = ops_[i]->Push(batch, &out);
      op_stats_[i].micros += timer.ElapsedMicros();
      op_stats_[i].rows_in += batch.num_rows();
      QOX_RETURN_IF_ERROR(st);
      op_stats_[i].rows_out += out.num_rows();
      if (out.empty()) return Status::OK();  // buffered
      batch = std::move(out);
      ++i;
      continue;
    }
    // The maximal run of per-row ops starting here executes on one column
    // batch; armed poison cuts it to this op alone.
    size_t end = i + 1;
    while (!poison && end < ops_.size() && !ops_[end]->IsBlocking()) ++end;
    std::optional<ColumnBatch> columns =
        ColumnBatch::FromRowBatch(batch, schema_ptrs_[i]);
    if (!columns.has_value()) {
      return Status::Internal("a row entering '" + ops_[i]->name() +
                              "' does not match its input schema width");
    }
    batch = RowBatch();  // the run reads only the columns: free the rows
    QOX_RETURN_IF_ERROR(RunKernels(i, end, &*columns));
    if (columns->num_rows() == 0) return Status::OK();  // fully filtered
    batch = columns->ToRowBatch();
    i = end;
  }
  output_.insert(output_.end(), std::make_move_iterator(batch.rows().begin()),
                 std::make_move_iterator(batch.rows().end()));
  return Status::OK();
}

Status Pipeline::Push(RowBatch batch) { return PushFrom(0, std::move(batch)); }

Status Pipeline::Finish() {
  for (size_t i = 0; i < ops_.size(); ++i) {
    QOX_RETURN_IF_ERROR(CheckInterrupts(i, rows_entered_[i]));
    RowBatch out(schema_ptrs_[i + 1]);
    const StopWatch timer;
    const Status st = ops_[i]->Finish(&out);
    op_stats_[i].micros += timer.ElapsedMicros();
    QOX_RETURN_IF_ERROR(st);
    op_stats_[i].rows_out += out.num_rows();
    if (!out.empty()) QOX_RETURN_IF_ERROR(PushFrom(i + 1, std::move(out)));
  }
  return Status::OK();
}

std::vector<Row> Pipeline::TakeOutput() {
  std::vector<Row> out = std::move(output_);
  output_.clear();
  return out;
}

}  // namespace qox
