#include "engine/ops/lookup_op.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace qox {

LookupOp::LookupOp(std::string name, DataStorePtr dimension,
                   std::string input_key, std::string dim_key,
                   std::vector<std::string> append_columns,
                   LookupMissPolicy miss_policy, double estimated_hit_rate)
    : name_(std::move(name)),
      dimension_(std::move(dimension)),
      input_key_(std::move(input_key)),
      dim_key_(std::move(dim_key)),
      append_columns_(std::move(append_columns)),
      miss_policy_(miss_policy),
      estimated_hit_rate_(estimated_hit_rate) {}

Result<Schema> LookupOp::Bind(const Schema& input) {
  if (dimension_ == nullptr) {
    return Status::Invalid("lookup '" + name_ + "' has no dimension store");
  }
  QOX_ASSIGN_OR_RETURN(input_key_index_, input.FieldIndex(input_key_));
  const Schema& dim_schema = dimension_->schema();
  QOX_ASSIGN_OR_RETURN(dim_key_index_, dim_schema.FieldIndex(dim_key_));
  append_indices_.clear();
  output_column_names_.clear();
  Schema schema = input;
  for (const std::string& col : append_columns_) {
    QOX_ASSIGN_OR_RETURN(const size_t idx, dim_schema.FieldIndex(col));
    append_indices_.push_back(idx);
    std::string out_name = col;
    if (schema.HasField(out_name)) {
      out_name = dimension_->name() + "_" + col;
    }
    output_column_names_.push_back(out_name);
    QOX_ASSIGN_OR_RETURN(
        schema,
        schema.AddField({out_name, dim_schema.field(idx).type, true}));
  }
  return schema;
}

namespace {
// Dimension scan granularity at Open(): small enough that one transient
// batch never rivals a sane budget, big enough to amortize the scan.
constexpr size_t kDimScanBatch = 1024;
}  // namespace

Status LookupOp::Open(OperatorContext* ctx) {
  ctx_ = ctx;
  table_.reset();
  partitions_.clear();
  charged_ = 0;
  const std::string version = dimension_->ContentVersion();
  DimensionCache& cache = DimensionCache::Instance();

  // A budget-enforced flow may only reuse a completed shared build
  // (charged against its budget) — never start one, since an in-flight
  // build is unbudgeted working set. On a miss or a refused charge it
  // streams its own build under the budget.
  if (ctx != nullptr && ctx->BudgetEnforced()) {
    DimensionTablePtr hit = cache.TryGet(*dimension_, version, dim_key_index_);
    if (hit != nullptr && ctx->memory_budget->TryReserve(hit->ByteSize())) {
      charged_ = hit->ByteSize();
      table_ = std::move(hit);
      if (ctx->dim_cache_hits != nullptr) {
        ctx->dim_cache_hits->fetch_add(1, std::memory_order_relaxed);
      }
      return Status::OK();
    }
    return BuildUnderBudget();
  }
  if (version.empty()) {
    // Uncacheable store: a local build.
    QOX_ASSIGN_OR_RETURN(table_,
                         DimensionTable::Build(*dimension_, dim_key_index_));
    return Status::OK();
  }
  QOX_ASSIGN_OR_RETURN(DimensionCache::Acquired acquired,
                       cache.GetOrBuild(*dimension_, version, dim_key_index_));
  table_ = std::move(acquired.table);
  if (ctx != nullptr) {
    std::atomic<size_t>* counter =
        acquired.built ? ctx->dim_cache_builds : ctx->dim_cache_hits;
    if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status LookupOp::BuildUnderBudget() {
  // The dimension is streamed, never materialized whole: rows build the
  // table while the budget admits them; the first refused reservation
  // repartitions that table into spill runs and the rest of the scan is
  // routed straight to the partition writers, so the build's working set
  // stays within the budget plus one scan batch.
  auto table = std::make_shared<DimensionTable>();
  std::vector<std::unique_ptr<SpillWriter>> writers;
  std::string key;
  size_t rows_seen = 0;
  QOX_RETURN_IF_ERROR(dimension_->Scan(
      kDimScanBatch, [&](RowBatch& batch) -> Status {
        for (Row& row : batch.rows()) {
          ++rows_seen;
          const Value& cell = row.value(dim_key_index_);
          if (cell.is_null()) continue;  // never matches
          key.clear();
          AppendValueKeyBytes(cell, &key);
          const uint64_t hash = DimensionTable::HashKey(key);
          if (writers.empty()) {
            if (table->Find(key, hash) != nullptr) continue;  // first wins
            const size_t bytes = table->AddBytes(key, row);
            if (ctx_->memory_budget->TryReserve(bytes)) {
              charged_ += bytes;
              table->Add(key, hash, std::move(row));
              continue;
            }
            QOX_RETURN_IF_ERROR(StartPartitions(rows_seen, *table, &writers));
            table.reset();
          }
          const size_t p = hash % writers.size();
          QOX_RETURN_IF_ERROR(writers[p]->Append(row));
          ++partitions_[p].rows;
          partitions_[p].bytes += DimensionTable::RowBytes(key, row);
        }
        return Status::OK();
      }));
  if (writers.empty()) {
    table_ = std::move(table);
    return Status::OK();
  }
  for (size_t p = 0; p < writers.size(); ++p) {
    Partition& part = partitions_[p];
    part.bytes += KeyIndex::BytesFor(part.rows);
    QOX_ASSIGN_OR_RETURN(part.file, writers[p]->Finalize());
  }
  return Status::OK();
}

Status LookupOp::StartPartitions(
    size_t rows_seen, const DimensionTable& table,
    std::vector<std::unique_ptr<SpillWriter>>* writers) {
  // Size partitions to roughly half the budget each, so one loaded
  // partition table plus the flowing batches fit. The full build size is
  // estimated from the rows admitted so far (the scan is still running);
  // the fan-out is capped to keep run counts (and file handles) sane for
  // pathological budgets.
  const size_t budget = ctx_->memory_budget->limit();
  const size_t target = std::max<size_t>(1, budget / 2);
  size_t est_total = charged_;
  const Result<size_t> total_rows = dimension_->NumRows();
  if (total_rows.ok() && rows_seen > 0 && total_rows.value() > rows_seen) {
    est_total = charged_ * (total_rows.value() / rows_seen + 1);
  }
  const size_t k = std::min<size_t>(
      16, std::max<size_t>(2, (est_total + target - 1) / target));
  partitions_.resize(k);
  writers->resize(k);
  for (size_t p = 0; p < k; ++p) {
    QOX_ASSIGN_OR_RETURN(
        (*writers)[p],
        ctx_->spill->CreateRun(name_ + ".part" + std::to_string(p),
                               dimension_->schema()));
  }
  // Drain the table into the partition files in the order its keys were
  // first seen and hand the charge back: from here on the build side
  // lives on disk.
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const std::string_view key = table.key(r);
    const size_t p = DimensionTable::HashKey(key) % k;
    QOX_RETURN_IF_ERROR((*writers)[p]->Append(table.row(r)));
    ++partitions_[p].rows;
    partitions_[p].bytes += DimensionTable::RowBytes(key, table.row(r));
  }
  ctx_->memory_budget->Release(charged_);
  charged_ = 0;
  return Status::OK();
}

Status LookupOp::EnsurePartition(size_t p) {
  Partition& part = partitions_[p];
  if (part.table != nullptr) return Status::OK();
  MemoryBudget* budget = ctx_->memory_budget;
  while (!budget->TryReserve(part.bytes)) {
    const auto loaded =
        std::find_if(partitions_.begin(), partitions_.end(),
                     [](const Partition& other) { return other.table; });
    if (loaded == partitions_.end()) {
      // Nothing left to evict: one partition alone exceeds the budget.
      // Overrun rather than deadlock (visible in the high-water mark).
      budget->ForceReserve(part.bytes);
      break;
    }
    loaded->table.reset();
    budget->Release(loaded->bytes);
    charged_ -= loaded->bytes;
  }
  charged_ += part.bytes;
  auto table = std::make_shared<DimensionTable>();
  table->Reserve(part.rows);
  SpillReader reader(part.file);
  std::string key;
  while (true) {
    QOX_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
    if (!row.has_value()) break;
    const Value& cell = row->value(dim_key_index_);
    if (cell.is_null()) continue;
    key.clear();
    AppendValueKeyBytes(cell, &key);
    table->Add(key, DimensionTable::HashKey(key), std::move(*row));
  }
  part.table = std::move(table);
  return Status::OK();
}

Status LookupOp::PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) {
  const Column& key_col = batch->column(input_key_index_);
  const std::vector<uint32_t>& sel = batch->selection();
  const Schema& dim_schema = dimension_->schema();

  std::vector<Column> appended;
  appended.reserve(append_indices_.size());
  for (const size_t idx : append_indices_) {
    Column col(dim_schema.field(idx).type);
    col.Reserve(batch->num_physical_rows());
    appended.push_back(std::move(col));
  }

  // One pass over physical rows: selected rows probe (misses handled per
  // policy, in selection order; NULL keys never probe); dead rows get NULL
  // placeholders so the new columns stay aligned.
  std::vector<uint32_t> kept;
  kept.reserve(sel.size());
  size_t sel_pos = 0;
  std::string scratch;
  for (uint32_t r = 0; r < batch->num_physical_rows(); ++r) {
    const bool selected = sel_pos < sel.size() && sel[sel_pos] == r;
    if (selected) ++sel_pos;
    if (!selected) {
      for (Column& col : appended) col.AppendNull();
      continue;
    }
    const Row* match = nullptr;
    if (key_col.IsValid(r)) {
      scratch.clear();
      key_col.AppendKeyBytes(r, &scratch);
      const uint64_t hash = DimensionTable::HashKey(scratch);
      const DimensionTable* table = table_.get();
      if (table == nullptr) {
        const size_t p = hash % partitions_.size();
        QOX_RETURN_IF_ERROR(EnsurePartition(p));
        table = partitions_[p].table.get();
      }
      match = table->Find(scratch, hash);
    }
    if (match == nullptr) {
      switch (miss_policy_) {
        case LookupMissPolicy::kReject:
          if (ctx_ != nullptr) {
            QOX_RETURN_IF_ERROR(ctx_->Reject(batch->RowAt(r)));
          }
          for (Column& col : appended) col.AppendNull();
          continue;  // dropped from the selection
        case LookupMissPolicy::kNull:
          for (Column& col : appended) col.AppendNull();
          kept.push_back(r);
          continue;
        case LookupMissPolicy::kError: {
          Status miss = Status::NotFound(
              "lookup '" + name_ + "': unresolved key " +
              key_col.ValueAt(r).ToString());
          if (cctx != nullptr && cctx->contain) {
            cctx->contained.emplace_back(batch->RowAt(r), std::move(miss));
            for (Column& col : appended) col.AppendNull();
            continue;  // contained: dropped from the selection
          }
          return miss;
        }
      }
    }
    for (size_t i = 0; i < appended.size(); ++i) {
      appended[i].AppendValue(match->value(append_indices_[i]));
    }
    kept.push_back(r);
  }
  for (Column& col : appended) batch->AppendColumn(std::move(col));
  batch->SetSelection(std::move(kept));
  return Status::OK();
}

Status LookupOp::Finish(RowBatch* output) {
  (void)output;
  table_.reset();
  for (Partition& part : partitions_) part.table.reset();
  if (ctx_ != nullptr && ctx_->memory_budget != nullptr && charged_ > 0) {
    ctx_->memory_budget->Release(charged_);
    charged_ = 0;
  }
  return Status::OK();
}

}  // namespace qox
