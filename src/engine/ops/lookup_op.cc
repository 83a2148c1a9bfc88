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
  table_.clear();
  partitions_.clear();
  partitioned_ = false;
  charged_ = 0;
  flat_table_.reset();
  const bool enforce = ctx != nullptr && ctx->BudgetEnforced();
  MemoryBudget* budget = ctx != nullptr ? ctx->memory_budget : nullptr;

  // Fast path: a flat table, shared across flows through the process-wide
  // DimensionCache when the store is versioned, or built locally when not.
  // Budget-enforced flows may only reuse a completed shared build (charged
  // against their budget) — never start one, since an in-flight build is
  // unbudgeted working set; on a refused reservation or a miss they keep
  // the legacy streamed/spill build below.
  const std::string version = dimension_->ContentVersion();
  if (!version.empty()) {
    DimensionCache& cache = DimensionCache::Instance();
    if (enforce) {
      DimensionTablePtr hit =
          cache.TryGet(*dimension_, version, dim_key_index_);
      if (hit != nullptr && budget->TryReserve(hit->ByteSize())) {
        charged_ = hit->ByteSize();
        flat_table_ = std::move(hit);
        if (ctx_->dim_cache_hits != nullptr) {
          ctx_->dim_cache_hits->fetch_add(1, std::memory_order_relaxed);
        }
      }
    } else {
      QOX_ASSIGN_OR_RETURN(
          DimensionCache::Acquired acquired,
          cache.GetOrBuild(*dimension_, version, dim_key_index_));
      if (budget != nullptr && !budget->unlimited()) {
        // Finite budget without enforcement still gets charged (cache
        // memory is real working set); unlimited budgets keep reporting 0
        // high water, as documented.
        if (budget->TryReserve(acquired.table->ByteSize())) {
          charged_ = acquired.table->ByteSize();
          flat_table_ = std::move(acquired.table);
        }
      } else {
        flat_table_ = std::move(acquired.table);
      }
      if (flat_table_ != nullptr && ctx_ != nullptr) {
        std::atomic<size_t>* counter =
            acquired.built ? ctx_->dim_cache_builds : ctx_->dim_cache_hits;
        if (counter != nullptr) {
          counter->fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  } else if (!enforce) {
    // Uncacheable store: build the flat table locally so the kernel still
    // probes encoded key bytes without per-probe Value boxing.
    QOX_ASSIGN_OR_RETURN(flat_table_,
                         DimensionTable::Build(*dimension_, dim_key_index_));
  }
  if (flat_table_ != nullptr) return Status::OK();

  // The dimension is streamed, never materialized whole: rows build the
  // in-memory table while the budget admits them; the first refused
  // reservation repartitions that table into spill runs and the rest of
  // the scan is routed straight to the partition writers, so the build's
  // working set stays within the budget plus one scan batch.
  std::vector<std::unique_ptr<SpillWriter>> writers;
  ValueHash hasher;
  size_t rows_seen = 0;
  QOX_RETURN_IF_ERROR(dimension_->Scan(
      kDimScanBatch, [&](RowBatch& batch) -> Status {
        for (Row& row : batch.rows()) {
          ++rows_seen;
          const Value& key = row.value(dim_key_index_);
          if (!partitioned_) {
            // First occurrence of a key wins, matching what emplace on a
            // whole-dimension build (and on partition load) would keep.
            if (table_.find(key) != table_.end()) continue;
            const size_t row_bytes = key.ByteSize() + row.ByteSize();
            if (!enforce || ctx_->memory_budget->TryReserve(row_bytes)) {
              if (enforce) charged_ += row_bytes;
              Value key_copy = key;
              table_.emplace(std::move(key_copy), std::move(row));
              continue;
            }
            QOX_RETURN_IF_ERROR(StartPartitions(rows_seen, &writers));
          }
          const size_t p = hasher(key) % writers.size();
          QOX_RETURN_IF_ERROR(writers[p]->Append(row));
          partitions_[p].bytes += key.ByteSize() + row.ByteSize();
        }
        return Status::OK();
      }));
  for (size_t p = 0; p < writers.size(); ++p) {
    QOX_ASSIGN_OR_RETURN(partitions_[p].file, writers[p]->Finalize());
  }
  return Status::OK();
}

Status LookupOp::StartPartitions(
    size_t rows_seen, std::vector<std::unique_ptr<SpillWriter>>* writers) {
  // Size partitions to roughly half the budget each, so one cached
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
  partitioned_ = true;
  partitions_.resize(k);
  writers->resize(k);
  for (size_t p = 0; p < k; ++p) {
    QOX_ASSIGN_OR_RETURN(
        (*writers)[p],
        ctx_->spill->CreateRun(name_ + ".part" + std::to_string(p),
                               dimension_->schema()));
  }
  // Drain the in-memory table into the partition files and hand the
  // charge back: from here on the build side lives on disk.
  ValueHash hasher;
  for (auto& entry : table_) {
    const size_t p = hasher(entry.first) % k;
    QOX_RETURN_IF_ERROR((*writers)[p]->Append(entry.second));
    partitions_[p].bytes += entry.first.ByteSize() + entry.second.ByteSize();
  }
  table_.clear();
  if (charged_ > 0) {
    ctx_->memory_budget->Release(charged_);
    charged_ = 0;
  }
  return Status::OK();
}

Status LookupOp::EnsurePartition(size_t p) {
  Partition& part = partitions_[p];
  if (part.loaded) return Status::OK();
  while (!ctx_->memory_budget->TryReserve(part.bytes)) {
    bool evicted = false;
    for (Partition& other : partitions_) {
      if (!other.loaded) continue;
      other.table.clear();
      other.loaded = false;
      ctx_->memory_budget->Release(other.bytes);
      charged_ -= other.bytes;
      evicted = true;
      break;
    }
    if (!evicted) {
      // Nothing left to evict: one partition alone exceeds the budget.
      // Overrun rather than deadlock (visible in the high-water mark).
      ctx_->memory_budget->ForceReserve(part.bytes);
      break;
    }
  }
  charged_ += part.bytes;
  SpillReader reader(part.file);
  while (true) {
    QOX_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
    if (!row.has_value()) break;
    Value key = row->value(dim_key_index_);
    part.table.emplace(std::move(key), std::move(*row));
  }
  part.loaded = true;
  return Status::OK();
}

Result<const Row*> LookupOp::Probe(const Value& key) {
  if (!partitioned_) {
    const auto it = table_.find(key);
    return it == table_.end() ? nullptr : &it->second;
  }
  const size_t p = ValueHash{}(key) % partitions_.size();
  QOX_RETURN_IF_ERROR(EnsurePartition(p));
  const Table& table = partitions_[p].table;
  const auto it = table.find(key);
  return it == table.end() ? nullptr : &it->second;
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
      if (flat_table_ != nullptr) {
        scratch.clear();
        key_col.AppendKeyBytes(r, &scratch);
        match = flat_table_->Probe(scratch);
      } else {
        QOX_ASSIGN_OR_RETURN(match, Probe(key_col.ValueAt(r)));
      }
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
  table_.clear();
  flat_table_.reset();
  for (Partition& part : partitions_) {
    part.table.clear();
    part.loaded = false;
  }
  if (ctx_ != nullptr && ctx_->memory_budget != nullptr && charged_ > 0) {
    ctx_->memory_budget->Release(charged_);
    charged_ = 0;
  }
  return Status::OK();
}

}  // namespace qox
