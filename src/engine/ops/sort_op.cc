#include "engine/ops/sort_op.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

namespace qox {

SortOp::SortOp(std::string name, std::vector<SortKey> keys)
    : name_(std::move(name)), keys_(std::move(keys)) {}

Result<Schema> SortOp::Bind(const Schema& input) {
  if (keys_.empty()) return Status::Invalid("sort '" + name_ + "' has no keys");
  indices_.clear();
  for (const SortKey& key : keys_) {
    QOX_ASSIGN_OR_RETURN(const size_t idx, input.FieldIndex(key.column));
    indices_.push_back(idx);
  }
  schema_ = input;
  buffered_.clear();
  runs_.clear();
  charged_ = 0;
  return input;
}

Status SortOp::Open(OperatorContext* ctx) {
  ctx_ = ctx;
  enforce_ = ctx != nullptr && ctx->BudgetEnforced();
  return Status::OK();
}

bool SortOp::Less(const Row& a, const Row& b) const {
  for (size_t i = 0; i < indices_.size(); ++i) {
    const int c = a.value(indices_[i]).Compare(b.value(indices_[i]));
    if (c != 0) return keys_[i].descending ? c > 0 : c < 0;
  }
  return false;
}

Status SortOp::BufferRow(Row row) {
  if (enforce_) {
    const size_t bytes = row.ByteSize();
    if (!ctx_->memory_budget->TryReserve(bytes)) {
      QOX_RETURN_IF_ERROR(SpillBuffered());
      if (!ctx_->memory_budget->TryReserve(bytes)) {
        // Budget smaller than one row: overrun by the irreducible minimum
        // and degrade to row-at-a-time spilling rather than deadlock.
        ctx_->memory_budget->ForceReserve(bytes);
      }
    }
    charged_ += bytes;
  }
  buffered_.push_back(std::move(row));
  return Status::OK();
}

Status SortOp::SpillBuffered() {
  if (buffered_.empty()) return Status::OK();
  std::stable_sort(
      buffered_.begin(), buffered_.end(),
      [this](const Row& a, const Row& b) { return Less(a, b); });
  QOX_ASSIGN_OR_RETURN(std::unique_ptr<SpillWriter> writer,
                       ctx_->spill->CreateRun(name_, schema_));
  for (const Row& row : buffered_) QOX_RETURN_IF_ERROR(writer->Append(row));
  QOX_ASSIGN_OR_RETURN(SpillFile file, writer->Finalize());
  runs_.push_back(std::move(file));
  buffered_.clear();
  ctx_->memory_budget->Release(charged_);
  charged_ = 0;
  return Status::OK();
}

Status SortOp::Push(RowBatch input, RowBatch* output) {
  (void)output;
  if (!enforce_) {
    buffered_.insert(buffered_.end(),
                     std::make_move_iterator(input.rows().begin()),
                     std::make_move_iterator(input.rows().end()));
    return Status::OK();
  }
  for (Row& row : input.rows()) {
    QOX_RETURN_IF_ERROR(BufferRow(std::move(row)));
  }
  return Status::OK();
}

Status SortOp::Finish(RowBatch* output) {
  std::stable_sort(
      buffered_.begin(), buffered_.end(),
      [this](const Row& a, const Row& b) { return Less(a, b); });
  if (!runs_.empty()) return MergeRuns(output);
  for (Row& row : buffered_) output->Append(std::move(row));
  buffered_.clear();
  if (enforce_ && charged_ > 0) {
    ctx_->memory_budget->Release(charged_);
    charged_ = 0;
  }
  return Status::OK();
}

Status SortOp::MergeRuns(RowBatch* output) {
  // Each run holds a sorted, contiguous arrival-order segment; the
  // in-memory tail is the final segment (highest source index). Breaking
  // ties toward the lower source index therefore reproduces the order a
  // single std::stable_sort over the whole input would produce.
  const size_t num_sources = runs_.size() + 1;
  std::vector<std::unique_ptr<SpillReader>> readers;
  readers.reserve(runs_.size());
  for (const SpillFile& run : runs_) {
    readers.push_back(std::make_unique<SpillReader>(run));
  }
  std::vector<std::optional<Row>> heads(num_sources);
  size_t tail_pos = 0;
  const auto advance = [&](size_t src) -> Status {
    if (src < readers.size()) {
      QOX_ASSIGN_OR_RETURN(heads[src], readers[src]->Next());
    } else if (tail_pos < buffered_.size()) {
      heads[src] = std::move(buffered_[tail_pos++]);
    } else {
      heads[src].reset();
    }
    return Status::OK();
  };
  for (size_t src = 0; src < num_sources; ++src) {
    QOX_RETURN_IF_ERROR(advance(src));
  }
  while (true) {
    size_t best = num_sources;
    for (size_t src = 0; src < num_sources; ++src) {
      if (!heads[src].has_value()) continue;
      if (best == num_sources || Less(*heads[src], *heads[best])) best = src;
    }
    if (best == num_sources) break;
    output->Append(std::move(*heads[best]));
    QOX_RETURN_IF_ERROR(advance(best));
  }
  buffered_.clear();
  runs_.clear();
  if (enforce_ && charged_ > 0) {
    ctx_->memory_budget->Release(charged_);
    charged_ = 0;
  }
  return Status::OK();
}

std::vector<std::string> SortOp::InputColumns() const {
  std::vector<std::string> cols;
  cols.reserve(keys_.size());
  for (const SortKey& key : keys_) cols.push_back(key.column);
  return cols;
}

}  // namespace qox
