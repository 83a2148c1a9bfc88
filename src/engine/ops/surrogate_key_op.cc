#include "engine/ops/surrogate_key_op.h"

namespace qox {

int64_t SurrogateKeyRegistry::GetOrAssignI64Locked(int64_t natural) {
  const auto [it, inserted] = i64_map_.try_emplace(natural, next_key_);
  if (inserted) ++next_key_;
  return it->second;
}

int64_t SurrogateKeyRegistry::GetOrAssignLocked(const Value& natural) {
  if (natural.is_int64() || natural.is_timestamp()) {
    return GetOrAssignI64Locked(natural.int64_value());
  }
  const auto [it, inserted] = boxed_map_.try_emplace(natural, next_key_);
  if (inserted) ++next_key_;
  return it->second;
}

int64_t SurrogateKeyRegistry::GetOrAssign(const Value& natural) {
  if (natural.is_null()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrAssignLocked(natural);
}

void SurrogateKeyRegistry::GetOrAssignBatch(const std::vector<Value>& naturals,
                                            std::vector<int64_t>* out) {
  out->clear();
  out->reserve(naturals.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const Value& natural : naturals) {
    out->push_back(natural.is_null() ? 0 : GetOrAssignLocked(natural));
  }
}

void SurrogateKeyRegistry::GetOrAssignI64Batch(const int64_t* keys,
                                               const uint8_t* nulls, size_t n,
                                               std::vector<int64_t>* out) {
  out->clear();
  out->resize(n);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = nulls != nullptr && nulls[i] != 0
                    ? 0
                    : GetOrAssignI64Locked(keys[i]);
  }
}

Result<int64_t> SurrogateKeyRegistry::Get(const Value& natural) const {
  if (natural.is_null()) return static_cast<int64_t>(0);
  std::lock_guard<std::mutex> lock(mu_);
  if (natural.is_int64() || natural.is_timestamp()) {
    const auto it = i64_map_.find(natural.int64_value());
    if (it != i64_map_.end()) return it->second;
  } else {
    const auto it = boxed_map_.find(natural);
    if (it != boxed_map_.end()) return it->second;
  }
  return Status::NotFound("no surrogate assigned for " + natural.ToString());
}

size_t SurrogateKeyRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return i64_map_.size() + boxed_map_.size();
}

SurrogateKeyOp::SurrogateKeyOp(std::string name,
                               SurrogateKeyRegistryPtr registry,
                               std::string natural_column,
                               std::string surrogate_column,
                               bool drop_natural)
    : name_(std::move(name)),
      registry_(std::move(registry)),
      natural_column_(std::move(natural_column)),
      surrogate_column_(std::move(surrogate_column)),
      drop_natural_(drop_natural) {}

Result<Schema> SurrogateKeyOp::Bind(const Schema& input) {
  if (registry_ == nullptr) {
    return Status::Invalid("surrogate key op '" + name_ + "' has no registry");
  }
  QOX_ASSIGN_OR_RETURN(natural_index_, input.FieldIndex(natural_column_));
  Schema schema = input;
  QOX_ASSIGN_OR_RETURN(
      schema, schema.AddField({surrogate_column_, DataType::kInt64, false}));
  if (drop_natural_) {
    QOX_ASSIGN_OR_RETURN(schema, schema.RemoveField(natural_column_));
  }
  return schema;
}

Status SurrogateKeyOp::PushColumnar(ColumnBatch* batch,
                                    ColumnarPushContext* cctx) {
  (void)cctx;  // assignment never fails per row
  const Column& natural = batch->column(natural_index_);
  const std::vector<uint32_t>& sel = batch->selection();

  std::vector<int64_t> surrogates;
  if (!natural.boxed() && (natural.type() == DataType::kInt64 ||
                           natural.type() == DataType::kTimestamp)) {
    // Unboxed probe: gather raw payloads for the selected rows and hit the
    // registry's int64 map directly.
    std::vector<int64_t> raw(sel.size());
    const int64_t* data = natural.i64_data();
    if (!natural.has_nulls()) {
      for (size_t i = 0; i < sel.size(); ++i) raw[i] = data[sel[i]];
      registry_->GetOrAssignI64Batch(raw.data(), nullptr, raw.size(),
                                     &surrogates);
    } else {
      std::vector<uint8_t> nulls(sel.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        raw[i] = data[sel[i]];
        nulls[i] = natural.IsValid(sel[i]) ? 0 : 1;
      }
      registry_->GetOrAssignI64Batch(raw.data(), nulls.data(), raw.size(),
                                     &surrogates);
    }
  } else {
    std::vector<Value> keys;
    keys.reserve(sel.size());
    for (const uint32_t r : sel) keys.push_back(natural.ValueAt(r));
    registry_->GetOrAssignBatch(keys, &surrogates);
  }

  Column out(DataType::kInt64);
  out.Reserve(batch->num_physical_rows());
  size_t sel_pos = 0;
  for (uint32_t r = 0; r < batch->num_physical_rows(); ++r) {
    if (sel_pos < sel.size() && sel[sel_pos] == r) {
      out.AppendInt64(surrogates[sel_pos]);
      ++sel_pos;
    } else {
      out.AppendInt64(0);  // dead row: placeholder, never materialized
    }
  }
  batch->AppendColumn(std::move(out));
  if (drop_natural_) batch->EraseColumn(natural_index_);
  return Status::OK();
}

}  // namespace qox
