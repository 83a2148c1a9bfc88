#include "common/column_batch.h"

#include <cctype>

namespace qox {

namespace {

// Tag bytes group types exactly as Value::Hash does: int64 and timestamp
// share a group (equal hash, equal compare), doubles are separate.
enum : char {
  kTagBool = 1,
  kTagI64 = 2,   // int64 + timestamp
  kTagF64 = 3,
  kTagStr = 4,
};

void AppendI64(int64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  out->append(buf, sizeof(buf));
}

void AppendF64(double v, std::string* out) {
  if (v == 0.0) v = 0.0;  // fold -0.0 (hashes and compares equal to +0.0)
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  out->append(buf, sizeof(buf));
}

}  // namespace

void AppendValueKeyBytes(const Value& v, std::string* out) {
  switch (v.type()) {
    case DataType::kBool:
      out->push_back(kTagBool);
      out->push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
    case DataType::kTimestamp:
      out->push_back(kTagI64);
      AppendI64(v.int64_value(), out);
      break;
    case DataType::kDouble:
      out->push_back(kTagF64);
      AppendF64(v.double_value(), out);
      break;
    case DataType::kString:
      out->push_back(kTagStr);
      out->append(v.string_value());
      break;
    case DataType::kNull:
      break;  // precondition violation; encode nothing
  }
}

void Column::Reserve(size_t n) {
  validity_.reserve((n + 63) / 64);
  if (boxed_) {
    values_.reserve(n);
    return;
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      i64_.reserve(n);
      break;
    case DataType::kDouble:
      f64_.reserve(n);
      break;
    case DataType::kBool:
      b8_.reserve(n);
      break;
    case DataType::kString:
      offsets_.reserve(n + 1);
      break;
    case DataType::kNull:
      break;
  }
}

Value Column::ValueAt(size_t i) const {
  if (boxed_) return values_[i];
  if (!IsValid(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(i64_[i]);
    case DataType::kTimestamp:
      return Value::Timestamp(i64_[i]);
    case DataType::kDouble:
      return Value::Double(f64_[i]);
    case DataType::kBool:
      return Value::Bool(b8_[i] != 0);
    case DataType::kString:
      return Value::String(std::string(StringAt(i)));
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void Column::Box() {
  std::vector<Value> values;
  values.reserve(size_);
  for (size_t i = 0; i < size_; ++i) values.push_back(ValueAt(i));
  values_ = std::move(values);
  boxed_ = true;
  i64_ = {};
  f64_ = {};
  b8_ = {};
  arena_ = {};
  offsets_ = {};
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (!boxed_ && v.type() != type_) Box();
  if (boxed_) {
    Grow(true);
    values_.push_back(v);
    ++size_;
    return;
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      AppendInt64(v.int64_value());
      break;
    case DataType::kDouble:
      AppendDouble(v.double_value());
      break;
    case DataType::kBool:
      AppendBool(v.bool_value());
      break;
    case DataType::kString:
      AppendString(v.string_value());
      break;
    case DataType::kNull:
      break;  // unreachable: a non-NULL cell boxes a kNull column
  }
}

void Column::AppendKeyBytes(size_t i, std::string* out) const {
  if (boxed_) {
    AppendValueKeyBytes(values_[i], out);
    return;
  }
  switch (type_) {
    case DataType::kBool:
      out->push_back(kTagBool);
      out->push_back(b8_[i] != 0 ? 1 : 0);
      break;
    case DataType::kInt64:
    case DataType::kTimestamp:
      out->push_back(kTagI64);
      AppendI64(i64_[i], out);
      break;
    case DataType::kDouble:
      out->push_back(kTagF64);
      AppendF64(f64_[i], out);
      break;
    case DataType::kString: {
      out->push_back(kTagStr);
      const std::string_view s = StringAt(i);
      out->append(s.data(), s.size());
      break;
    }
    case DataType::kNull:
      break;
  }
}

void Column::UpperInPlaceAscii() {
  for (char& c : arena_) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
}

size_t Column::ByteSize() const {
  size_t boxed_bytes = 0;
  for (const Value& v : values_) boxed_bytes += v.ByteSize();
  return validity_.size() * sizeof(uint64_t) + i64_.size() * sizeof(int64_t) +
         f64_.size() * sizeof(double) + b8_.size() +
         offsets_.size() * sizeof(uint32_t) + arena_.size() + boxed_bytes;
}

namespace {

// Fills `col` from column `c` of `rows`: one tight typed loop while every
// cell is NULL or matches (`is_type`), then boxed appends from the first
// mismatching cell on.
template <typename IsType, typename AppendTyped>
void FillColumn(const RowBatch& rows, size_t c, Column* col, IsType is_type,
                AppendTyped append_typed) {
  const size_t n = rows.num_rows();
  size_t r = 0;
  for (; r < n; ++r) {
    const Value& v = rows.row(r).value(c);
    if (v.is_null()) {
      col->AppendNull();
    } else if (is_type(v)) {
      append_typed(v);
    } else {
      break;
    }
  }
  for (; r < n; ++r) col->AppendValue(rows.row(r).value(c));
}

}  // namespace

std::optional<ColumnBatch> ColumnBatch::FromRowBatch(const RowBatch& rows,
                                                     SchemaPtr schema) {
  ColumnBatch batch;
  batch.schema_ = schema != nullptr ? std::move(schema) : rows.schema_ptr();
  if (batch.schema_ == nullptr) return std::nullopt;
  const Schema& s = *batch.schema_;
  const size_t n_cols = s.num_fields();
  const size_t n_rows = rows.num_rows();
  for (size_t r = 0; r < n_rows; ++r) {
    if (rows.row(r).num_values() != n_cols) return std::nullopt;
  }
  batch.columns_.reserve(n_cols);
  // Column-major with the type switch hoisted out of the row loop: each
  // column fills as one tight typed loop (inline null/type tests per cell)
  // instead of a per-cell AppendValue dispatch.
  for (size_t c = 0; c < n_cols; ++c) {
    Column col(s.field(c).type);
    col.Reserve(n_rows);
    switch (col.type()) {
      case DataType::kInt64:
        FillColumn(
            rows, c, &col, [](const Value& v) { return v.is_int64(); },
            [&col](const Value& v) { col.AppendInt64(v.int64_value()); });
        break;
      case DataType::kTimestamp:
        FillColumn(
            rows, c, &col, [](const Value& v) { return v.is_timestamp(); },
            [&col](const Value& v) { col.AppendInt64(v.timestamp_micros()); });
        break;
      case DataType::kDouble:
        FillColumn(
            rows, c, &col, [](const Value& v) { return v.is_double(); },
            [&col](const Value& v) { col.AppendDouble(v.double_value()); });
        break;
      case DataType::kBool:
        FillColumn(
            rows, c, &col, [](const Value& v) { return v.is_bool(); },
            [&col](const Value& v) { col.AppendBool(v.bool_value()); });
        break;
      case DataType::kString:
        FillColumn(
            rows, c, &col, [](const Value& v) { return v.is_string(); },
            [&col](const Value& v) { col.AppendString(v.string_value()); });
        break;
      case DataType::kNull:
        FillColumn(
            rows, c, &col, [](const Value&) { return false; },
            [](const Value&) {});
        break;
    }
    batch.columns_.push_back(std::move(col));
  }
  batch.num_physical_rows_ = n_rows;
  batch.selection_.resize(n_rows);
  for (size_t r = 0; r < n_rows; ++r) {
    batch.selection_[r] = static_cast<uint32_t>(r);
  }
  return batch;
}

Row ColumnBatch::RowAt(size_t physical_row) const {
  std::vector<Value> cells;
  cells.reserve(columns_.size());
  for (const Column& col : columns_) {
    cells.push_back(col.ValueAt(physical_row));
  }
  return Row(std::move(cells));
}

RowBatch ColumnBatch::ToRowBatch() const {
  const size_t n = selection_.size();
  const size_t n_cols = columns_.size();
  // Column-major materialization: rows start as all-NULL cell vectors
  // (monostate Values are trivial to construct), then each column fills its
  // slot across all selected rows in one typed loop. Invalid entries keep
  // the default NULL, matching ValueAt's row-major boxing exactly.
  std::vector<Row> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back(std::vector<Value>(n_cols));
  for (size_t c = 0; c < n_cols; ++c) {
    const Column& col = columns_[c];
    if (col.boxed()) {
      for (size_t i = 0; i < n; ++i) {
        out[i].value(c) = col.BoxedAt(selection_[i]);
      }
      continue;
    }
    const bool nulls = col.has_nulls();
    switch (col.type()) {
      case DataType::kInt64: {
        const int64_t* data = col.i64_data();
        if (!nulls) {
          for (size_t i = 0; i < n; ++i) {
            out[i].value(c) = Value::Int64(data[selection_[i]]);
          }
          break;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = selection_[i];
          if (col.IsValid(r)) out[i].value(c) = Value::Int64(data[r]);
        }
        break;
      }
      case DataType::kTimestamp: {
        const int64_t* data = col.i64_data();
        if (!nulls) {
          for (size_t i = 0; i < n; ++i) {
            out[i].value(c) = Value::Timestamp(data[selection_[i]]);
          }
          break;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = selection_[i];
          if (col.IsValid(r)) out[i].value(c) = Value::Timestamp(data[r]);
        }
        break;
      }
      case DataType::kDouble: {
        const double* data = col.f64_data();
        if (!nulls) {
          for (size_t i = 0; i < n; ++i) {
            out[i].value(c) = Value::Double(data[selection_[i]]);
          }
          break;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = selection_[i];
          if (col.IsValid(r)) out[i].value(c) = Value::Double(data[r]);
        }
        break;
      }
      case DataType::kBool: {
        const uint8_t* data = col.b8_data();
        if (!nulls) {
          for (size_t i = 0; i < n; ++i) {
            out[i].value(c) = Value::Bool(data[selection_[i]] != 0);
          }
          break;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = selection_[i];
          if (col.IsValid(r)) out[i].value(c) = Value::Bool(data[r] != 0);
        }
        break;
      }
      case DataType::kString:
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = selection_[i];
          if (nulls && !col.IsValid(r)) continue;
          out[i].value(c) = Value::String(std::string(col.StringAt(r)));
        }
        break;
      case DataType::kNull:
        break;  // cells already NULL
    }
  }
  return RowBatch(schema_, std::move(out));
}

size_t ColumnBatch::ByteSize() const {
  size_t total = selection_.size() * sizeof(uint32_t);
  for (const Column& col : columns_) total += col.ByteSize();
  return total;
}

}  // namespace qox
