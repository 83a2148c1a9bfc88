// ColumnBatch: the columnar form every per-row transform kernel runs on.
//
// A ColumnBatch stores one contiguous typed array per schema column
// (int64/timestamp, double, bool, arena-backed strings) plus a validity
// bitmap, and a selection vector of live physical rows. Kernels (filter
// evaluation, function application, hash-probe, surrogate-key assignment)
// iterate flat arrays instead of boxed `Value` variants; rows dropped by
// filters or contained by error policies simply leave the selection
// vector. Batches convert to/from RowBatch around each run of per-row ops.
//
// A cell whose runtime type differs from its column's declared type makes
// that column *boxed*: it then holds all of its cells as `Value`s, so the
// conversion never fails and every runtime type survives the round trip.
// Kernels check Column::boxed() and evaluate boxed inputs with `Value`
// semantics; typed reads and raw arrays are valid on unboxed columns only.

#ifndef QOX_COMMON_COLUMN_BATCH_H_
#define QOX_COMMON_COLUMN_BATCH_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/value.h"

namespace qox {

/// Appends the probe-key encoding of `v` to `*out`: a type-group tag byte
/// followed by the raw payload. The encoding is equality-compatible with
/// the engine's hash-lookup semantics (Value::Hash + Value::Compare as used
/// by unordered_map): int64 and timestamp share one tag (they hash and
/// compare identically), doubles get their own tag (a numeric int64 probe
/// against a double build key misses under Value::Hash, and vice versa),
/// and -0.0 is canonicalized to +0.0 (they hash and compare equal).
/// Precondition: !v.is_null() (NULL keys never probe).
void AppendValueKeyBytes(const Value& v, std::string* out);

/// One typed column: contiguous values plus a validity bitmap. Entries for
/// rows outside the owning batch's selection vector are physically present
/// but semantically dead (kernels may write arbitrary typed values there).
/// The validity bitmap is kept for boxed columns too.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {
    // String offsets carry size_+1 boundaries; seed the leading 0 so entry
    // i always spans [offsets_[i], offsets_[i+1]).
    if (type_ == DataType::kString) offsets_.push_back(0);
  }

  /// The declared type (what typed reads and boxing back produce).
  DataType type() const { return type_; }
  size_t size() const { return size_; }

  /// True once a cell's runtime type differed from the declared type: the
  /// column then holds every cell as a Value (read them with BoxedAt).
  bool boxed() const { return boxed_; }
  const Value& BoxedAt(size_t i) const { return values_[i]; }

  bool IsValid(size_t i) const {
    return (validity_[i >> 6] >> (i & 63)) & 1;
  }

  /// True when no entry is NULL — lets bulk readers skip the per-entry
  /// bitmap test (NULLs only ever enter via AppendNull).
  bool has_nulls() const { return null_count_ > 0; }

  /// Typed reads. Preconditions: !boxed(), IsValid(i) and the matching
  /// type.
  int64_t Int64At(size_t i) const { return i64_[i]; }  // int64 + timestamp
  double DoubleAt(size_t i) const { return f64_[i]; }
  bool BoolAt(size_t i) const { return b8_[i] != 0; }
  std::string_view StringAt(size_t i) const {
    return std::string_view(arena_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  /// Raw array access for kernels (unboxed, matching type only).
  const int64_t* i64_data() const { return i64_.data(); }
  const double* f64_data() const { return f64_.data(); }
  const uint8_t* b8_data() const { return b8_.data(); }

  void AppendNull() {
    Grow(false);
    ++null_count_;
    if (boxed_) {
      values_.emplace_back();
      ++size_;
      return;
    }
    switch (type_) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        i64_.push_back(0);
        break;
      case DataType::kDouble:
        f64_.push_back(0.0);
        break;
      case DataType::kBool:
        b8_.push_back(0);
        break;
      case DataType::kString:
        offsets_.push_back(static_cast<uint32_t>(arena_.size()));
        break;
      case DataType::kNull:
        break;
    }
    ++size_;
  }
  /// Typed appends. Precondition: !boxed() and the matching type.
  void AppendInt64(int64_t v) {
    Grow(true);
    i64_.push_back(v);
    ++size_;
  }
  void AppendDouble(double v) {
    Grow(true);
    f64_.push_back(v);
    ++size_;
  }
  void AppendBool(bool v) {
    Grow(true);
    b8_.push_back(v ? 1 : 0);
    ++size_;
  }
  void AppendString(std::string_view v) {
    Grow(true);
    arena_.append(v.data(), v.size());
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
    ++size_;
  }

  void Reserve(size_t n);

  /// Entry `i` as a Value: the stored cell of a boxed column, otherwise
  /// the typed payload (timestamp flag reconstructed from the declared
  /// column type).
  Value ValueAt(size_t i) const;

  /// Appends a cell of any runtime type. The first non-NULL cell whose
  /// type differs from the declared type boxes the column.
  void AppendValue(const Value& v);

  /// Appends the probe-key encoding of entry `i` (same bytes as
  /// AppendValueKeyBytes on the boxed value). Precondition: IsValid(i).
  void AppendKeyBytes(size_t i, std::string* out) const;

  /// In-place ASCII uppercasing of every string payload (kUpper kernel;
  /// lengths are unchanged so offsets stay valid). Unboxed string columns
  /// only.
  void UpperInPlaceAscii();

  /// Approximate heap footprint of the column's arrays.
  size_t ByteSize() const;

 private:
  void Grow(bool valid) {
    if ((size_ & 63) == 0) validity_.push_back(0);
    if (valid) validity_[size_ >> 6] |= uint64_t{1} << (size_ & 63);
  }

  /// Moves every entry into values_ and drops the typed arrays.
  void Box();

  DataType type_;
  bool boxed_ = false;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<uint64_t> validity_;  // bit i set = row i non-NULL
  std::vector<int64_t> i64_;        // kInt64 + kTimestamp payloads
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::string arena_;               // concatenated string payloads
  std::vector<uint32_t> offsets_;   // size_+1 boundaries into arena_
  std::vector<Value> values_;       // every entry, once boxed_
};

/// A columnar batch: one Column per schema field plus a selection vector of
/// live physical row indices (ascending — row order is preserved through
/// every kernel, so output order is input order minus dropped rows).
class ColumnBatch {
 public:
  /// Converts a row batch; a column with a cell of another runtime type is
  /// boxed. `schema`, when provided, replaces the batch's own handle as the
  /// source of column types (lets the pipeline share one Schema allocation
  /// per cut). Returns nullopt only when there is no schema or a row's
  /// width differs from it.
  static std::optional<ColumnBatch> FromRowBatch(const RowBatch& rows,
                                                 SchemaPtr schema = nullptr);

  /// Materializes the selected rows, in selection order.
  RowBatch ToRowBatch() const;

  /// Boxes one physical row (all columns). Used to route rejected or
  /// contained rows to sinks that speak rows.
  Row RowAt(size_t physical_row) const;

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }
  /// The pipeline re-points the schema after each op reshapes the columns.
  void set_schema(SchemaPtr schema) { schema_ = std::move(schema); }

  size_t num_columns() const { return columns_.size(); }
  size_t num_physical_rows() const { return num_physical_rows_; }
  /// Live rows (selection size) — the columnar analogue of num_rows().
  size_t num_rows() const { return selection_.size(); }

  Column& column(size_t c) { return columns_[c]; }
  const Column& column(size_t c) const { return columns_[c]; }

  const std::vector<uint32_t>& selection() const { return selection_; }
  void SetSelection(std::vector<uint32_t> selection) {
    selection_ = std::move(selection);
  }

  /// Column reshaping for schema-changing kernels.
  void AppendColumn(Column column) { columns_.push_back(std::move(column)); }
  void EraseColumn(size_t c) {
    columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(c));
  }
  void ReplaceColumn(size_t c, Column column) {
    columns_[c] = std::move(column);
  }

  /// Approximate heap footprint across all columns.
  size_t ByteSize() const;

 private:
  SchemaPtr schema_;
  std::vector<Column> columns_;
  std::vector<uint32_t> selection_;
  size_t num_physical_rows_ = 0;
};

}  // namespace qox

#endif  // QOX_COMMON_COLUMN_BATCH_H_
