// Shared scaffolding for engine and core tests.

#ifndef QOX_TESTS_TEST_UTIL_H_
#define QOX_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/column_batch.h"
#include "common/row.h"
#include "engine/executor.h"
#include "engine/operator.h"
#include "storage/mem_table.h"

namespace qox {
namespace testing_util {

/// Schema used by most engine tests: id!, category, amount, note.
inline Schema SimpleSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"category", DataType::kString, true},
                 {"amount", DataType::kDouble, true},
                 {"note", DataType::kString, true}});
}

inline Row SimpleRow(int64_t id, const std::string& category, double amount,
                     const std::string& note = "n") {
  return Row({Value::Int64(id), Value::String(category),
              Value::Double(amount), Value::String(note)});
}

/// n rows with ids 0..n-1, categories cycling a..c, ~1/8 NULL amounts.
inline std::vector<Row> SimpleRows(size_t n) {
  std::vector<Row> rows;
  const char* categories[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    Row row = SimpleRow(static_cast<int64_t>(i), categories[i % 3],
                        static_cast<double>(i % 100));
    if (i % 8 == 7) row.Set(2, Value::Null());
    rows.push_back(std::move(row));
  }
  return rows;
}

/// In-memory source preloaded with rows.
inline DataStorePtr MakeSource(const Schema& schema,
                               const std::vector<Row>& rows,
                               const std::string& name = "src") {
  auto table = std::make_shared<MemTable>(name, schema);
  const Status st = table->Append(RowBatch(schema, rows));
  (void)st;
  return table;
}

/// Runs one operator standalone over the rows the way Pipeline does: Bind +
/// Open, then the rows in one batch through Push (blocking ops, which take
/// the batch by move) or FromRowBatch -> PushColumnar -> ToRowBatch
/// (per-row ops), then Finish. Returns the output rows. Row errors fail
/// fast.
inline Result<std::vector<Row>> RunOperator(Operator* op, const Schema& input,
                                            const std::vector<Row>& rows,
                                            OperatorContext* ctx = nullptr) {
  OperatorContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  QOX_ASSIGN_OR_RETURN(const Schema out_schema, op->Bind(input));
  QOX_RETURN_IF_ERROR(op->Open(ctx));
  const SchemaPtr out_ptr = MakeSchemaPtr(out_schema);
  RowBatch in(input, rows);
  RowBatch out(out_ptr);
  if (op->IsBlocking()) {
    QOX_RETURN_IF_ERROR(op->Push(std::move(in), &out));
  } else {
    std::optional<ColumnBatch> columns = ColumnBatch::FromRowBatch(in);
    if (!columns.has_value()) return Status::Invalid("row width mismatch");
    ColumnarPushContext cctx;
    QOX_RETURN_IF_ERROR(op->PushColumnar(&*columns, &cctx));
    columns->set_schema(out_ptr);
    out = columns->ToRowBatch();
  }
  RowBatch finished(out_ptr);
  QOX_RETURN_IF_ERROR(op->Finish(&finished));
  std::vector<Row> result = std::move(out.rows());
  result.insert(result.end(), std::make_move_iterator(finished.rows().begin()),
                std::make_move_iterator(finished.rows().end()));
  return result;
}

/// Order-insensitive row-multiset equality.
inline bool SameMultiset(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// A target that takes each appended batch's rows by move and leaves a
/// landed batch empty, as a store that owns its rows may. Its
/// `enospc_on_call`-th append (1-based; 0 never) moves the first half of
/// the batch in and fails with kResourceExhausted, leaving the rest of the
/// rows where they were.
class DrainingStore : public DataStore {
 public:
  explicit DrainingStore(std::shared_ptr<MemTable> inner,
                         int enospc_on_call = 0)
      : inner_(std::move(inner)), enospc_on_call_(enospc_on_call) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  Result<size_t> NumRows() const override { return inner_->NumRows(); }
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override {
    return inner_->Scan(batch_size, fan_out, consumer);
  }
  Status Append(const RowBatch& batch) override {
    return inner_->Append(batch);
  }
  Status Append(RowBatch&& batch) override {
    const bool fault = ++calls_ == enospc_on_call_;
    const size_t land = fault ? batch.num_rows() / 2 : batch.num_rows();
    RowBatch landed(batch.schema_ptr());
    for (size_t i = 0; i < land; ++i) landed.Append(std::move(batch.row(i)));
    QOX_RETURN_IF_ERROR(inner_->Append(std::move(landed)));
    if (fault) return Status::ResourceExhausted("injected ENOSPC mid-batch");
    batch.Clear();
    return Status::OK();
  }
  Status Truncate() override { return inner_->Truncate(); }

 private:
  const std::shared_ptr<MemTable> inner_;
  const int enospc_on_call_;
  int calls_ = 0;
};

}  // namespace testing_util
}  // namespace qox

#endif  // QOX_TESTS_TEST_UTIL_H_
