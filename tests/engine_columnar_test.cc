// Per-row kernel runs end to end: flows whose filter, function, lookup and
// surrogate-key ops run on ColumnBatches must load exactly the rows, rejects,
// ledger entries and key sequences this file computes on its own —
// including for cells whose runtime type differs from their column's
// declared type (boxed columns) and while poison splits the runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "engine/ops/surrogate_key_op.h"
#include "engine/quarantine.h"
#include "storage/dead_letter_store.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::MakeSource;
using testing_util::SimpleRow;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

constexpr size_t kBatch = 32;

Schema DimSchema() {
  return Schema({{"code", DataType::kString, false},
                 {"desc", DataType::kString, false}});
}

std::shared_ptr<MemTable> MakeDim(bool with_c) {
  auto dim = std::make_shared<MemTable>("dim", DimSchema());
  RowBatch batch(DimSchema());
  batch.Append(Row({Value::String("a"), Value::String("alpha")}));
  batch.Append(Row({Value::String("b"), Value::String("beta")}));
  if (with_c) {
    batch.Append(Row({Value::String("c"), Value::String("gamma")}));
  }
  EXPECT_TRUE(dim->Append(batch).ok());
  return dim;
}

/// The dimension's desc for `code`, NULL on a miss.
Value Desc(const std::string& code, bool with_c) {
  if (code == "a") return Value::String("alpha");
  if (code == "b") return Value::String("beta");
  if (code == "c" && with_c) return Value::String("gamma");
  return Value::Null();
}

/// lookup -> filter -> function -> sort: one run of three per-row ops
/// followed by a blocking tail, so the run hands rows back mid-pipeline.
FlowSpec MakeFlow(DataStorePtr source, DataStorePtr dim, DataStorePtr target,
                  LookupMissPolicy miss_policy) {
  FlowSpec spec;
  spec.id = "columnar_flow";
  spec.source = std::move(source);
  spec.transforms.push_back([dim, miss_policy]() -> OperatorPtr {
    return std::make_unique<LookupOp>("lkp", dim, "category", "code",
                                      std::vector<std::string>{"desc"},
                                      miss_policy);
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("sort",
                                    std::vector<SortKey>{{"id", false}});
  });
  spec.target = std::move(target);
  return spec;
}

Schema TargetSchema(const DataStorePtr& dim, LookupMissPolicy miss_policy) {
  LookupOp lkp("lkp", dim, "category", "code", {"desc"}, miss_policy);
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  return fn.Bind(lkp.Bind(SimpleSchema()).value()).value();
}

/// What MakeFlow loads: every input row whose category resolves (any row
/// under kNull) and whose amount is not NULL, with desc and scaled
/// appended, in id order (SimpleRows ids ascend, so input order).
std::vector<Row> ExpectedWarehouse(const std::vector<Row>& input, bool with_c,
                                   LookupMissPolicy miss_policy) {
  std::vector<Row> out;
  for (const Row& row : input) {
    const Value desc = Desc(row.value(1).string_value(), with_c);
    if (desc.is_null() && miss_policy != LookupMissPolicy::kNull) continue;
    if (row.value(2).is_null()) continue;
    Row expected = row;
    expected.Append(desc);
    expected.Append(Value::Double(row.value(2).double_value() * 2.0));
    out.push_back(std::move(expected));
  }
  return out;
}

/// Expects `actual` to hold exactly `expected`, runtime cell types included
/// (Row equality alone is numeric-tolerant).
void ExpectSameCells(const std::vector<Row>& actual,
                     const std::vector<Row>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(actual[i] == expected[i])
        << "row " << i << ": " << actual[i].ToString() << " vs "
        << expected[i].ToString();
    ASSERT_EQ(actual[i].num_values(), expected[i].num_values());
    for (size_t c = 0; c < expected[i].num_values(); ++c) {
      EXPECT_EQ(actual[i].value(c).type(), expected[i].value(c).type())
          << "row " << i << " col " << c;
    }
  }
}

struct RunResult {
  std::vector<Row> warehouse;
  RunMetrics metrics;
  Status status;
};

RunResult RunFlow(const std::vector<Row>& input, LookupMissPolicy miss_policy,
                  bool with_c, ExecutionConfig config,
                  const DataStorePtr& reject_store = nullptr,
                  const DeadLetterStorePtr& dlq = nullptr) {
  auto dim = MakeDim(with_c);
  auto target = std::make_shared<MemTable>(
      "wh", TargetSchema(dim, miss_policy));
  config.batch_size = kBatch;
  config.reject_store = reject_store;
  config.dead_letter = dlq;
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow(MakeSource(SimpleSchema(), input), dim, target, miss_policy),
      config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  RunResult result;
  result.warehouse = target->ReadAll().value().rows();
  if (metrics.ok()) result.metrics = metrics.value();
  return result;
}

/// Runs `rows` through `transforms` into a fresh warehouse whose schema is
/// the chain's bound output.
RunResult RunChain(const Schema& schema, const std::vector<Row>& rows,
                   std::vector<OperatorFactory> transforms,
                   ExecutionConfig config = {}) {
  Schema out = schema;
  for (const OperatorFactory& make : transforms) {
    out = make()->Bind(out).value();
  }
  auto target = std::make_shared<MemTable>("wh", out);
  FlowSpec spec;
  spec.id = "boxed_flow";
  spec.source = MakeSource(schema, rows);
  spec.transforms = std::move(transforms);
  spec.target = target;
  RunResult result;
  const Result<RunMetrics> metrics = Executor::Run(spec, config);
  result.status = metrics.status();
  if (metrics.ok()) result.metrics = metrics.value();
  result.warehouse = target->ReadAll().value().rows();
  return result;
}

TEST(ColumnarExecutionTest, KernelRunLoadsTheExpectedRows) {
  const std::vector<Row> input = SimpleRows(300);
  const RunResult run =
      RunFlow(input, LookupMissPolicy::kNull, /*with_c=*/true, {});
  // Every extracted row enters the lookup -> filter -> function run once,
  // in batches of kBatch.
  EXPECT_EQ(run.metrics.columnar_rows, input.size());
  EXPECT_EQ(run.metrics.columnar_batches, (input.size() + kBatch - 1) / kBatch);
  ExpectSameCells(run.warehouse,
                  ExpectedWarehouse(input, true, LookupMissPolicy::kNull));
}

TEST(ColumnarExecutionTest, StreamingSchedulerLoadsTheExpectedRows) {
  const std::vector<Row> input = SimpleRows(300);
  ExecutionConfig config;
  config.streaming = true;
  const RunResult run =
      RunFlow(input, LookupMissPolicy::kNull, /*with_c=*/true, config);
  EXPECT_EQ(run.metrics.columnar_rows, input.size());
  ExpectSameCells(run.warehouse,
                  ExpectedWarehouse(input, true, LookupMissPolicy::kNull));
}

// Rejected rows leave through the selection vector: the reject sink must
// receive exactly these rows, in this order — per batch, the lookup's
// misses first, then the NULL amounts among the rows the lookup kept.
TEST(ColumnarExecutionTest, RejectSinkReceivesTheExpectedRowsInOrder) {
  const std::vector<Row> input = SimpleRows(120);  // categories cycle a,b,c
  auto rejects = std::make_shared<MemTable>("rej", RejectStoreSchema());

  // Dimension lacks "c": every third row is rejected by the strict lookup.
  const RunResult run = RunFlow(input, LookupMissPolicy::kReject,
                                /*with_c=*/false, {}, rejects);

  const auto record = [](const Row& row) {
    return Row({Value::String("columnar_flow"), Value::Int64(0),
                Value::Int64(1), Value::String(row.ToString())});
  };
  std::vector<Row> expected;
  for (size_t begin = 0; begin < input.size(); begin += kBatch) {
    const size_t end = std::min(begin + kBatch, input.size());
    for (size_t r = begin; r < end; ++r) {
      if (input[r].value(1).string_value() == "c") {
        expected.push_back(record(input[r]));
      }
    }
    for (size_t r = begin; r < end; ++r) {
      const Value desc = Desc(input[r].value(1).string_value(), false);
      if (desc.is_null() || !input[r].value(2).is_null()) continue;
      Row looked_up = input[r];
      looked_up.Append(desc);
      expected.push_back(record(looked_up));
    }
  }
  // 40 lookup misses (category "c") + 10 NULL-amount filter rejects that
  // were not already gone (ids ≡ 7 mod 8, minus the 5 also ≡ 2 mod 3).
  ASSERT_EQ(expected.size(), 50u);
  EXPECT_EQ(run.metrics.rows_rejected, 50u);
  EXPECT_EQ(rejects->ReadAll().value().rows(), expected);
  ExpectSameCells(run.warehouse,
                  ExpectedWarehouse(input, false, LookupMissPolicy::kReject));
}

// Quarantined rows (lookup misses under kError with ErrorPolicy::
// kQuarantine) also leave via the selection vector; the dead-letter ledger
// holds exactly the unresolved rows, as they entered the lookup.
TEST(ColumnarExecutionTest, QuarantineLedgerHoldsTheExpectedEntries) {
  const std::vector<Row> input = SimpleRows(120);
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.error_policies = {ErrorPolicy::kQuarantine};
  const RunResult run = RunFlow(input, LookupMissPolicy::kError,
                                /*with_c=*/false, config, nullptr, dlq);

  std::vector<QuarantineRecord> expected;
  for (const Row& row : input) {
    if (row.value(1).string_value() != "c") continue;
    QuarantineRecord r;
    r.op_index = 0;
    r.op_name = "lkp";
    r.status_code = "not_found";
    r.payload = EncodeQuarantinePayload(row, SimpleSchema());
    expected.push_back(r);
  }
  EXPECT_EQ(run.metrics.rows_quarantined, 40u);
  EXPECT_EQ(CanonicalLedger(dlq->ReadAll().value()),
            CanonicalLedger(expected));
  ExpectSameCells(run.warehouse,
                  ExpectedWarehouse(input, false, LookupMissPolicy::kReject));
}

// Surrogate-key assignment is stateful (a shared registry hands out keys
// for the selected rows only, in order) — the canonical case where a
// kernel must respect the selection vector for side effects.
TEST(ColumnarExecutionTest, SurrogateKeysFollowTheSelectionOrder) {
  const std::vector<Row> input = SimpleRows(200);
  auto registry = std::make_shared<SurrogateKeyRegistry>();
  ExecutionConfig config;
  config.batch_size = kBatch;
  const RunResult run = RunChain(
      SimpleSchema(), input,
      {[]() -> OperatorPtr {
         return std::make_unique<FilterOp>(
             "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
       },
       [registry]() -> OperatorPtr {
         return std::make_unique<SurrogateKeyOp>("sk", registry, "id",
                                                 "sk_id");
       }},
      config);
  ASSERT_TRUE(run.status.ok()) << run.status;

  std::vector<Row> expected;
  int64_t next_key = 1;
  for (const Row& row : input) {
    if (row.value(2).is_null()) continue;
    expected.push_back(Row({row.value(1), row.value(2), row.value(3),
                            Value::Int64(next_key++)}));
  }
  ExpectSameCells(run.warehouse, expected);
  EXPECT_EQ(registry->size(), expected.size());
}

TEST(ColumnarExecutionTest, ParallelPartitionsLoadTheExpectedRows) {
  const std::vector<Row> input = SimpleRows(400);
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  const RunResult run =
      RunFlow(input, LookupMissPolicy::kNull, /*with_c=*/true, config);
  // Each partition's rows enter its branch's run once.
  EXPECT_EQ(run.metrics.columnar_rows, input.size());
  // Ordered merge on id: the serial order.
  ExpectSameCells(run.warehouse,
                  ExpectedWarehouse(input, true, LookupMissPolicy::kNull));
}

// --- boxed columns -------------------------------------------------------

Schema IdAndValueSchema(DataType value_type) {
  return Schema({{"id", DataType::kInt64, false}, {"v", value_type, true}});
}

// An int64 column holding a double and a string: the filter compares the
// boxed cells with Value semantics (NULL fails, a string orders above any
// number), the scale reads their numeric view, and the surrogate key maps
// each natural in its own type group.
TEST(ColumnarExecutionTest, Int64ColumnHoldingADoubleAndAString) {
  const std::vector<Row> input = {
      Row({Value::Int64(1), Value::Int64(5)}),
      Row({Value::Int64(2), Value::Double(2.5)}),
      Row({Value::Int64(3), Value::String("x")}),
      Row({Value::Int64(4), Value::Null()}),
      Row({Value::Int64(5), Value::Int64(10)}),
  };
  auto registry = std::make_shared<SurrogateKeyRegistry>();
  const RunResult run = RunChain(
      IdAndValueSchema(DataType::kInt64), input,
      {[]() -> OperatorPtr {
         return std::make_unique<FilterOp>(
             "flt", std::vector<Predicate>{Predicate::Compare(
                        "v", Predicate::CmpOp::kNe, Value::Int64(5))});
       },
       []() -> OperatorPtr {
         return std::make_unique<FunctionOp>(
             "fn", std::vector<ColumnTransform>{
                       ColumnTransform::Scale("scaled", "v", 2.0)});
       },
       [registry]() -> OperatorPtr {
         return std::make_unique<SurrogateKeyOp>("sk", registry, "v", "v_key",
                                                 /*drop_natural=*/false);
       }});
  ASSERT_TRUE(run.status.ok()) << run.status;
  ExpectSameCells(
      run.warehouse,
      {Row({Value::Int64(2), Value::Double(2.5), Value::Double(5.0),
            Value::Int64(1)}),
       Row({Value::Int64(3), Value::String("x"), Value::Null(),
            Value::Int64(2)}),
       Row({Value::Int64(5), Value::Int64(10), Value::Double(20.0),
            Value::Int64(3)})});
  EXPECT_EQ(run.metrics.rows_rejected, 2u);  // v = 5 and v = NULL
}

// A timestamp column holding a plain int64: the cell keeps its runtime
// type through the run, and shares a surrogate with the timestamp of the
// same payload.
TEST(ColumnarExecutionTest, TimestampColumnHoldingAPlainInt64) {
  const std::vector<Row> input = {
      Row({Value::Int64(1), Value::Timestamp(1000)}),
      Row({Value::Int64(2), Value::Int64(7)}),
      Row({Value::Int64(3), Value::Null()}),
      Row({Value::Int64(4), Value::Timestamp(3000)}),
      Row({Value::Int64(5), Value::Int64(1000)}),
  };
  auto registry = std::make_shared<SurrogateKeyRegistry>();
  const RunResult run = RunChain(
      IdAndValueSchema(DataType::kTimestamp), input,
      {[]() -> OperatorPtr {
         return std::make_unique<FilterOp>(
             "flt", std::vector<Predicate>{Predicate::NotNull("v")});
       },
       [registry]() -> OperatorPtr {
         return std::make_unique<SurrogateKeyOp>("sk", registry, "v", "v_key",
                                                 /*drop_natural=*/false);
       },
       []() -> OperatorPtr {
         return std::make_unique<FunctionOp>(
             "fn", std::vector<ColumnTransform>{ColumnTransform::Constant(
                       "tag", Value::String("t"))});
       }});
  ASSERT_TRUE(run.status.ok()) << run.status;
  const Value tag = Value::String("t");
  ExpectSameCells(
      run.warehouse,
      {Row({Value::Int64(1), Value::Timestamp(1000), Value::Int64(1), tag}),
       Row({Value::Int64(2), Value::Int64(7), Value::Int64(2), tag}),
       Row({Value::Int64(4), Value::Timestamp(3000), Value::Int64(3), tag}),
       Row({Value::Int64(5), Value::Int64(1000), Value::Int64(1), tag})});
  EXPECT_EQ(registry->size(), 3u);
}

// A dimension whose appended column holds cells of other runtime types:
// the appended column boxes, and the filter downstream compares its cells
// with Value semantics. (Spill runs encode cells by their declared type, so
// a spilled build side of such a dimension is out of reach; the spilled
// probe path is covered by engine_resource_test.)
TEST(ColumnarExecutionTest, LookupDimensionWithAnImpureAppendedColumn) {
  const Schema dim_schema({{"code", DataType::kString, false},
                           {"weight", DataType::kDouble, true}});
  auto dim = std::make_shared<MemTable>("impure_dim", dim_schema);
  ASSERT_TRUE(dim->Append(RowBatch(dim_schema,
                                   {Row({Value::String("a"),
                                         Value::Double(1.5)}),
                                    Row({Value::String("b"),
                                         Value::String("heavy")}),
                                    Row({Value::String("c"), Value::Null()}),
                                    Row({Value::String("e"),
                                         Value::Int64(4)})}))
                  .ok());
  const std::vector<Row> input = {SimpleRow(1, "a", 1.0), SimpleRow(2, "b", 2.0),
                                  SimpleRow(3, "c", 3.0), SimpleRow(4, "d", 4.0),
                                  SimpleRow(5, "e", 5.0)};
  const std::vector<OperatorFactory> chain = {
      [dim]() -> OperatorPtr {
        return std::make_unique<LookupOp>("lkp", dim, "category", "code",
                                          std::vector<std::string>{"weight"},
                                          LookupMissPolicy::kNull);
      },
      []() -> OperatorPtr {
        return std::make_unique<FilterOp>(
            "flt", std::vector<Predicate>{Predicate::Compare(
                       "weight", Predicate::CmpOp::kGt, Value::Double(1.0))});
      }};
  const std::vector<Row> expected = {
      Row({Value::Int64(1), Value::String("a"), Value::Double(1.0),
           Value::String("n"), Value::Double(1.5)}),
      Row({Value::Int64(2), Value::String("b"), Value::Double(2.0),
           Value::String("n"), Value::String("heavy")}),
      Row({Value::Int64(5), Value::String("e"), Value::Double(5.0),
           Value::String("n"), Value::Int64(4)})};

  const RunResult run = RunChain(SimpleSchema(), input, chain);
  ASSERT_TRUE(run.status.ok()) << run.status;
  ExpectSameCells(run.warehouse, expected);
}

// Function steps whose results differ from their column's declared type:
// coalesce with an int64 literal into a double column, arith into an
// existing string column, and a NULL constant.
TEST(ColumnarExecutionTest, FunctionStepsThatLeaveBoxedColumns) {
  std::vector<Row> input = {SimpleRow(1, "a", 1.5), SimpleRow(2, "b", 0.0),
                            SimpleRow(3, "c", 3.0)};
  input[1].Set(2, Value::Null());
  const RunResult run = RunChain(
      SimpleSchema(), input,
      {[]() -> OperatorPtr {
         return std::make_unique<FunctionOp>(
             "fn",
             std::vector<ColumnTransform>{
                 ColumnTransform::Coalesce("amount", Value::Int64(0)),
                 ColumnTransform::Arith("note", "amount",
                                        ColumnTransform::ArithOp::kMul, "id"),
                 ColumnTransform::Constant("nothing", Value::Null())});
       },
       []() -> OperatorPtr {
         return std::make_unique<FilterOp>(
             "flt", std::vector<Predicate>{Predicate::Compare(
                        "note", Predicate::CmpOp::kNe, Value::Double(1.5))});
       }});
  ASSERT_TRUE(run.status.ok()) << run.status;
  ExpectSameCells(
      run.warehouse,
      {Row({Value::Int64(2), Value::String("b"), Value::Int64(0),
            Value::Double(0.0), Value::Null()}),
       Row({Value::Int64(3), Value::String("c"), Value::Double(3.0),
            Value::Double(9.0), Value::Null()})});
  EXPECT_EQ(run.metrics.rows_rejected, 1u);  // note = 1.5 * 1
}

// --- poison ----------------------------------------------------------------

/// filter -> function -> surrogate key, with rows turning poisonous at the
/// function (ids 3 and 10) and at the surrogate key (id 20).
struct PoisonRun {
  RunResult run;
  std::vector<std::string> ledger;
  std::shared_ptr<SurrogateKeyRegistry> registry;
};

PoisonRun RunPoisoned(const std::vector<Row>& input,
                      std::vector<ErrorPolicy> policies) {
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/3});
  injector.AddPoison({/*at_op=*/1, /*id_value=*/10});
  injector.AddPoison({/*at_op=*/2, /*id_value=*/20});
  PoisonRun out;
  out.registry = std::make_shared<SurrogateKeyRegistry>();
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = std::move(policies);
  config.dead_letter = dlq;
  const auto registry = out.registry;
  out.run = RunChain(
      SimpleSchema(), input,
      {[]() -> OperatorPtr {
         return std::make_unique<FilterOp>(
             "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
       },
       []() -> OperatorPtr {
         return std::make_unique<FunctionOp>(
             "fn", std::vector<ColumnTransform>{
                       ColumnTransform::Scale("scaled", "amount", 2.0)});
       },
       [registry]() -> OperatorPtr {
         return std::make_unique<SurrogateKeyOp>("sk", registry, "id",
                                                 "sk_id");
       }},
      config);
  out.ledger = CanonicalLedger(dlq->ReadAll().value());
  return out;
}

TEST(ColumnarExecutionTest, PoisonArmedAcrossARunIsQuarantinedPerOp) {
  const std::vector<Row> input = SimpleRows(40);
  const PoisonRun poisoned =
      RunPoisoned(input, {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                          ErrorPolicy::kQuarantine});
  ASSERT_TRUE(poisoned.run.status.ok()) << poisoned.run.status;
  // Armed poison runs each per-row op alone: the single input batch enters
  // three one-op runs.
  EXPECT_EQ(poisoned.run.metrics.columnar_batches, 3u);
  EXPECT_EQ(poisoned.run.metrics.rows_quarantined, 3u);

  std::vector<QuarantineRecord> ledger;
  std::vector<Row> expected;
  const Schema scaled_schema =
      FunctionOp("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)})
          .Bind(SimpleSchema())
          .value();
  int64_t next_key = 1;
  for (const Row& row : input) {
    if (row.value(2).is_null()) continue;  // filtered, never poisoned
    const int64_t id = row.value(0).int64_value();
    Row scaled = row;
    scaled.Append(Value::Double(row.value(2).double_value() * 2.0));
    if (id == 3 || id == 10 || id == 20) {
      QuarantineRecord r;
      r.op_index = id == 20 ? 2 : 1;
      r.op_name = id == 20 ? "sk" : "fn";
      r.status_code = "invalid_argument";
      r.payload = id == 20 ? EncodeQuarantinePayload(scaled, scaled_schema)
                           : EncodeQuarantinePayload(row, SimpleSchema());
      ledger.push_back(r);
      continue;
    }
    expected.push_back(Row({row.value(1), row.value(2), row.value(3),
                            scaled.value(4), Value::Int64(next_key++)}));
  }
  EXPECT_EQ(poisoned.ledger, CanonicalLedger(ledger));
  ExpectSameCells(poisoned.run.warehouse, expected);
  EXPECT_EQ(poisoned.registry->size(), expected.size());
}

TEST(ColumnarExecutionTest, PoisonArmedAcrossARunFailsFast) {
  const PoisonRun poisoned = RunPoisoned(SimpleRows(40), {});
  ASSERT_FALSE(poisoned.run.status.ok());
  EXPECT_EQ(poisoned.run.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(poisoned.run.warehouse.empty());
  EXPECT_TRUE(poisoned.ledger.empty());
  // The screen stops the batch before the function, so no key is assigned.
  EXPECT_EQ(poisoned.registry->size(), 0u);
}

}  // namespace
}  // namespace qox
