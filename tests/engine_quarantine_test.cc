// Row-level error containment: skip/quarantine policies in both executors,
// the dead-letter ledger (checksums, provenance, canonical view), flow-level
// error budgets (permanent aborts that burn no retry attempts), and
// quarantine replay through a repaired flow.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "engine/quarantine.h"
#include "storage/dead_letter_store.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::MakeSource;
using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

/// Counts Scan calls: one extraction per attempt, so the count exposes how
/// many attempts the executor really ran even when Run() returns an error
/// (RunMetrics are unavailable on failure).
class ScanCountingStore : public DataStore {
 public:
  explicit ScanCountingStore(DataStorePtr inner) : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  Result<size_t> NumRows() const override { return inner_->NumRows(); }
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override {
    ++scans_;
    return inner_->Scan(batch_size, fan_out, consumer);
  }
  Status Append(const RowBatch& batch) override {
    return inner_->Append(batch);
  }
  Status Truncate() override { return inner_->Truncate(); }
  size_t scans() const { return scans_; }

 private:
  const DataStorePtr inner_;
  mutable std::atomic<size_t> scans_{0};
};

FlowSpec MakeFlow(DataStorePtr source, DataStorePtr target) {
  FlowSpec spec;
  spec.id = "q_flow";
  spec.source = std::move(source);
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
  spec.target = target;
  return spec;
}

Schema TargetSchema() {
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  return fn.Bind(SimpleSchema()).value();
}

std::vector<Row> ReadRows(const std::shared_ptr<MemTable>& table) {
  return table->ReadAll().value().rows();
}

/// Reference output of MakeFlow over `input` with no poison.
std::vector<Row> CleanOutput(const std::vector<Row>& input) {
  auto target = std::make_shared<MemTable>("clean_wh", TargetSchema());
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow(MakeSource(SimpleSchema(), input), target), ExecutionConfig{});
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return ReadRows(target);
}

TEST(DeadLetterStoreTest, QuarantineReadAllRoundTrip) {
  auto dlq = DeadLetterStore::InMemory("dlq");
  QuarantineRecord record;
  record.flow_id = "flow_x";
  record.node_id = 4;
  record.op_index = 2;
  record.op_name = "lkp";
  record.instance = 1;
  record.attempt = 3;
  record.row_index = 7;
  record.status_code = "not_found";
  record.status_message = "unresolved key \"z,9\"";
  // The payload decodes back to the exact row (NULLs and commas included).
  const Schema payload_schema({{"id", DataType::kInt64, false},
                              {"s", DataType::kString, true},
                              {"d", DataType::kDouble, true}});
  record.payload = EncodeQuarantinePayload(
      Row({Value::Int64(9), Value::String("a,b"), Value::Null()}),
      payload_schema);
  ASSERT_TRUE(dlq->Quarantine(record).ok());
  ASSERT_EQ(dlq->NumRecords().value(), 1u);

  const std::vector<QuarantineRecord> read = dlq->ReadAll().value();
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].flow_id, record.flow_id);
  EXPECT_EQ(read[0].node_id, record.node_id);
  EXPECT_EQ(read[0].op_index, record.op_index);
  EXPECT_EQ(read[0].op_name, record.op_name);
  EXPECT_EQ(read[0].instance, record.instance);
  EXPECT_EQ(read[0].attempt, record.attempt);
  EXPECT_EQ(read[0].row_index, record.row_index);
  EXPECT_EQ(read[0].status_code, record.status_code);
  EXPECT_EQ(read[0].status_message, record.status_message);
  EXPECT_EQ(read[0].payload, record.payload);
  const Row decoded =
      DecodeQuarantinePayload(read[0].payload, payload_schema).value();
  EXPECT_EQ(decoded, Row({Value::Int64(9), Value::String("a,b"),
                          Value::Null()}));
}

TEST(DeadLetterStoreTest, TamperedRecordFailsChecksum) {
  // Write one good record, copy its raw ledger row with a flipped payload
  // into a fresh ledger store, and watch ReadAll refuse it.
  auto good = DeadLetterStore::InMemory("good");
  QuarantineRecord record;
  record.flow_id = "flow_x";
  record.op_name = "fn";
  record.status_code = "invalid_argument";
  record.payload = "1,a";
  ASSERT_TRUE(good->Quarantine(record).ok());

  std::vector<Row> raw;
  ASSERT_TRUE(good->inner()
                  ->Scan(16,
                         [&](const RowBatch& batch) {
                           for (const Row& row : batch.rows()) {
                             raw.push_back(row);
                           }
                           return Status::OK();
                         })
                  .ok());
  ASSERT_EQ(raw.size(), 1u);
  const size_t payload_col =
      DeadLetterStoreSchema().FieldIndex("payload").value();
  raw[0].Set(payload_col, Value::String("1,TAMPERED"));

  auto tampered_table =
      std::make_shared<MemTable>("tampered", DeadLetterStoreSchema());
  ASSERT_TRUE(
      tampered_table->Append(RowBatch(DeadLetterStoreSchema(), raw)).ok());
  auto tampered = DeadLetterStore::Wrap(tampered_table).value();
  const Result<std::vector<QuarantineRecord>> read = tampered->ReadAll();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruptedData);
}

TEST(DeadLetterStoreTest, CanonicalLedgerCollapsesRetriesAndInstances) {
  QuarantineRecord a;
  a.op_index = 1;
  a.op_name = "fn";
  a.status_code = "invalid_argument";
  a.payload = "3,a,3,n";
  QuarantineRecord b = a;  // the same row, re-quarantined by attempt 2 on
  b.attempt = 2;           // another instance with a different sequence no.
  b.instance = 1;
  b.row_index = 40;
  QuarantineRecord c = a;
  c.payload = "5,b,5,n";  // a genuinely different row
  const std::vector<std::string> ledger = CanonicalLedger({b, a, c});
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_LT(ledger[0], ledger[1]);  // sorted, deterministic
}

TEST(QuarantineExecutionTest, SkipPolicyDropsPoisonedRowsAndCounts) {
  const std::vector<Row> input = SimpleRows(64);
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/3});
  injector.AddPoison({/*at_op=*/1, /*id_value=*/5});

  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kSkip,
                           ErrorPolicy::kFailFast};
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target),
                    config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rows_skipped, 2u);
  EXPECT_EQ(metrics.value().rows_quarantined, 0u);
  EXPECT_EQ(metrics.value().attempts, 1u);

  std::vector<Row> expected;
  for (const Row& row : CleanOutput(input)) {
    const int64_t id = row.values()[0].int64_value();
    if (id != 3 && id != 5) expected.push_back(row);
  }
  EXPECT_EQ(ReadRows(target), expected);
}

TEST(QuarantineExecutionTest, PoisonUnderFailFastStillAborts) {
  const std::vector<Row> input = SimpleRows(32);
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/3});
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.injector = &injector;  // no policies: the seed behaviour
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target),
                    config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
}

// The acceptance scenario: a poisoned flow under kQuarantine with an
// unexhausted budget completes in ONE attempt — row errors are contained,
// not retried — and the dead-letter ledger holds exactly the poisoned rows
// with full provenance.
TEST(QuarantineExecutionTest, QuarantineCompletesWithoutConsumingRetries) {
  const std::vector<Row> input = SimpleRows(64);
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/3});
  injector.AddPoison({/*at_op=*/1, /*id_value=*/5});
  injector.AddPoison({/*at_op=*/1, /*id_value=*/10});

  auto counting_source = std::make_shared<ScanCountingStore>(
      MakeSource(SimpleSchema(), input));
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                           ErrorPolicy::kFailFast};
  config.error_budget.max_rows = 10;
  config.dead_letter = dlq;
  config.retry.max_attempts = 5;  // available, must go unused
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(counting_source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().attempts, 1u);
  EXPECT_EQ(metrics.value().TotalRetries(), 0u);
  EXPECT_EQ(counting_source->scans(), 1u);
  EXPECT_EQ(metrics.value().rows_quarantined, 3u);
  EXPECT_EQ(metrics.value().rows_skipped, 0u);

  const std::vector<QuarantineRecord> records = dlq->ReadAll().value();
  ASSERT_EQ(records.size(), 3u);
  std::set<int64_t> quarantined_ids;
  for (const QuarantineRecord& record : records) {
    EXPECT_EQ(record.flow_id, "q_flow");
    EXPECT_EQ(record.op_index, 1);
    EXPECT_EQ(record.op_name, "fn");
    EXPECT_EQ(record.attempt, 1);
    EXPECT_EQ(record.status_code, "invalid_argument");
    const Row row =
        DecodeQuarantinePayload(record.payload, SimpleSchema()).value();
    quarantined_ids.insert(row.values()[0].int64_value());
  }
  EXPECT_EQ(quarantined_ids, (std::set<int64_t>{3, 5, 10}));
}

// ... and ReplayQuarantine recovers exactly the missing rows: the union of
// the quarantining load and the replayed rows equals the clean-run load,
// with no duplicates.
TEST(QuarantineExecutionTest, ReplayYieldsExactlyTheMissingRows) {
  const std::vector<Row> input = SimpleRows(64);
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/3});
  injector.AddPoison({/*at_op=*/1, /*id_value=*/5});

  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                           ErrorPolicy::kFailFast};
  config.dead_letter = dlq;
  const FlowSpec flow = MakeFlow(MakeSource(SimpleSchema(), input), target);
  ASSERT_TRUE(Executor::Run(flow, config).ok());
  ASSERT_EQ(dlq->NumRecords().value(), 2u);

  // "Repair" the flow: replay ignores the injector, so the data errors are
  // gone and the suffix (fn, sort) processes the quarantined rows cleanly.
  const ReplayStats stats =
      ReplayQuarantine(flow, ExecutionConfig{}, *dlq).value();
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_EQ(stats.deduplicated, 0u);
  EXPECT_EQ(stats.replayed, 2u);
  EXPECT_EQ(stats.rows_loaded, 2u);
  EXPECT_EQ(stats.rows_rejected, 0u);
  EXPECT_TRUE(SameMultiset(ReadRows(target), CleanOutput(input)));
}

// A target that moves the load's rows in and leaves each landed batch
// empty: the run and the replay still count the rows they loaded.
// A quarantined row holding an empty string and boxed cells (cells of
// another runtime type than their column's) replays unchanged: its payload
// decodes to the row that entered the op, so the replay appends what the
// clean run loads for it.
TEST(QuarantineExecutionTest, ReplayOfEmptyAndBoxedCellsAppendsTheRowUnchanged) {
  const std::vector<Row> input = testing_util::EmptyAndBoxedRows(64);
  // Row 6 holds a "" note and a boxed int64 category; row 36 both of those
  // and a boxed int64 amount.
  ASSERT_TRUE(input[36].value(1).is_int64());
  ASSERT_TRUE(input[36].value(2).is_int64());
  ASSERT_EQ(input[36].value(3), Value::String(""));
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/6});
  injector.AddPoison({/*at_op=*/1, /*id_value=*/36});

  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                           ErrorPolicy::kFailFast};
  config.dead_letter = dlq;
  ASSERT_TRUE(
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target), config)
          .ok());
  ASSERT_EQ(dlq->NumRecords().value(), 2u);

  auto replayed = std::make_shared<MemTable>("replayed", TargetSchema());
  const FlowSpec repaired =
      MakeFlow(MakeSource(SimpleSchema(), input), replayed);
  ASSERT_EQ(ReplayQuarantine(repaired, ExecutionConfig{}, *dlq)
                .value()
                .replayed,
            2u);
  std::vector<Row> expected;
  for (const Row& row : CleanOutput(input)) {
    const int64_t id = row.value(0).int64_value();
    if (id == 6 || id == 36) expected.push_back(row);
  }
  const std::vector<Row> rows = ReadRows(replayed);
  EXPECT_EQ(rows, expected);
  EXPECT_EQ(testing_util::CellTypes(rows), testing_util::CellTypes(expected));
}

TEST(QuarantineExecutionTest, MovedLoadsCountTheRowsTheyLanded) {
  const std::vector<Row> input = SimpleRows(64);
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/3});
  injector.AddPoison({/*at_op=*/1, /*id_value=*/5});
  auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
  auto target = std::make_shared<testing_util::DrainingStore>(warehouse);
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                           ErrorPolicy::kFailFast};
  config.dead_letter = dlq;
  config.batch_size = 16;
  const FlowSpec flow = MakeFlow(MakeSource(SimpleSchema(), input), target);
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rows_loaded, ReadRows(warehouse).size());

  const size_t before = ReadRows(warehouse).size();
  const ReplayStats stats =
      ReplayQuarantine(flow, ExecutionConfig{}, *dlq).value();
  EXPECT_EQ(stats.replayed, 2u);
  EXPECT_EQ(stats.rows_loaded, 2u);
  EXPECT_EQ(ReadRows(warehouse).size(), before + 2);
  EXPECT_TRUE(SameMultiset(ReadRows(warehouse), CleanOutput(input)));
}

// When a moving append lands part of a batch and fails with ENOSPC, the
// rows it did not land are still in the batch, and the load sheds exactly
// those to the ledger, byte for byte.
TEST(QuarantineExecutionTest, ShedTakesTheRowsATornMovedAppendLeft) {
  const std::vector<Row> input = SimpleRows(200);
  const std::vector<Row> clean = CleanOutput(input);
  for (const bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming" : "phased");
    auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
    auto target = std::make_shared<testing_util::DrainingStore>(
        warehouse, /*enospc_on_call=*/2);
    auto dlq = DeadLetterStore::InMemory("dlq");
    ExecutionConfig config;
    config.streaming = streaming;
    config.batch_size = 16;
    config.resource_policy = ResourcePolicy::kShedToQuarantine;
    config.dead_letter = dlq;
    const Result<RunMetrics> metrics =
        Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target),
                      config);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    // The 2nd append landed rows [16, 24) and shed [24, 32).
    std::vector<Row> landed(clean.begin(), clean.begin() + 24);
    landed.insert(landed.end(), clean.begin() + 32, clean.end());
    EXPECT_EQ(ReadRows(warehouse), landed);
    std::vector<Row> shed;
    const std::vector<QuarantineRecord> records = dlq->ReadAll().value();
    for (const QuarantineRecord& record : records) {
      shed.push_back(
          DecodeQuarantinePayload(record.payload, TargetSchema()).value());
    }
    EXPECT_EQ(shed, std::vector<Row>(clean.begin() + 24, clean.begin() + 32));
    EXPECT_EQ(metrics.value().rows_shed, 8u);
    EXPECT_EQ(metrics.value().rows_loaded, clean.size() - 8);
  }
}

TEST(QuarantineExecutionTest, ReplayDeduplicatesRetriedRecords) {
  const std::vector<Row> input = SimpleRows(48);
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/4});
  // A transient system failure on attempt 1 forces a retry: attempt 2
  // re-quarantines row 4, so the ledger holds two records for one row.
  FailureSpec failure;
  failure.at_op = 1;
  failure.at_fraction = 0.5;
  failure.on_attempt = 1;
  injector.AddFailure(failure);

  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                           ErrorPolicy::kFailFast};
  config.dead_letter = dlq;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_micros = 100;
  // Small batches so the injector's batch-boundary checks actually reach
  // the 50 % mark (one default-sized batch would hold all 48 rows).
  config.batch_size = 8;
  const FlowSpec flow = MakeFlow(MakeSource(SimpleSchema(), input), target);
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics.value().attempts, 2u);
  ASSERT_EQ(dlq->NumRecords().value(), 2u);  // same row, two attempts
  EXPECT_EQ(CanonicalLedger(dlq->ReadAll().value()).size(), 1u);

  const ReplayStats stats =
      ReplayQuarantine(flow, ExecutionConfig{}, *dlq).value();
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_EQ(stats.deduplicated, 1u);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_TRUE(SameMultiset(ReadRows(target), CleanOutput(input)));
}

TEST(QuarantineExecutionTest, QuarantineWithoutLedgerDegradesToSkip) {
  const std::vector<Row> input = SimpleRows(32);
  FailureInjector injector;
  injector.AddPoison({/*at_op=*/1, /*id_value=*/4});
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                           ErrorPolicy::kFailFast};
  // config.dead_letter deliberately unset.
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target),
                    config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rows_quarantined, 1u);
  EXPECT_EQ(ReadRows(target).size(), CleanOutput(input).size() - 1);
}

// Operator-reported row errors (not injected poison): a strict lookup hits
// unresolved keys; kQuarantine contains exactly the missing-key rows, and
// after the dimension is repaired, replay recovers them.
TEST(QuarantineExecutionTest, LookupMissQuarantineAndRepairReplay) {
  const Schema dim_schema({{"code", DataType::kString, false},
                           {"desc", DataType::kString, false}});
  auto dimension = std::make_shared<MemTable>("dim", dim_schema);
  ASSERT_TRUE(dimension
                  ->Append(RowBatch(
                      dim_schema,
                      {Row({Value::String("a"), Value::String("alpha")}),
                       Row({Value::String("b"), Value::String("beta")})}))
                  .ok());

  const std::vector<Row> input = SimpleRows(12);  // categories cycle a,b,c
  FlowSpec flow;
  flow.id = "lkp_flow";
  flow.source = MakeSource(SimpleSchema(), input);
  flow.transforms.push_back([dimension]() -> OperatorPtr {
    return std::make_unique<LookupOp>(
        "lkp", dimension, "category", "code",
        std::vector<std::string>{"desc"}, LookupMissPolicy::kError);
  });
  LookupOp bind_probe("lkp", dimension, "category", "code", {"desc"},
                      LookupMissPolicy::kError);
  auto target = std::make_shared<MemTable>(
      "wh", bind_probe.Bind(SimpleSchema()).value());
  flow.target = target;

  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.error_policies = {ErrorPolicy::kQuarantine};
  config.dead_letter = dlq;
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // Categories cycle a,b,c: ids 2,5,8,11 carry "c" and have no code.
  EXPECT_EQ(metrics.value().rows_quarantined, 4u);
  const std::vector<QuarantineRecord> records = dlq->ReadAll().value();
  for (const QuarantineRecord& record : records) {
    EXPECT_EQ(record.status_code, "not_found");
    EXPECT_EQ(record.op_name, "lkp");
  }
  EXPECT_EQ(ReadRows(target).size(), 8u);

  // Repair: add the missing dimension row, then replay the ledger.
  ASSERT_TRUE(dimension
                  ->Append(RowBatch(dim_schema,
                                    {Row({Value::String("c"),
                                          Value::String("gamma")})}))
                  .ok());
  const ReplayStats stats =
      ReplayQuarantine(flow, ExecutionConfig{}, *dlq).value();
  EXPECT_EQ(stats.replayed, 4u);
  EXPECT_EQ(stats.rows_loaded, 4u);
  EXPECT_EQ(ReadRows(target).size(), 12u);
}

TEST(ErrorBudgetTest, MaxRowsAbortsPermanentlyWithoutRetries) {
  const std::vector<Row> input = SimpleRows(64);
  FailureInjector injector;
  for (int64_t id : {1, 2, 3, 4, 5}) {
    injector.AddPoison({/*at_op=*/1, id});
  }
  auto counting_source = std::make_shared<ScanCountingStore>(
      MakeSource(SimpleSchema(), input));
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kSkip,
                           ErrorPolicy::kFailFast};
  config.error_budget.max_rows = 2;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_micros = 1000000;  // would cost seconds if
                                                  // the abort were retried
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(counting_source, target), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kErrorBudgetExceeded);
  // Permanent: exactly one attempt ran; no retry budget was burned on a
  // data problem that would recur identically.
  EXPECT_EQ(counting_source->scans(), 1u);
}

TEST(ErrorBudgetTest, MaxFractionAbortsAfterTheAttemptDrains) {
  const std::vector<Row> input = SimpleRows(100);
  FailureInjector injector;
  for (int64_t id : {1, 2, 3, 4, 5, 6, 8, 9, 10, 11}) {
    injector.AddPoison({/*at_op=*/1, id});
  }
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kSkip,
                           ErrorPolicy::kFailFast};
  config.error_budget.max_fraction = 0.05;  // 10/100 contained > 5%
  const Result<RunMetrics> status_run =
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target),
                    config);
  ASSERT_FALSE(status_run.ok());
  EXPECT_EQ(status_run.status().code(), StatusCode::kErrorBudgetExceeded);
  // A phased load checks the fraction before its first row lands.
  EXPECT_EQ(target->NumRows().value(), 0u);

  // A looser fraction admits the same run.
  config.error_budget.max_fraction = 0.2;
  auto target2 = std::make_shared<MemTable>("wh2", TargetSchema());
  const Result<RunMetrics> ok_run =
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target2),
                    config);
  ASSERT_TRUE(ok_run.ok()) << ok_run.status();
  EXPECT_EQ(ok_run.value().rows_skipped, 10u);
}

TEST(ErrorBudgetTest, StreamingEnforcesTheSameBudget) {
  const std::vector<Row> input = SimpleRows(64);
  FailureInjector injector;
  for (int64_t id : {1, 2, 3, 4, 5}) {
    injector.AddPoison({/*at_op=*/1, id});
  }
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.streaming = true;
  config.injector = &injector;
  config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kSkip,
                           ErrorPolicy::kFailFast};
  config.error_budget.max_rows = 2;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target),
                    config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kErrorBudgetExceeded);
}

TEST(QuarantineExecutionTest, StreamingLedgerMatchesPhased) {
  const std::vector<Row> input = SimpleRows(200);
  const auto run = [&](bool streaming, const DeadLetterStorePtr& dlq) {
    FailureInjector injector;
    injector.AddPoison({/*at_op=*/1, /*id_value=*/3});
    injector.AddPoison({/*at_op=*/1, /*id_value=*/50});
    injector.AddPoison({/*at_op=*/2, /*id_value=*/120});
    auto target = std::make_shared<MemTable>("wh", TargetSchema());
    ExecutionConfig config;
    config.streaming = streaming;
    config.batch_size = 32;
    config.injector = &injector;
    config.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                             ErrorPolicy::kQuarantine};
    config.dead_letter = dlq;
    const Result<RunMetrics> metrics =
        Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), target),
                      config);
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(metrics.value().rows_quarantined, 3u);
    return ReadRows(target);
  };
  auto phased_dlq = DeadLetterStore::InMemory("phased_dlq");
  auto streaming_dlq = DeadLetterStore::InMemory("streaming_dlq");
  const std::vector<Row> phased = run(false, phased_dlq);
  const std::vector<Row> streaming = run(true, streaming_dlq);
  EXPECT_EQ(phased, streaming);  // trailing sort: byte-identical order
  EXPECT_EQ(CanonicalLedger(phased_dlq->ReadAll().value()),
            CanonicalLedger(streaming_dlq->ReadAll().value()));
}

TEST(QuarantineExecutionTest, BindChainRejectsBadContainmentConfig) {
  const std::vector<Row> input = SimpleRows(8);
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  const FlowSpec flow = MakeFlow(MakeSource(SimpleSchema(), input), target);
  ExecutionConfig config;
  config.error_policies.assign(4, ErrorPolicy::kSkip);  // chain has 3 ops
  EXPECT_EQ(Executor::BindChain(flow, config).status().code(),
            StatusCode::kInvalidArgument);
  config.error_policies.assign(2, ErrorPolicy::kSkip);  // shorter is fine
  EXPECT_TRUE(Executor::BindChain(flow, config).ok());
  config.error_budget.max_fraction = 1.5;
  EXPECT_EQ(Executor::BindChain(flow, config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace qox
