// Resource-exhaustion hardening: memory budgets force blocking operators
// (sort, group, lookup build) to spill without changing the warehouse,
// spill files never outlive a run, the QOX_MEM_BUDGET override is honored,
// the dead-letter cap bounds the quarantine ledger, and budget enforcement
// holds under a hard RLIMIT_AS address-space cap.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/memory_budget.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/group_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "storage/dead_letter_store.h"
#include "storage/mem_table.h"
#include "test_util.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QOX_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QOX_UNDER_SANITIZER 1
#endif

namespace qox {
namespace {

using testing_util::MakeSource;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/qox_restest_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Counts `.spill` / `.spill.tmp` files anywhere under `dir` (0 when the
/// directory never came into existence).
size_t SpillArtifactsUnder(const std::string& dir) {
  size_t count = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; ++it) {
    const std::string name = it->path().filename().string();
    if (name.find(".spill") != std::string::npos) ++count;
  }
  return count;
}

FlowSpec SortFlow(DataStorePtr source, DataStorePtr target) {
  FlowSpec spec;
  spec.id = "res_sort_flow";
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

Schema SortTargetSchema() {
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  return fn.Bind(SimpleSchema()).value();
}

FlowSpec GroupFlow(DataStorePtr source, DataStorePtr target) {
  FlowSpec spec;
  spec.id = "res_group_flow";
  spec.source = std::move(source);
  // Group by id: every input row is its own group, so the hash state is a
  // working set proportional to the input, not to |categories|.
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<GroupOp>(
        "grp", std::vector<std::string>{"id"},
        std::vector<Aggregate>{Aggregate::Count("n"),
                               Aggregate::Sum("amount", "total")});
  });
  spec.target = target;
  return spec;
}

Schema GroupTargetSchema() {
  GroupOp op("grp", {"id"},
             {Aggregate::Count("n"), Aggregate::Sum("amount", "total")});
  return op.Bind(SimpleSchema()).value();
}

DataStorePtr LookupDimension(size_t rows) {
  Schema schema({{"k", DataType::kInt64, false},
                 {"extra", DataType::kString, true}});
  auto dim = std::make_shared<MemTable>("dim", schema);
  RowBatch batch(schema);
  for (size_t i = 0; i < rows; ++i) {
    batch.Append(Row({Value::Int64(static_cast<int64_t>(i)),
                      Value::String("extra_" + std::to_string(i))}));
  }
  EXPECT_TRUE(dim->Append(batch).ok());
  return dim;
}

FlowSpec LookupFlow(DataStorePtr source, DataStorePtr dimension,
                    DataStorePtr target) {
  FlowSpec spec;
  spec.id = "res_lookup_flow";
  spec.source = std::move(source);
  spec.transforms.push_back([dimension]() -> OperatorPtr {
    return std::make_unique<LookupOp>(
        "lkp", dimension, "id", "k", std::vector<std::string>{"extra"},
        LookupMissPolicy::kNull);
  });
  spec.target = target;
  return spec;
}

Schema LookupTargetSchema(const DataStorePtr& dimension) {
  LookupOp op("lkp", dimension, "id", "k", {"extra"},
              LookupMissPolicy::kNull);
  return op.Bind(SimpleSchema()).value();
}

std::vector<Row> ReadRows(const std::shared_ptr<MemTable>& table) {
  return table->ReadAll().value().rows();
}

/// Runs `flow` into `target` and returns (metrics, rows). The budgeted
/// variants must reproduce the unbudgeted rows exactly — same multiset,
/// same order — or spilling silently changed flow semantics.
struct RunOutput {
  RunMetrics metrics;
  std::vector<Row> rows;
};
RunOutput RunFlow(const FlowSpec& flow,
                  const std::shared_ptr<MemTable>& target,
                  const ExecutionConfig& config) {
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  RunOutput out;
  if (metrics.ok()) out.metrics = metrics.value();
  out.rows = ReadRows(target);
  return out;
}

// ---------------------------------------------------------------------------
// Budgeted runs stay byte-identical and actually spill.
// ---------------------------------------------------------------------------

class BudgetIdentityTest : public ::testing::TestWithParam<bool> {};

TEST_P(BudgetIdentityTest, SortSpillsAndMatchesUnbudgetedRun) {
  const bool streaming = GetParam();
  const std::vector<Row> input = SimpleRows(2000);

  auto clean_target = std::make_shared<MemTable>("wh0", SortTargetSchema());
  ExecutionConfig clean;
  clean.streaming = streaming;
  const RunOutput clean_out =
      RunFlow(SortFlow(MakeSource(SimpleSchema(), input), clean_target),
              clean_target, clean);
  EXPECT_EQ(clean_out.metrics.spill_runs, 0u);

  auto target = std::make_shared<MemTable>("wh1", SortTargetSchema());
  ExecutionConfig config;
  config.streaming = streaming;
  config.memory_budget_bytes = 8 << 10;  // far below ~2000-row working set
  config.spill_dir = FreshDir(streaming ? "sort_s" : "sort_p");
  const RunOutput out =
      RunFlow(SortFlow(MakeSource(SimpleSchema(), input), target), target,
              config);

  EXPECT_EQ(out.rows, clean_out.rows);
  EXPECT_GT(out.metrics.spill_runs, 0u);
  EXPECT_GT(out.metrics.spill_rows, 0u);
  EXPECT_GT(out.metrics.spill_bytes, 0u);
  EXPECT_GT(out.metrics.mem_high_water_bytes, 0u);
  // Spill runs are intra-attempt temporaries: nothing may survive the run.
  EXPECT_EQ(SpillArtifactsUnder(config.spill_dir), 0u);
}

TEST_P(BudgetIdentityTest, GroupSpillsAndMatchesUnbudgetedRun) {
  const bool streaming = GetParam();
  const std::vector<Row> input = SimpleRows(3000);

  auto clean_target = std::make_shared<MemTable>("wh0", GroupTargetSchema());
  ExecutionConfig clean;
  clean.streaming = streaming;
  const RunOutput clean_out =
      RunFlow(GroupFlow(MakeSource(SimpleSchema(), input), clean_target),
              clean_target, clean);

  auto target = std::make_shared<MemTable>("wh1", GroupTargetSchema());
  ExecutionConfig config;
  config.streaming = streaming;
  config.memory_budget_bytes = 8 << 10;
  config.spill_dir = FreshDir(streaming ? "grp_s" : "grp_p");
  const RunOutput out =
      RunFlow(GroupFlow(MakeSource(SimpleSchema(), input), target), target,
              config);

  EXPECT_EQ(out.rows, clean_out.rows);
  EXPECT_GT(out.metrics.spill_runs, 0u);
  EXPECT_EQ(SpillArtifactsUnder(config.spill_dir), 0u);
}

TEST_P(BudgetIdentityTest, LookupBuildSpillsAndMatchesUnbudgetedRun) {
  const bool streaming = GetParam();
  const std::vector<Row> input = SimpleRows(1000);
  const DataStorePtr dim = LookupDimension(2000);

  auto clean_target =
      std::make_shared<MemTable>("wh0", LookupTargetSchema(dim));
  ExecutionConfig clean;
  clean.streaming = streaming;
  const RunOutput clean_out = RunFlow(
      LookupFlow(MakeSource(SimpleSchema(), input), dim, clean_target),
      clean_target, clean);

  auto target = std::make_shared<MemTable>("wh1", LookupTargetSchema(dim));
  ExecutionConfig config;
  config.streaming = streaming;
  config.memory_budget_bytes = 4 << 10;  // below the 2000-row build side
  config.spill_dir = FreshDir(streaming ? "lkp_s" : "lkp_p");
  const RunOutput out = RunFlow(
      LookupFlow(MakeSource(SimpleSchema(), input), dim, target), target,
      config);

  EXPECT_EQ(out.rows, clean_out.rows);
  EXPECT_GT(out.metrics.spill_runs, 0u);
  EXPECT_EQ(SpillArtifactsUnder(config.spill_dir), 0u);
}

/// SimpleRows whose note cell holds a newline, a quote and a comma: each
/// spilled row is a record spanning two lines of its run.
std::vector<Row> MultiLineRows(size_t n) {
  std::vector<Row> rows = SimpleRows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].Set(3, Value::String("line one\nline \"two\", " +
                                 std::to_string(i)));
  }
  return rows;
}

TEST_P(BudgetIdentityTest, SortOfMultiLineCellsSpillsAndMatchesUnbudgetedRun) {
  const bool streaming = GetParam();
  const std::vector<Row> input = MultiLineRows(400);

  auto clean_target = std::make_shared<MemTable>("wh0", SortTargetSchema());
  ExecutionConfig clean;
  clean.streaming = streaming;
  const RunOutput clean_out =
      RunFlow(SortFlow(MakeSource(SimpleSchema(), input), clean_target),
              clean_target, clean);
  ASSERT_EQ(clean_out.rows.size(), 350u);  // the filter drops NULL amounts

  auto target = std::make_shared<MemTable>("wh1", SortTargetSchema());
  ExecutionConfig config;
  config.streaming = streaming;
  config.memory_budget_bytes = 4 << 10;
  config.spill_dir = FreshDir(streaming ? "sort_nl_s" : "sort_nl_p");
  const RunOutput out =
      RunFlow(SortFlow(MakeSource(SimpleSchema(), input), target), target,
              config);

  EXPECT_EQ(out.rows, clean_out.rows);
  EXPECT_GT(out.metrics.spill_runs, 0u);
  EXPECT_EQ(SpillArtifactsUnder(config.spill_dir), 0u);
}

TEST_P(BudgetIdentityTest, GroupOfMultiLineCellsSpillsAndMatchesUnbudgetedRun) {
  const bool streaming = GetParam();
  const std::vector<Row> input = MultiLineRows(3000);

  auto clean_target = std::make_shared<MemTable>("wh0", GroupTargetSchema());
  ExecutionConfig clean;
  clean.streaming = streaming;
  const RunOutput clean_out =
      RunFlow(GroupFlow(MakeSource(SimpleSchema(), input), clean_target),
              clean_target, clean);
  ASSERT_EQ(clean_out.rows.size(), 3000u);

  auto target = std::make_shared<MemTable>("wh1", GroupTargetSchema());
  ExecutionConfig config;
  config.streaming = streaming;
  config.memory_budget_bytes = 8 << 10;
  config.spill_dir = FreshDir(streaming ? "grp_nl_s" : "grp_nl_p");
  const RunOutput out =
      RunFlow(GroupFlow(MakeSource(SimpleSchema(), input), target), target,
              config);

  EXPECT_EQ(out.rows, clean_out.rows);
  EXPECT_GT(out.metrics.spill_runs, 0u);
  EXPECT_EQ(SpillArtifactsUnder(config.spill_dir), 0u);
}

INSTANTIATE_TEST_SUITE_P(PhasedAndStreaming, BudgetIdentityTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "streaming" : "phased";
                         });

// ---------------------------------------------------------------------------
// QOX_MEM_BUDGET environment override.
// ---------------------------------------------------------------------------

TEST(MemBudgetEnvTest, EnvOverrideForcesSpillWhenConfigUnbudgeted) {
  ASSERT_EQ(setenv("QOX_MEM_BUDGET", "8k", /*overwrite=*/1), 0);
  const std::vector<Row> input = SimpleRows(2000);
  auto target = std::make_shared<MemTable>("wh", SortTargetSchema());
  ExecutionConfig config;  // memory_budget_bytes deliberately left 0
  config.spill_dir = FreshDir("env");
  const RunOutput out =
      RunFlow(SortFlow(MakeSource(SimpleSchema(), input), target), target,
              config);
  unsetenv("QOX_MEM_BUDGET");
  EXPECT_GT(out.metrics.spill_runs, 0u);
  EXPECT_EQ(SpillArtifactsUnder(config.spill_dir), 0u);
}

TEST(MemBudgetEnvTest, FromEnvParsesAndIgnoresMalformed) {
  ASSERT_EQ(setenv("QOX_MEM_BUDGET", "64k", 1), 0);
  EXPECT_EQ(MemoryBudgetFromEnv(), 64u << 10);
  ASSERT_EQ(setenv("QOX_MEM_BUDGET", "not_a_size", 1), 0);
  EXPECT_EQ(MemoryBudgetFromEnv(), 0u);
  ASSERT_EQ(setenv("QOX_MEM_BUDGET", "", 1), 0);
  EXPECT_EQ(MemoryBudgetFromEnv(), 0u);
  unsetenv("QOX_MEM_BUDGET");
  EXPECT_EQ(MemoryBudgetFromEnv(), 0u);
}

TEST(ParseByteSizeTest, SuffixesAndErrors) {
  EXPECT_EQ(ParseByteSize("65536").value(), 65536u);
  EXPECT_EQ(ParseByteSize("64k").value(), 64u << 10);
  EXPECT_EQ(ParseByteSize("16m").value(), 16u << 20);
  EXPECT_EQ(ParseByteSize("2g").value(), 2ull << 30);
  EXPECT_EQ(ParseByteSize("0").value(), 0u);
  EXPECT_FALSE(ParseByteSize("").ok());
  EXPECT_FALSE(ParseByteSize("k").ok());
  EXPECT_FALSE(ParseByteSize("12q").ok());
  EXPECT_FALSE(ParseByteSize("-5").ok());
  EXPECT_FALSE(ParseByteSize("1.5m").ok());
}

// ---------------------------------------------------------------------------
// MemoryBudget accountant.
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, ReserveReleaseHighWater) {
  MemoryBudget budget(100);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_TRUE(budget.TryReserve(60));
  EXPECT_FALSE(budget.TryReserve(60));  // would exceed; reserves nothing
  EXPECT_EQ(budget.used(), 60u);
  budget.ForceReserve(60);  // irreducible minimum may overrun
  EXPECT_EQ(budget.used(), 120u);
  EXPECT_EQ(budget.high_water(), 120u);
  budget.Release(100);
  EXPECT_EQ(budget.used(), 20u);
  budget.ResetUsage();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.high_water(), 120u);  // survives attempt resets

  MemoryBudget unlimited(0);
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_TRUE(unlimited.TryReserve(1ull << 40));
}

TEST(ResourcePolicyTest, NamesRoundTrip) {
  for (const ResourcePolicy policy :
       {ResourcePolicy::kFailFlow, ResourcePolicy::kPauseRetry,
        ResourcePolicy::kShedToQuarantine}) {
    EXPECT_EQ(ParseResourcePolicy(ResourcePolicyName(policy)).value(),
              policy);
  }
  EXPECT_FALSE(ParseResourcePolicy("eat_the_disk").ok());
}

// ---------------------------------------------------------------------------
// Dead-letter ledger byte cap.
// ---------------------------------------------------------------------------

QuarantineRecord MakeRecord(int64_t attempt, int64_t row_index,
                            size_t payload_bytes = 200) {
  QuarantineRecord record;
  record.flow_id = "cap_flow";
  record.op_index = 1;
  record.op_name = "flt";
  record.attempt = attempt;
  record.row_index = row_index;
  record.status_code = "invalid_argument";
  record.status_message = "poison";
  record.payload = std::string(payload_bytes, 'x') + std::to_string(row_index);
  return record;
}

TEST(DeadLetterCapTest, AbortPolicyRefusesWithResourceExhausted) {
  // The cap is on serialized ledger bytes, not payload bytes, so measure
  // one record's footprint first and derive a cap that fits exactly one
  // record regardless of encoding overhead.
  auto probe = DeadLetterStore::InMemory(
      "probe", {/*max_bytes=*/1 << 20, DeadLetterOverflowPolicy::kAbort});
  ASSERT_TRUE(probe->Quarantine(MakeRecord(1, 0)).ok());
  const size_t one_record = probe->bytes_used();
  ASSERT_GT(one_record, 0u);
  auto dlq = DeadLetterStore::InMemory(
      "dlq", {/*max_bytes=*/one_record + one_record / 2,
              DeadLetterOverflowPolicy::kAbort});
  ASSERT_TRUE(dlq->Quarantine(MakeRecord(1, 0)).ok());
  EXPECT_GT(dlq->bytes_used(), 0u);
  EXPECT_LE(dlq->bytes_used(), one_record + one_record / 2);
  const Status st = dlq->Quarantine(MakeRecord(1, 1));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  // The refused record was not half-appended.
  EXPECT_EQ(dlq->NumRecords().value(), 1u);
  EXPECT_EQ(dlq->groups_evicted(), 0u);
}

TEST(DeadLetterCapTest, EvictOldestDropsWholeAttemptGroups) {
  auto dlq = DeadLetterStore::InMemory(
      "dlq", {/*max_bytes=*/900, DeadLetterOverflowPolicy::kEvictOldest});
  ASSERT_TRUE(dlq->Quarantine(MakeRecord(1, 0)).ok());
  ASSERT_TRUE(dlq->Quarantine(MakeRecord(1, 1)).ok());
  ASSERT_TRUE(dlq->Quarantine(MakeRecord(2, 2)).ok());
  // Needs room: attempt 1 must go, and BOTH its records must go together —
  // a half-evicted attempt would make that attempt's replay silently
  // partial.
  ASSERT_TRUE(dlq->Quarantine(MakeRecord(3, 3)).ok());
  EXPECT_EQ(dlq->groups_evicted(), 1u);
  const std::vector<QuarantineRecord> records = dlq->ReadAll().value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].attempt, 2);
  EXPECT_EQ(records[1].attempt, 3);
  EXPECT_LE(dlq->bytes_used(), 900u);
}

TEST(DeadLetterCapTest, RecordLargerThanCapAbortsEvenWhenEvicting) {
  auto dlq = DeadLetterStore::InMemory(
      "dlq", {/*max_bytes=*/300, DeadLetterOverflowPolicy::kEvictOldest});
  ASSERT_TRUE(dlq->Quarantine(MakeRecord(1, 0, /*payload_bytes=*/50)).ok());
  const Status st = dlq->Quarantine(MakeRecord(2, 1, /*payload_bytes=*/600));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_EQ(dlq->NumRecords().value(), 1u);  // existing ledger untouched
}

TEST(DeadLetterCapTest, PreExistingContentsCountAgainstCap) {
  auto uncapped = DeadLetterStore::InMemory("dlq");
  ASSERT_TRUE(uncapped->Quarantine(MakeRecord(1, 0)).ok());
  ASSERT_TRUE(uncapped->Quarantine(MakeRecord(1, 1)).ok());
  // Re-wrap the same inner store with a cap the existing contents already
  // nearly fill: the first capped Quarantine sizes them lazily.
  auto capped = DeadLetterStore::Wrap(
                    uncapped->inner(),
                    {/*max_bytes=*/600, DeadLetterOverflowPolicy::kAbort})
                    .value();
  const Status st = capped->Quarantine(MakeRecord(2, 2));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_GT(capped->bytes_used(), 0u);

  auto evicting = DeadLetterStore::Wrap(
                      uncapped->inner(),
                      {/*max_bytes=*/600,
                       DeadLetterOverflowPolicy::kEvictOldest})
                      .value();
  ASSERT_TRUE(evicting->Quarantine(MakeRecord(2, 3)).ok());
  EXPECT_EQ(evicting->groups_evicted(), 1u);
}

TEST(DeadLetterCapTest, UncappedLedgerNeverEvicts) {
  auto dlq = DeadLetterStore::InMemory("dlq");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(dlq->Quarantine(MakeRecord(1, i)).ok());
  }
  EXPECT_EQ(dlq->NumRecords().value(), 50u);
  EXPECT_EQ(dlq->groups_evicted(), 0u);
}

TEST(DeadLetterCapTest, OverflowPolicyNames) {
  EXPECT_STREQ(
      DeadLetterOverflowPolicyName(DeadLetterOverflowPolicy::kEvictOldest),
      "evict_oldest");
  EXPECT_STREQ(
      DeadLetterOverflowPolicyName(DeadLetterOverflowPolicy::kAbort),
      "abort");
}

// ---------------------------------------------------------------------------
// Budget enforcement under a hard OS address-space cap.
// ---------------------------------------------------------------------------

#if defined(__linux__) && !defined(QOX_UNDER_SANITIZER)

// ---------------------------------------------------------------------------
// Hard OS enforcement: the budgeted flow must survive an RLIMIT_AS cap
// that provably kills the unbudgeted flow. Skipped under sanitizers
// (their shadow mappings need unbounded address space).
// ---------------------------------------------------------------------------

/// Generates `rows` wide rows on every Scan without materializing them:
/// ids descend from `rows` to 1, each carrying a `payload_bytes` note.
class SyntheticWideSource : public DataStore {
 public:
  SyntheticWideSource(std::string name, size_t rows, size_t payload_bytes)
      : name_(std::move(name)),
        schema_({{"id", DataType::kInt64, false},
                 {"note", DataType::kString, true}}),
        rows_(rows),
        payload_bytes_(payload_bytes) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<size_t> NumRows() const override { return rows_; }
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& /*fan_out*/,
              const Consumer& consumer) const override {
    RowBatch batch(schema_);
    for (size_t i = 0; i < rows_; ++i) {
      batch.Append(
          Row({Value::Int64(static_cast<int64_t>(rows_ - i)),
               Value::String(std::string(payload_bytes_, 'w'))}));
      if (batch.num_rows() >= batch_size) {
        QOX_RETURN_IF_ERROR(consumer(batch));
        batch = RowBatch(schema_);
      }
    }
    if (batch.num_rows() > 0) QOX_RETURN_IF_ERROR(consumer(batch));
    return Status::OK();
  }
  Status Append(const RowBatch&) override {
    return Status::Invalid("synthetic source is read-only");
  }
  Status Truncate() override {
    return Status::Invalid("synthetic source is read-only");
  }

 private:
  const std::string name_;
  const Schema schema_;
  const size_t rows_;
  const size_t payload_bytes_;
};

/// Verifies sort order while discarding the data, so the sink itself adds
/// no address-space pressure.
class OrderCheckingSink : public DataStore {
 public:
  explicit OrderCheckingSink(Schema schema)
      : name_("order_sink"), schema_(std::move(schema)) {}
  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<size_t> NumRows() const override { return rows_; }
  using DataStore::Scan;
  Status Scan(size_t, const FanOut&, const Consumer&) const override {
    return Status::Invalid("order_sink is write-only");
  }
  Status Append(const RowBatch& batch) override {
    for (const Row& row : batch.rows()) {
      const int64_t id = row.value(0).int64_value();
      if (id < last_id_) {
        return Status::Invalid("load out of order: " + std::to_string(id) +
                               " after " + std::to_string(last_id_));
      }
      last_id_ = id;
      ++rows_;
    }
    return Status::OK();
  }
  Status Truncate() override {
    rows_ = 0;
    last_id_ = INT64_MIN;
    return Status::OK();
  }

 private:
  const std::string name_;
  const Schema schema_;
  size_t rows_ = 0;
  int64_t last_id_ = INT64_MIN;
};

size_t CurrentVmBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  statm >> pages;
  return pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

/// Child body shared by the enforcement test and its control: a streaming
/// flow probing a ~80 MB-payload dimension with 32 rows, run under an
/// address-space cap 48 MB above the child's baseline. Returns the exit
/// code (0 = clean run, see the EXPECT message for the failure codes).
int RunCappedLookupChild(const std::string& spill_dir, bool budgeted) {
#if defined(__GLIBC__)
  // One malloc arena: glibc otherwise reserves a 64 MB heap mapping per
  // stage thread, which RLIMIT_AS counts even though it is never touched.
  mallopt(M_ARENA_MAX, 1);
#endif
  struct rlimit lim;
  lim.rlim_cur = lim.rlim_max = CurrentVmBytes() + (48ull << 20);
  if (setrlimit(RLIMIT_AS, &lim) != 0) return 2;

  auto dim = std::make_shared<SyntheticWideSource>("wide_dim", 40000, 2000);
  auto source = std::make_shared<SyntheticWideSource>("probe_src", 32, 8);
  FlowSpec spec;
  spec.id = "rlimit_flow";
  spec.source = source;
  spec.transforms.push_back([dim]() -> OperatorPtr {
    return std::make_unique<LookupOp>(
        "lkp", dim, "id", "id", std::vector<std::string>{"note"},
        LookupMissPolicy::kError);
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("sort",
                                    std::vector<SortKey>{{"id", false}});
  });
  // "note" collides with the probe schema, so Bind renames the appended
  // dimension column to "<dim name>_note".
  const Result<Schema> out_schema = source->schema().AddField(
      {"wide_dim_note", DataType::kString, true});
  if (!out_schema.ok()) return 5;
  auto sink = std::make_shared<OrderCheckingSink>(out_schema.value());
  spec.target = sink;
  ExecutionConfig config;
  config.streaming = true;
  config.memory_budget_bytes = budgeted ? (4 << 20) : 0;
  config.spill_dir = spill_dir;
  const Result<RunMetrics> metrics = Executor::Run(spec, config);
  if (!metrics.ok()) return 1;
  if (budgeted && metrics.value().spill_runs == 0) return 3;
  if (sink->NumRows().value() != 32u) return 4;
  return 0;
}

TEST(ResourceLimitTest, BudgetedLookupCompletesUnderAddressSpaceCap) {
  const std::string spill_dir = FreshDir("rlimit");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(RunCappedLookupChild(spill_dir, /*budgeted=*/true));
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2=setrlimit failed, 1=run failed under cap, 3=never spilled, "
         "4=row count wrong, 5=schema setup failed";
  EXPECT_EQ(SpillArtifactsUnder(spill_dir), 0u);
  std::filesystem::remove_all(spill_dir);
}

TEST(ResourceLimitTest, UnbudgetedBuildDiesUnderTheSameCap) {
  // Control: without a budget the lookup materializes the whole dimension
  // and must NOT survive the cap — otherwise the enforcement test above
  // would pass vacuously under a too-generous limit.
  const std::string spill_dir = FreshDir("rlimit_ctrl");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(RunCappedLookupChild(spill_dir, /*budgeted=*/false));
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  const bool died = !WIFEXITED(status) || WEXITSTATUS(status) != 0;
  EXPECT_TRUE(died) << "unbudgeted build survived the address-space cap";
  std::filesystem::remove_all(spill_dir);
}

#endif  // __linux__ && !QOX_UNDER_SANITIZER

}  // namespace
}  // namespace qox
