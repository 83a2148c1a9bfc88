// Seeded disk-pressure chaos sweep: ENOSPC / EIO injected at the warehouse
// append while the flow runs under a tight memory budget, once per
// ResourcePolicy. Contracts per rung of the degradation ladder:
//   kFailFlow          — the run fails with the fault's own status, fast.
//   kPauseRetry        — ENOSPC is ridden out with backoff; the warehouse
//                        converges to the clean run's bytes. EIO stays
//                        fatal (a real I/O error is not congestion).
//   kShedToQuarantine  — the flow completes; warehouse + decoded ledger
//                        payloads together equal the clean output.
// In every case, no spill artifact survives the run. Sweep width comes
// from QOX_RESOURCE_SEEDS (scripts/check.sh --fast shrinks it).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "storage/dead_letter_store.h"
#include "storage/faulty_store.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::MakeSource;
using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

constexpr size_t kRows = 400;

size_t SweepWidth() {
  const char* env = std::getenv("QOX_RESOURCE_SEEDS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 16;
}

FlowSpec MakeFlow(DataStorePtr source, DataStorePtr target) {
  FlowSpec spec;
  spec.id = "res_chaos_flow";
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

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/qox_reschaos_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

size_t SpillArtifactsUnder(const std::string& dir) {
  size_t count = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; ++it) {
    if (it->path().filename().string().find(".spill") != std::string::npos) {
      ++count;
    }
  }
  return count;
}

/// Base configuration every chaos run shares: tight budget (the sort
/// spills while the target misbehaves), small batches (several load
/// appends per run, so mid-load faults leave a durable prefix), fast
/// bounded backoff.
ExecutionConfig BaseConfig(bool streaming, const std::string& spill_dir) {
  ExecutionConfig config;
  config.streaming = streaming;
  config.batch_size = 32;
  config.memory_budget_bytes = 4 << 10;
  config.spill_dir = spill_dir;
  config.retry.max_attempts = 8;
  config.retry.initial_backoff_micros = 50;
  config.retry.max_backoff_micros = 1000;
  return config;
}

/// Reference output of MakeFlow with no faults.
const std::vector<Row>& CleanOutput() {
  static const std::vector<Row>* const clean = [] {
    auto target = std::make_shared<MemTable>("clean_wh", TargetSchema());
    const Result<RunMetrics> metrics = Executor::Run(
        MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target),
        ExecutionConfig{});
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    return new std::vector<Row>(target->ReadAll().value().rows());
  }();
  return *clean;
}

TEST(ResourceChaosTest, FailFlowDiesWithTheFaultsOwnStatus) {
  const size_t width = SweepWidth();
  for (size_t seed = 0; seed < width; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const DiskFaultKind kind =
        seed % 2 == 0 ? DiskFaultKind::kEnospc : DiskFaultKind::kEio;
    FaultPlan plan;
    plan.append_fail_on_call = 1 + static_cast<int>(seed % 3);
    plan.disk_fault = kind;
    auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
    auto target = std::make_shared<FaultyStore>(warehouse, plan, seed);

    const std::string spill_dir = FreshDir("fail" + std::to_string(seed));
    ExecutionConfig config = BaseConfig(seed % 4 < 2, spill_dir);
    config.resource_policy = ResourcePolicy::kFailFlow;
    const Result<RunMetrics> metrics = Executor::Run(
        MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target),
        config);
    ASSERT_FALSE(metrics.ok());
    EXPECT_EQ(metrics.status().code(), kind == DiskFaultKind::kEnospc
                                           ? StatusCode::kResourceExhausted
                                           : StatusCode::kIoError)
        << metrics.status();
    // A failed run must still tear down its spill runs.
    EXPECT_EQ(SpillArtifactsUnder(spill_dir), 0u);
    std::filesystem::remove_all(spill_dir);
  }
}

TEST(ResourceChaosTest, PauseRetryRidesOutEnospcToCleanWarehouse) {
  const size_t width = SweepWidth();
  for (size_t seed = 0; seed < width; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultPlan plan;
    // Deterministic single fault somewhere in the load window: ENOSPC
    // strikes the Nth append, then the disk has "space" again.
    plan.append_fail_on_call = 1 + static_cast<int>(seed % 5);
    plan.disk_fault = DiskFaultKind::kEnospc;
    auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
    auto target = std::make_shared<FaultyStore>(warehouse, plan, seed);

    const std::string spill_dir = FreshDir("pause" + std::to_string(seed));
    ExecutionConfig config = BaseConfig(seed % 2 == 0, spill_dir);
    config.resource_policy = ResourcePolicy::kPauseRetry;
    const Result<RunMetrics> metrics = Executor::Run(
        MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target),
        config);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    // In either mode the failed append fails the attempt, and the next
    // attempt resumes past the durable prefix.
    EXPECT_GT(metrics.value().TotalRetries(), 0u);
    EXPECT_GT(metrics.value().spill_runs, 0u);
    EXPECT_EQ(warehouse->ReadAll().value().rows(), CleanOutput());
    EXPECT_EQ(SpillArtifactsUnder(spill_dir), 0u);
    std::filesystem::remove_all(spill_dir);
  }
}

TEST(ResourceChaosTest, PauseRetryDoesNotMaskRealIoErrors) {
  FaultPlan plan;
  plan.append_fail_on_call = 1;
  plan.disk_fault = DiskFaultKind::kEio;
  auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
  auto target = std::make_shared<FaultyStore>(warehouse, plan, /*seed=*/7);
  const std::string spill_dir = FreshDir("eio");
  ExecutionConfig config = BaseConfig(/*streaming=*/false, spill_dir);
  config.resource_policy = ResourcePolicy::kPauseRetry;
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target),
      config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kIoError)
      << metrics.status();
  std::filesystem::remove_all(spill_dir);
}

TEST(ResourceChaosTest, ShedCompletesAndLedgerHoldsExactlyTheMissingRows) {
  const size_t width = SweepWidth();
  for (size_t seed = 0; seed < width; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultPlan plan;
    plan.append_fault_probability = 0.3;
    plan.disk_fault = DiskFaultKind::kEnospc;
    auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
    auto target = std::make_shared<FaultyStore>(warehouse, plan, seed);
    auto dlq = DeadLetterStore::InMemory("dlq");

    const std::string spill_dir = FreshDir("shed" + std::to_string(seed));
    ExecutionConfig config = BaseConfig(seed % 2 == 0, spill_dir);
    config.resource_policy = ResourcePolicy::kShedToQuarantine;
    config.dead_letter = dlq;
    const Result<RunMetrics> metrics = Executor::Run(
        MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target),
        config);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    // Shedding is availability-preserving: no retries were spent.
    EXPECT_EQ(metrics.value().attempts, 1u);

    // Warehouse + ledger together are exactly the clean output: every shed
    // row is replayable, nothing was silently dropped or duplicated.
    std::vector<Row> recovered = warehouse->ReadAll().value().rows();
    const size_t loaded = recovered.size();
    const std::vector<QuarantineRecord> records = dlq->ReadAll().value();
    for (const QuarantineRecord& record : records) {
      EXPECT_EQ(record.op_name, "load");
      recovered.push_back(
          DecodeQuarantinePayload(record.payload, TargetSchema()).value());
    }
    EXPECT_EQ(metrics.value().rows_shed, records.size());
    EXPECT_EQ(loaded + records.size(), CleanOutput().size());
    // rows_loaded counts the landed rows only, never the shed ones.
    EXPECT_EQ(metrics.value().rows_loaded, loaded);
    EXPECT_EQ(metrics.value().rows_loaded + metrics.value().rows_shed,
              CleanOutput().size());
    EXPECT_TRUE(SameMultiset(recovered, CleanOutput()));
    EXPECT_EQ(SpillArtifactsUnder(spill_dir), 0u);
    std::filesystem::remove_all(spill_dir);
  }
}

}  // namespace
}  // namespace qox
