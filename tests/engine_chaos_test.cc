// Seeded chaos sweep: randomized fault schedules — system failures armed on
// the transform chain, storage faults (scan failures, torn writes with
// sampled durable prefixes), and poisoned rows under random containment
// policies — all drawn from one RNG seed and run through BOTH executors.
// The invariant under chaos: after retries the warehouse is byte-identical
// to a clean run of the same data problem (same poison, same policies, no
// transient faults), and the canonical quarantine ledger matches exactly.
//
// The sweep width defaults to 32 seeds per mode and can be tuned with the
// QOX_CHAOS_SEEDS environment variable (scripts/check.sh --fast sets 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/flow_service.h"
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
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

constexpr size_t kRows = 160;
constexpr int kNumOps = 3;

size_t SweepWidth() {
  const char* env = std::getenv("QOX_CHAOS_SEEDS");
  if (env == nullptr) return 32;
  const unsigned long parsed = std::strtoul(env, nullptr, 10);
  return parsed == 0 ? 32 : static_cast<size_t>(parsed);
}

FlowSpec MakeFlow(DataStorePtr source, DataStorePtr target) {
  FlowSpec spec;
  spec.id = "chaos_flow";
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
  // Trailing sort: a deterministic global order makes the warehouse
  // comparison byte-exact instead of multiset-only.
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

/// Everything one seed determines: the data problem (poison + policies,
/// shared by the clean reference) and the transient chaos layered on top.
struct ChaosSchedule {
  std::vector<PoisonSpec> poison;
  std::vector<ErrorPolicy> policies;
  size_t armed_failures = 0;
  bool scan_fault = false;
  bool torn_load = false;
  int append_fail_on_call = 0;
};

ChaosSchedule DrawSchedule(Rng* rng) {
  ChaosSchedule schedule;
  const size_t num_poisoned = static_cast<size_t>(rng->Uniform(0, 5));
  for (size_t i = 0; i < num_poisoned; ++i) {
    PoisonSpec spec;
    spec.at_op = static_cast<int>(rng->Uniform(0, kNumOps - 1));
    spec.id_value = rng->Uniform(0, static_cast<int64_t>(kRows) - 1);
    schedule.poison.push_back(spec);
  }
  // Containable policies only: the sweep asserts completion-under-chaos;
  // fail-fast poison aborts are covered by the quarantine suite.
  for (int i = 0; i < kNumOps; ++i) {
    schedule.policies.push_back(rng->Bernoulli(0.5)
                                    ? ErrorPolicy::kQuarantine
                                    : ErrorPolicy::kSkip);
  }
  schedule.armed_failures = static_cast<size_t>(rng->Uniform(0, 2));
  schedule.scan_fault = rng->Bernoulli(0.5);
  schedule.torn_load = rng->Bernoulli(0.5);
  schedule.append_fail_on_call = static_cast<int>(rng->Uniform(1, 4));
  return schedule;
}

struct ChaosOutcome {
  std::vector<Row> warehouse;
  std::vector<std::string> ledger;
};

/// One full run: chaos=true layers transient faults over the schedule's
/// data problem; chaos=false is the clean reference (poison and policies
/// only). `rng` drives fault placement and must be forked per run.
ChaosOutcome RunOnce(const std::vector<Row>& input,
                     const ChaosSchedule& schedule, bool chaos,
                     bool streaming, Rng rng) {
  FailureInjector injector;
  for (const PoisonSpec& spec : schedule.poison) injector.AddPoison(spec);
  if (chaos) {
    injector.ArmRandom(schedule.armed_failures, kNumOps, &rng);
  }

  DataStorePtr source = MakeSource(SimpleSchema(), input);
  if (chaos && schedule.scan_fault) {
    FaultPlan plan;
    plan.scan_fail_on_call = 1;
    source = std::make_shared<FaultyStore>(source, plan, rng.Next());
  }

  auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
  DataStorePtr target = warehouse;
  if (chaos && schedule.torn_load) {
    FaultPlan plan;
    plan.append_fail_on_call = schedule.append_fail_on_call;
    plan.torn_writes = true;
    plan.torn_fraction = -1.0;  // sampled durable prefix per fault
    target = std::make_shared<FaultyStore>(target, plan, rng.Next());
  }

  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.streaming = streaming;
  config.batch_size = 32;
  config.injector = &injector;
  config.error_policies = schedule.policies;
  config.dead_letter = dlq;
  config.retry.max_attempts = 8;
  config.retry.initial_backoff_micros = 50;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();

  ChaosOutcome outcome;
  outcome.warehouse = warehouse->ReadAll().value().rows();
  outcome.ledger = CanonicalLedger(dlq->ReadAll().value());
  return outcome;
}

TEST(ChaosSweepTest, WarehouseAndLedgerSurviveRandomFaultSchedules) {
  const std::vector<Row> input = SimpleRows(kRows);
  const size_t width = SweepWidth();
  for (size_t seed = 0; seed < width; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    Rng rng(seed * 1000003 + 17);
    const ChaosSchedule schedule = DrawSchedule(&rng);

    // Clean reference: the same data problem with no transient faults.
    const ChaosOutcome clean =
        RunOnce(input, schedule, /*chaos=*/false, /*streaming=*/false,
                rng.Fork());
    const ChaosOutcome phased =
        RunOnce(input, schedule, /*chaos=*/true, /*streaming=*/false,
                rng.Fork());
    const ChaosOutcome streaming =
        RunOnce(input, schedule, /*chaos=*/true, /*streaming=*/true,
                rng.Fork());

    // Byte-identical warehouse: transient faults, retries, and torn loads
    // leave no trace in the final contents — in either execution mode.
    EXPECT_EQ(phased.warehouse, clean.warehouse);
    EXPECT_EQ(streaming.warehouse, clean.warehouse);
    // And the canonical quarantine ledger is exactly the data problem's:
    // re-quarantines from retried attempts collapse to the clean ledger.
    EXPECT_EQ(phased.ledger, clean.ledger);
    EXPECT_EQ(streaming.ledger, clean.ledger);
  }
}

/// A chaos tenant held alive until its service ticket resolves: the
/// injector and stores must outlive the flow's execution, which happens on
/// a service worker after Submit() returns.
struct ChaosTenant {
  std::unique_ptr<FailureInjector> injector;
  std::shared_ptr<MemTable> warehouse;
  DeadLetterStorePtr dlq;
  ChaosOutcome clean;
  uint64_t ticket = 0;
  std::string tag;
};

/// Builds the same chaos flow RunOnce(chaos=true) executes, but as a
/// FlowService submission instead of a solo Executor::Run.
ChaosTenant BuildChaosTenant(const std::vector<Row>& input,
                             const ChaosSchedule& schedule, bool streaming,
                             Rng rng, FlowService* service) {
  ChaosTenant tenant;
  tenant.injector = std::make_unique<FailureInjector>();
  for (const PoisonSpec& spec : schedule.poison) {
    tenant.injector->AddPoison(spec);
  }
  tenant.injector->ArmRandom(schedule.armed_failures, kNumOps, &rng);

  DataStorePtr source = MakeSource(SimpleSchema(), input);
  if (schedule.scan_fault) {
    FaultPlan plan;
    plan.scan_fail_on_call = 1;
    source = std::make_shared<FaultyStore>(source, plan, rng.Next());
  }

  tenant.warehouse = std::make_shared<MemTable>("wh", TargetSchema());
  DataStorePtr target = tenant.warehouse;
  if (schedule.torn_load) {
    FaultPlan plan;
    plan.append_fail_on_call = schedule.append_fail_on_call;
    plan.torn_writes = true;
    plan.torn_fraction = -1.0;
    target = std::make_shared<FaultyStore>(target, plan, rng.Next());
  }

  tenant.dlq = DeadLetterStore::InMemory("dlq");
  FlowSubmission submission;
  submission.flow = MakeFlow(source, target);
  submission.config.streaming = streaming;
  submission.config.batch_size = 32;
  submission.config.injector = tenant.injector.get();
  submission.config.error_policies = schedule.policies;
  submission.config.dead_letter = tenant.dlq;
  submission.config.retry.max_attempts = 8;
  submission.config.retry.initial_backoff_micros = 50;
  const Result<uint64_t> ticket = service->Submit(std::move(submission));
  EXPECT_TRUE(ticket.ok()) << ticket.status();
  tenant.ticket = ticket.ok() ? ticket.value() : 0;
  return tenant;
}

TEST(ChaosSweepTest, FaultSchedulesSurviveFlowServiceTenancy) {
  // The same seeded schedules, now multi-tenant: every chaos run is a
  // FlowService submission sharing one worker pool with the other tenants,
  // and each must still converge to its own clean reference — chaos in one
  // tenant's flow cannot leak into another's warehouse or ledger.
  const std::vector<Row> input = SimpleRows(kRows);
  const size_t width = std::max<size_t>(4, SweepWidth() / 4);

  FlowServiceConfig service_config;
  service_config.num_workers = 4;
  service_config.max_concurrent_flows = 3;
  FlowService service(service_config);

  std::vector<ChaosTenant> tenants;
  for (size_t seed = 0; seed < width; ++seed) {
    Rng rng(seed * 1000003 + 17);
    const ChaosSchedule schedule = DrawSchedule(&rng);
    const ChaosOutcome clean =
        RunOnce(input, schedule, /*chaos=*/false, /*streaming=*/false,
                rng.Fork());
    for (const bool streaming : {false, true}) {
      ChaosTenant tenant =
          BuildChaosTenant(input, schedule, streaming, rng.Fork(), &service);
      tenant.clean = clean;
      tenant.tag = "seed " + std::to_string(seed) +
                   (streaming ? " streaming" : " phased");
      tenants.push_back(std::move(tenant));
    }
  }

  for (ChaosTenant& tenant : tenants) {
    SCOPED_TRACE(tenant.tag);
    const Result<RunMetrics> metrics = service.Wait(tenant.ticket);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(tenant.warehouse->ReadAll().value().rows(),
              tenant.clean.warehouse);
    EXPECT_EQ(CanonicalLedger(tenant.dlq->ReadAll().value()),
              tenant.clean.ledger);
  }
}

}  // namespace
}  // namespace qox
