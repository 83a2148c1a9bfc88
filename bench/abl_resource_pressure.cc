// Ablation — resource pressure: memory budget x disk-fault rate.
//
// Question 1: as the memory budget shrinks below the blocking operators'
// working set, what does spilling cost, and does the cost model's spill
// I/O tax track the measured slowdown? Every cell runs the same
// sort-heavy flow under a different QoX memory budget and reports the
// spill volume (runs / rows / bytes), the memory high-water mark, and
// wall time, next to the model's predicted spill seconds.
//
// Question 2: as injected disk-pressure faults (ENOSPC at the warehouse
// append) become more frequent, what does each ResourcePolicy cost?
// kFailFlow dies, kPauseRetry backs off and converges, kShed trades
// completeness for availability by re-routing the unloadable remainder to
// the dead-letter ledger. Emits one BENCH JSON line (prefix
// "{\"bench\":\"abl_resource_pressure\"") with measured and predicted
// values per cell.
//
// Structural gates on the policy sweep (the --quick ctest smoke relies on
// them; never on wall times): fail_flow dies with resource_exhausted;
// pause_retry lands the clean row count and spends exactly one attempt
// per retry; shed_to_quarantine completes with every clean row either
// landed or shed. The sweep's fault rate and seeds make every policy meet
// at least one fault.
//
// Usage: abl_resource_pressure [--quick]   (--quick: the policy sweep
// alone, gated, without the google-benchmark harness)

#include <benchmark/benchmark.h>

#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cost_model.h"
#include "core/design.h"
#include "engine/executor.h"
#include "storage/dead_letter_store.h"
#include "storage/faulty_store.h"
#include "storage/mem_table.h"

namespace qox {
namespace {

constexpr size_t kRows = 20000;
constexpr char kSpillDir[] = "/tmp/qox_bench_ablrp_spill";
// Policy sweep: a fixed tight budget and a fault rate and seeds at which
// every policy's run meets at least one ENOSPC.
constexpr size_t kPolicyBudget = 64 << 10;
constexpr double kPolicyFaultRate = 0.1;
constexpr uint64_t kPolicySeed = 1;

Schema SourceSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"category", DataType::kString, true},
                 {"amount", DataType::kDouble, true}});
}

DataStorePtr BaseSource() {
  static const DataStorePtr source = [] {
    auto table = std::make_shared<MemTable>("src", SourceSchema());
    RowBatch batch(SourceSchema());
    const char* categories[] = {"a", "b", "c"};
    for (size_t i = 0; i < kRows; ++i) {
      // Descending ids so the sort actually reorders everything.
      batch.Append(Row({Value::Int64(static_cast<int64_t>(kRows - i)),
                        Value::String(categories[i % 3]),
                        Value::Double(static_cast<double>(i % 100))}));
    }
    (void)table->Append(batch);
    return table;
  }();
  return source;
}

PhysicalDesign MakeDesign(size_t memory_budget_bytes,
                          ResourcePolicy resource_policy,
                          DataStorePtr target) {
  std::vector<LogicalOp> ops;
  ops.push_back(
      MakeFilter("flt", {Predicate::NotNull("amount")}, /*selectivity=*/1.0));
  ops.push_back(MakeFunction(
      "fn", {ColumnTransform::Scale("scaled", "amount", 2.0)}));
  ops.push_back(MakeSort("sort", {{"id", false}}));
  PhysicalDesign design;
  design.flow = LogicalFlow("ablrp_flow", BaseSource(), std::move(ops),
                            std::move(target));
  design.memory_budget_bytes = memory_budget_bytes;
  design.resource_policy = resource_policy;
  // Bounded backoff so the pause-retry cells converge quickly.
  design.retry.initial_backoff_micros = 1000;
  design.retry.max_backoff_micros = 20000;
  return design;
}

Schema TargetSchema() {
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  return fn.Bind(SourceSchema()).value();
}

struct Cell {
  size_t budget = 0;
  double fault_rate = 0.0;
  std::string policy;
  std::string outcome;
  size_t spill_runs = 0;
  size_t spill_rows = 0;
  size_t spill_bytes = 0;
  size_t mem_high_water = 0;
  size_t rows_shed = 0;
  size_t rows_loaded = 0;
  size_t landed = 0;  ///< rows in the warehouse after the run
  size_t attempts = 0;
  size_t retries = 0;
  int64_t total_micros = 0;
  double predicted_spill_s = 0.0;
  double predicted_delay_s = 0.0;
};
std::map<int, Cell>& Cells() {
  static auto* const cells = new std::map<int, Cell>();
  return *cells;
}

void RunCell(size_t budget, double fault_rate, ResourcePolicy policy,
             uint64_t seed, int* cell_idx) {
  auto warehouse = std::make_shared<MemTable>("wh", TargetSchema());
  DataStorePtr target = warehouse;
  if (fault_rate > 0.0) {
    FaultPlan plan;
    plan.append_fault_probability = fault_rate;
    plan.disk_fault = DiskFaultKind::kEnospc;
    target = std::make_shared<FaultyStore>(warehouse, plan, seed);
  }
  const PhysicalDesign design = MakeDesign(budget, policy, target);
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config = design.ToExecutionConfig(nullptr, nullptr);
  config.dead_letter = dlq;
  config.spill_dir = kSpillDir;
  std::filesystem::remove_all(kSpillDir);

  Cell cell;
  cell.budget = budget;
  cell.fault_rate = fault_rate;
  cell.policy = ResourcePolicyName(policy);
  const Result<RunMetrics> metrics =
      Executor::Run(design.flow.ToFlowSpec(), config);
  if (metrics.ok()) {
    const RunMetrics& m = metrics.value();
    cell.outcome = "ok";
    cell.spill_runs = m.spill_runs;
    cell.spill_rows = m.spill_rows;
    cell.spill_bytes = m.spill_bytes;
    cell.mem_high_water = m.mem_high_water_bytes;
    cell.rows_shed = m.rows_shed;
    cell.rows_loaded = m.rows_loaded;
    cell.attempts = m.attempts;
    cell.retries = m.TotalRetries();
    cell.total_micros = m.total_micros;
  } else {
    cell.outcome = StatusCodeName(metrics.status().code());
  }
  cell.landed = warehouse->NumRows().value();

  const CostModel model;
  const PhaseEstimate phases = model.EstimatePhases(design, kRows);
  WorkloadParams workload;
  workload.rows_per_run = kRows;
  workload.disk_fault_rate = fault_rate;
  cell.predicted_spill_s = phases.spill_s;
  cell.predicted_delay_s = model.EstimateResourceDelay(design, phases,
                                                       workload);
  Cells()[(*cell_idx)++] = cell;
}

/// Policy sweep at a fixed tight budget and fault rate: how each
/// degradation ladder rung pays for the same pressure.
void RunPolicySweep(int* cell_idx) {
  uint64_t seed = kPolicySeed;
  for (const ResourcePolicy policy :
       {ResourcePolicy::kFailFlow, ResourcePolicy::kPauseRetry,
        ResourcePolicy::kShedToQuarantine}) {
    RunCell(kPolicyBudget, kPolicyFaultRate, policy, seed++, cell_idx);
  }
}

/// The policy sweep's structural gates (see the file comment). Returns 0
/// when every gate holds; prints each violation.
int CheckPolicySweep() {
  int violations = 0;
  const auto fail = [&violations](const Cell& cell, const std::string& why) {
    std::cerr << "policy " << cell.policy << ": " << why << "\n";
    ++violations;
  };
  for (const auto& [idx, cell] : Cells()) {
    if (cell.budget != kPolicyBudget || cell.fault_rate != kPolicyFaultRate) {
      continue;
    }
    if (cell.policy == "fail_flow") {
      if (cell.outcome != "resource_exhausted") {
        fail(cell, "outcome " + cell.outcome + ", want resource_exhausted");
      }
    } else if (cell.policy == "pause_retry") {
      if (cell.outcome != "ok") fail(cell, "outcome " + cell.outcome);
      if (cell.retries == 0) fail(cell, "met no fault");
      if (cell.attempts != 1 + cell.retries) {
        fail(cell, std::to_string(cell.attempts) + " attempts for " +
                       std::to_string(cell.retries) + " retries");
      }
      if (cell.landed != kRows || cell.rows_loaded != kRows) {
        fail(cell, "landed " + std::to_string(cell.landed) +
                       " rows (rows_loaded " +
                       std::to_string(cell.rows_loaded) + "), want " +
                       std::to_string(kRows));
      }
    } else if (cell.policy == "shed_to_quarantine") {
      if (cell.outcome != "ok") fail(cell, "outcome " + cell.outcome);
      if (cell.rows_shed == 0) fail(cell, "met no fault");
      if (cell.rows_loaded != cell.landed ||
          cell.rows_loaded + cell.rows_shed != kRows) {
        fail(cell, "rows_loaded " + std::to_string(cell.rows_loaded) +
                       " + rows_shed " + std::to_string(cell.rows_shed) +
                       " (landed " + std::to_string(cell.landed) +
                       "), want " + std::to_string(kRows));
      }
    }
  }
  return violations == 0 ? 0 : 1;
}

void BM_AblResourcePressure(benchmark::State& state) {
  // Budgets spanning comfortable to far below the sort's working set
  // (~20k rows x ~70 B); 0 = unlimited, the baseline.
  const std::vector<size_t> budgets = {0, 1 << 20, 256 << 10, 64 << 10};
  const std::vector<double> fault_rates = {0.0, 0.02};
  for (auto _ : state) {
    int cell_idx = 0;
    uint64_t seed = 0x5e50;
    // Budget sweep under kPauseRetry (every cell converges).
    for (const size_t budget : budgets) {
      for (const double rate : fault_rates) {
        RunCell(budget, rate, ResourcePolicy::kPauseRetry, seed++, &cell_idx);
      }
    }
    RunPolicySweep(&cell_idx);
    state.SetIterationTime(1e-3);
  }
  std::filesystem::remove_all(kSpillDir);
}

BENCHMARK(BM_AblResourcePressure)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void PrintFigure() {
  bench::Table table({"budget", "fault_rate", "policy", "outcome",
                      "spill_runs", "spill_rows", "spill_kb", "mem_hw_kb",
                      "loaded", "shed", "attempts", "total_ms",
                      "pred_spill_ms", "pred_delay_ms"});
  std::ostringstream json;
  json << "{\"bench\":\"abl_resource_pressure\",\"rows\":" << kRows
       << ",\"results\":[";
  bool first = true;
  for (const auto& [idx, cell] : Cells()) {
    table.AddRow({cell.budget == 0 ? "inf" : std::to_string(cell.budget),
                  bench::Seconds(cell.fault_rate, 3), cell.policy,
                  cell.outcome, std::to_string(cell.spill_runs),
                  std::to_string(cell.spill_rows),
                  std::to_string(cell.spill_bytes / 1024),
                  std::to_string(cell.mem_high_water / 1024),
                  std::to_string(cell.rows_loaded),
                  std::to_string(cell.rows_shed),
                  std::to_string(cell.attempts), bench::Ms(cell.total_micros),
                  bench::Seconds(cell.predicted_spill_s * 1e3, 2),
                  bench::Seconds(cell.predicted_delay_s * 1e3, 2)});
    if (!first) json << ",";
    first = false;
    json << "{\"budget\":" << cell.budget
         << ",\"fault_rate\":" << cell.fault_rate << ",\"policy\":\""
         << cell.policy << "\",\"outcome\":\"" << cell.outcome
         << "\",\"spill_runs\":" << cell.spill_runs
         << ",\"spill_rows\":" << cell.spill_rows
         << ",\"spill_bytes\":" << cell.spill_bytes
         << ",\"mem_high_water\":" << cell.mem_high_water
         << ",\"rows_shed\":" << cell.rows_shed
         << ",\"rows_loaded\":" << cell.rows_loaded
         << ",\"attempts\":" << cell.attempts
         << ",\"retries\":" << cell.retries
         << ",\"total_micros\":" << cell.total_micros
         << ",\"predicted_spill_s\":" << cell.predicted_spill_s
         << ",\"predicted_delay_s\":" << cell.predicted_delay_s << "}";
  }
  json << "]}";
  table.Print(
      "Ablation: resource pressure — memory budget x disk-fault rate "
      "(20k rows, sort-heavy flow; ENOSPC injected at the warehouse "
      "append; predicted columns from the cost model's resource law)");
  std::cout << json.str() << std::endl;
}

}  // namespace
}  // namespace qox

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      int cell_idx = 0;
      qox::RunPolicySweep(&cell_idx);
      std::filesystem::remove_all(qox::kSpillDir);
      qox::PrintFigure();
      return qox::CheckPolicySweep();
    }
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  qox::PrintFigure();
  return qox::CheckPolicySweep();
}
