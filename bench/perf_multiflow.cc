// Multi-flow service scheduling: EDF vs FIFO under deadline pressure.
//
// Runs K identical flows through one FlowService over a shared WorkerPool:
// half "loose" (deadline far beyond any schedule) and half "tight"
// (deadline sized so the tight cohort only holds it when dispatched ahead
// of the queued loose flows), with the SUBMISSION order deliberately
// adversarial (all loose first — the order a naive FIFO queue is worst
// at). Each load point (flow count x pool size) runs twice, once per
// queue policy, and reports deadline-hit rate and p95 lateness. The
// structural claim under test: EDF promotes the tight cohort past the
// queued loose flows, so at serial load points it must hit STRICTLY more
// deadlines than FIFO — the benchmark fails otherwise, and also fails
// unless admission control demonstrably rejects an over-capacity
// submission with kResourceExhausted.
//
// The deadlines the queue orders by are calibrated from a measured run of
// the same flows THROUGH THE SERVICE (a no-SLA FIFO warmup load point),
// not from a solo Executor::Run — service tenancy (shared pool, live
// neighbour working sets) is part of the per-flow time the deadlines must
// be expressed in. Hits are then judged in the load point's own unit (the
// FIFO run's makespan per flow), so a host that runs faster or slower
// than during calibration cannot hand both policies every deadline.
// Like perf_transform this measures real wall time and skips the
// google-benchmark harness. Results go to stdout AND BENCH_multiflow.json.
//
// Usage: perf_multiflow [--quick]   (--quick: small sweep for ctest smoke)

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "engine/flow_service.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "storage/mem_table.h"

namespace qox {
namespace {

/// Tight-cohort deadline for K flows (T = K/2 tight): (T + 1.7) flow
/// units. Under EDF with one slot the tights run at queue positions
/// 2..T+1 (position 1 belongs to the loose flow that grabbed the free
/// slot at submit time), so the last tight finishes around (T + 1) units
/// — inside the deadline with 0.7 units of noise headroom. Under FIFO
/// they run at positions L+1..K and all but the first blow it.
constexpr double kTightSlackFlows = 1.7;
/// Loose-cohort deadline: 3K flow units — held under any dispatch order.
constexpr double kLooseBudgetFlows = 3.0;

Schema FlowSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"category", DataType::kString, true},
                 {"amount", DataType::kDouble, true}});
}

std::vector<Row> FlowRows(size_t n) {
  std::vector<Row> rows;
  const char* categories[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    Row row({Value::Int64(static_cast<int64_t>(i)),
             Value::String(categories[i % 3]),
             Value::Double(static_cast<double>(i % 100))});
    if (i % 8 == 7) row.Set(2, Value::Null());
    rows.push_back(std::move(row));
  }
  return rows;
}

Schema BoundSchema() {
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 3.0)});
  return fn.Bind(FlowSchema()).value();
}

FlowSpec MakeFlow(const std::string& id, const DataStorePtr& source,
                  const DataStorePtr& target) {
  FlowSpec spec;
  spec.id = id;
  spec.source = source;
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 3.0)});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("sort",
                                    std::vector<SortKey>{{"id", false}});
  });
  spec.target = target;
  return spec;
}

DataStorePtr MakeSource(size_t rows) {
  auto table = std::make_shared<MemTable>("src", FlowSchema());
  const Status st = table->Append(RowBatch(FlowSchema(), FlowRows(rows)));
  if (!st.ok()) std::cerr << "source build failed: " << st << "\n";
  return table;
}

/// Per-flow wall time of a flow AS A SERVICE TENANT — the unit every
/// deadline is expressed in. Runs a no-SLA FIFO load point (4 flows,
/// 1 worker, 1 slot) and divides the wall time by the flow count, so
/// dispatch overhead and neighbour working sets are priced in. The
/// first pass is a discarded warmup: the measured load points run warm,
/// and a cold-skewed unit would hand FIFO unearned hits.
int64_t CalibrationPassMicros(size_t rows);

int64_t CalibrateServiceMicros(size_t rows) {
  int64_t warm_micros = 0;
  for (int pass = 0; pass < 2; ++pass) {
    warm_micros = CalibrationPassMicros(rows);
    if (warm_micros <= 0) return 0;
  }
  return warm_micros;
}

int64_t CalibrationPassMicros(size_t rows) {
  constexpr size_t kFlows = 4;
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kFifo;
  FlowService service(service_config);
  std::vector<DataStorePtr> sources;
  std::vector<std::shared_ptr<MemTable>> targets;
  for (size_t i = 0; i < kFlows; ++i) {
    sources.push_back(MakeSource(rows));
    targets.push_back(std::make_shared<MemTable>("tgt", BoundSchema()));
  }
  const int64_t start = NowMicros();
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < kFlows; ++i) {
    FlowSubmission submission;
    submission.flow =
        MakeFlow("calibrate" + std::to_string(i), sources[i], targets[i]);
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    if (!ticket.ok()) {
      std::cerr << "calibration submit failed: " << ticket.status() << "\n";
      return 0;
    }
    tickets.push_back(ticket.value());
  }
  for (const uint64_t ticket : tickets) {
    const Result<RunMetrics> metrics = service.Wait(ticket);
    if (!metrics.ok()) {
      std::cerr << "calibration run failed: " << metrics.status() << "\n";
      return 0;
    }
  }
  return (NowMicros() - start) / static_cast<int64_t>(kFlows);
}

struct PolicyResult {
  size_t hits = 0;
  size_t flows = 0;
  double hit_rate = 0.0;
  int64_t p95_lateness_us = 0;
};

/// One load point's run under one policy: when each flow finished,
/// counted from the first submission, and its deadline in flow units.
struct PolicyRun {
  std::vector<int64_t> finish_us;
  std::vector<double> deadline_flows;
  bool ok = false;

  int64_t makespan_us() const {
    return *std::max_element(finish_us.begin(), finish_us.end());
  }
};

/// Runs one load point under one policy: K flows — the loose half
/// submitted first, the tight half last (FIFO's worst case). The service
/// queues them by deadlines in `flow_micros`, the calibrated unit.
PolicyRun RunLoadPoint(QueuePolicy policy, size_t flows, size_t pool,
                       size_t rows, int64_t flow_micros) {
  PolicyRun run;
  FlowServiceConfig service_config;
  service_config.num_workers = pool;
  service_config.max_concurrent_flows = pool;
  service_config.policy = policy;
  FlowService service(service_config);

  std::vector<DataStorePtr> sources;
  std::vector<std::shared_ptr<MemTable>> targets;
  for (size_t i = 0; i < flows; ++i) {
    sources.push_back(MakeSource(rows));
    targets.push_back(std::make_shared<MemTable>("tgt", BoundSchema()));
  }
  const size_t tight = flows / 2;
  const double tight_flows = static_cast<double>(tight) + kTightSlackFlows;
  const double loose_flows = kLooseBudgetFlows * static_cast<double>(flows);
  run.finish_us.assign(flows, 0);
  run.deadline_flows.assign(flows, 0.0);
  std::vector<uint64_t> tickets;
  const int64_t start = NowMicros();
  // Submission order: the loose cohort first (indexes [tight, flows)),
  // then the tight cohort — FIFO serves the queue in exactly that order.
  for (size_t n = 0; n < flows; ++n) {
    const size_t i = (n + tight) % flows;
    const bool is_tight = i < tight;
    run.deadline_flows[i] = is_tight ? tight_flows : loose_flows;
    FlowSubmission submission;
    submission.flow = MakeFlow(
        std::string(is_tight ? "tight" : "loose") + std::to_string(i),
        sources[i], targets[i]);
    submission.flow.post_success = [&run, i, start]() {
      run.finish_us[i] = NowMicros() - start;
      return Status::OK();
    };
    submission.config.sla.deadline_micros = static_cast<int64_t>(
        run.deadline_flows[i] * static_cast<double>(flow_micros));
    submission.predicted_micros = flow_micros;
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    if (!ticket.ok()) {
      std::cerr << "submit failed: " << ticket.status() << "\n";
      return run;
    }
    tickets.push_back(ticket.value());
  }
  for (const uint64_t ticket : tickets) {
    const Result<RunMetrics> metrics = service.Wait(ticket);
    if (!metrics.ok()) {
      std::cerr << "flow failed: " << metrics.status() << "\n";
      return run;
    }
  }
  run.ok = true;
  return run;
}

/// Deadline hits and lateness of `run` with one flow unit of `unit_us`.
PolicyResult Judge(const PolicyRun& run, double unit_us) {
  PolicyResult result;
  result.flows = run.finish_us.size();
  std::vector<int64_t> lateness;
  for (size_t i = 0; i < result.flows; ++i) {
    const int64_t late =
        run.finish_us[i] -
        static_cast<int64_t>(run.deadline_flows[i] * unit_us);
    if (late <= 0) ++result.hits;
    lateness.push_back(std::max<int64_t>(0, late));
  }
  result.hit_rate =
      static_cast<double>(result.hits) / static_cast<double>(result.flows);
  std::sort(lateness.begin(), lateness.end());
  result.p95_lateness_us =
      lateness[std::min(lateness.size() - 1,
                        static_cast<size_t>(0.95 * lateness.size()))];
  return result;
}

/// Admission-control demonstration: with feasibility checking on, a
/// submission whose predicted load cannot meet its deadline is rejected
/// with kResourceExhausted instead of admitted-then-missed. Admitted
/// flows park in post_success on a latch until the whole submission
/// sequence is adjudicated — their predicted load must stay outstanding,
/// and the tiny actual flows would otherwise race to completion.
bool DemonstrateAdmissionControl(std::ostringstream* json) {
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 4;
  service_config.admit_only_feasible = true;
  FlowService service(service_config);
  size_t rejected_resource_exhausted = 0;
  std::vector<uint64_t> admitted;
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool released = false;
  // Each flow predicts 100s of work against a 250s deadline: the first two
  // fit the projection, the rest are over capacity and must be rejected.
  constexpr int64_t kPredicted = 100000000;
  constexpr int64_t kDeadline = 250000000;
  constexpr size_t kSubmissions = 4;
  for (size_t i = 0; i < kSubmissions; ++i) {
    FlowSubmission submission;
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    submission.flow =
        MakeFlow("admission" + std::to_string(i), MakeSource(200), target);
    submission.flow.post_success = [&hold_mu, &hold_cv, &released]() {
      std::unique_lock<std::mutex> lock(hold_mu);
      hold_cv.wait(lock, [&released]() { return released; });
      return Status::OK();
    };
    submission.config.sla.deadline_micros = kDeadline;
    submission.predicted_micros = kPredicted;
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    if (ticket.ok()) {
      admitted.push_back(ticket.value());
    } else if (ticket.status().code() == StatusCode::kResourceExhausted) {
      ++rejected_resource_exhausted;
    }
  }
  {
    std::lock_guard<std::mutex> lock(hold_mu);
    released = true;
  }
  hold_cv.notify_all();
  for (const uint64_t ticket : admitted) {
    const Result<RunMetrics> metrics = service.Wait(ticket);
    if (!metrics.ok()) std::cerr << "admitted flow failed\n";
  }
  *json << "\"admission\":{\"submitted\":" << kSubmissions
        << ",\"admitted\":" << admitted.size()
        << ",\"rejected\":" << rejected_resource_exhausted << "}";
  return rejected_resource_exhausted > 0 && !admitted.empty();
}

struct LoadPoint {
  size_t flows;
  size_t pool;
  bool gate;  ///< serial point: EDF must strictly beat FIFO here
};

int RunBench(bool quick) {
  const size_t rows = quick ? 20000 : 60000;
  const int64_t flow_micros = CalibrateServiceMicros(rows);
  if (flow_micros <= 0) return 1;

  std::vector<LoadPoint> points;
  if (quick) {
    points = {{6, 1, true}, {8, 1, true}};
  } else {
    points = {{6, 1, true}, {10, 1, true}, {8, 2, false}, {12, 2, false}};
  }

  std::ostringstream json;
  json << "{\"bench\":\"perf_multiflow\",\"rows_per_flow\":" << rows
       << ",\"service_flow_us\":" << flow_micros
       << ",\"tight_slack_flows\":" << kTightSlackFlows
       << ",\"load_points\":[";
  int failures = 0;
  bool first = true;
  for (const LoadPoint& point : points) {
    // Both policies are judged in one unit measured at this load point:
    // the FIFO run's makespan per flow. A host that runs faster or slower
    // here than during calibration then moves both runs' deadlines with
    // it; the calibrated unit only sets the deadlines the queue orders by.
    // A gated point still gets one recalibrated retry, for a load spike
    // inside one of the two runs.
    PolicyResult edf;
    PolicyResult fifo;
    double point_unit_us = 0.0;
    bool edf_beats_fifo = false;
    int attempts = 0;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const int64_t unit =
          attempt == 0 ? flow_micros : CalibrateServiceMicros(rows);
      if (unit <= 0) return 1;
      const PolicyRun edf_run = RunLoadPoint(QueuePolicy::kEdf, point.flows,
                                             point.pool, rows, unit);
      const PolicyRun fifo_run = RunLoadPoint(
          QueuePolicy::kFifo, point.flows, point.pool, rows, unit);
      if (!edf_run.ok || !fifo_run.ok) return 1;
      point_unit_us = static_cast<double>(fifo_run.makespan_us()) /
                      static_cast<double>(point.flows);
      edf = Judge(edf_run, point_unit_us);
      fifo = Judge(fifo_run, point_unit_us);
      edf_beats_fifo = edf.hits > fifo.hits;
      ++attempts;
      if (edf_beats_fifo || !point.gate) break;
      std::cerr << "retrying load point " << point.flows << " flows x pool "
                << point.pool << " with fresh calibration (EDF " << edf.hits
                << " hits, FIFO " << fifo.hits << ")\n";
    }
    if (point.gate && !edf_beats_fifo) {
      std::cerr << "EDF did not strictly beat FIFO at serial load point "
                << point.flows << " flows x pool " << point.pool << " (EDF "
                << edf.hits << " hits, FIFO " << fifo.hits << ")\n";
      ++failures;
    }
    if (!first) json << ",";
    first = false;
    json << "{\"flows\":" << point.flows << ",\"pool\":" << point.pool
         << ",\"attempts\":" << attempts
         << ",\"point_flow_us\":" << point_unit_us
         << ",\"edf\":{\"deadline_hits\":" << edf.hits
         << ",\"hit_rate\":" << edf.hit_rate
         << ",\"p95_lateness_us\":" << edf.p95_lateness_us
         << "},\"fifo\":{\"deadline_hits\":" << fifo.hits
         << ",\"hit_rate\":" << fifo.hit_rate
         << ",\"p95_lateness_us\":" << fifo.p95_lateness_us
         << "},\"edf_beats_fifo\":" << (edf_beats_fifo ? "true" : "false")
         << "}";
  }
  json << "],";
  if (!DemonstrateAdmissionControl(&json)) {
    std::cerr << "admission control failed to reject over-capacity load\n";
    ++failures;
  }
  json << "}";
  std::cout << json.str() << std::endl;
  std::ofstream out("BENCH_multiflow.json");
  out << json.str() << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qox

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  return qox::RunBench(quick);
}
