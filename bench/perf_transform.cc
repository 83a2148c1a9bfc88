// Transform throughput of the per-row kernels.
//
// Runs two flows of the Fig. 3 scenario for real with in-memory sources
// (so the transform segment, not extraction, is the subject) across batch
// sizes and worker counts, and reports rows/sec of the transform phase for
// each combination:
//
//   * click_top (S3 -> Flt -> Func -> SK -> DW3): the whole chain is
//     per-row, so the entire transform segment is one kernel run.
//   * sales_bottom (S1 -> Δ -> Lkp x2 -> Flt -> Func -> SK x2 -> DW1): the
//     blocking Δ takes row batches; the six ops behind it form one kernel
//     run (shared-dimension flat probes included).
//
// Every cell byte-compares its warehouse with the 1-worker run of the same
// flow at the first batch size, as a multiset of rows (the ordered merge
// emits partitioned output in first-column order): batch size and
// partitioning must be pure throughput changes. (That first run assigns
// every surrogate key, so the racing branches of later runs only look keys
// up.) Like perf_streaming this measures real wall time, so it skips the
// virtual N-CPU scheduler and the google-benchmark harness. Results go to
// stdout AND BENCH_transform.json.
//
// Usage: perf_transform [--quick]   (--quick: small sweep for ctest smoke)

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sales_workflow.h"
#include "engine/executor.h"

namespace qox {
namespace {

constexpr int kRepeats = 3;  // best-of, to shed cold-cache noise

struct Sweep {
  size_t rows = 120000;
  std::vector<size_t> batch_sizes = {256, kDefaultBatchSize, 4096};
  std::vector<size_t> worker_counts = {1, 2, 4};
  int repeats = kRepeats;
};

ExecutionConfig MakeConfig(size_t batch_size, size_t workers,
                           bool has_delta) {
  ExecutionConfig config;
  config.batch_size = batch_size;
  config.num_threads = workers;
  if (workers > 1) {
    config.parallel.partitions = workers;
    // The Δ serializes on the shared snapshot: partition the chain behind it.
    if (has_delta) config.parallel.range_begin = 1;
  }
  return config;
}

/// Best-of-repeats transform time for one configuration, plus the first
/// run's warehouse contents, sorted (for the byte-identity check across
/// cells).
struct Sample {
  int64_t transform_micros = 0;
  int64_t rows_loaded = 0;
  size_t rows_extracted = 0;
  size_t columnar_batches = 0;
  size_t columnar_rows = 0;
  std::vector<Row> warehouse;
  bool ok = false;
};

Sample Measure(SalesScenario* scenario, const LogicalFlow& flow,
               const DataStorePtr& warehouse, size_t batch_size,
               size_t workers, bool has_delta, int repeats) {
  Sample best;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    if (!scenario->ResetWarehouse().ok()) return best;
    const Result<RunMetrics> metrics = Executor::Run(
        flow.ToFlowSpec(), MakeConfig(batch_size, workers, has_delta));
    if (!metrics.ok()) {
      std::cerr << "perf_transform run failed (flow=" << flow.id()
                << " batch=" << batch_size << " workers=" << workers
                << "): " << metrics.status() << "\n";
      return best;
    }
    if (repeat == 0) {
      best.warehouse = warehouse->ReadAll().value().rows();
      std::sort(best.warehouse.begin(), best.warehouse.end());
    }
    if (!best.ok || metrics.value().transform_micros < best.transform_micros) {
      best.transform_micros = metrics.value().transform_micros;
      best.rows_loaded = static_cast<int64_t>(metrics.value().rows_loaded);
      best.rows_extracted = metrics.value().rows_extracted;
      best.columnar_batches = metrics.value().columnar_batches;
      best.columnar_rows = metrics.value().columnar_rows;
      best.ok = true;
    }
  }
  return best;
}

double TransformRowsPerSec(const Sample& sample) {
  if (!sample.ok || sample.transform_micros <= 0) return 0.0;
  return static_cast<double>(sample.rows_loaded) * 1e6 /
         static_cast<double>(sample.transform_micros);
}

int RunBench(const Sweep& sweep) {
  SalesScenarioConfig config;
  config.s1_rows = sweep.rows;
  config.s2_rows = 2000;
  config.s3_rows = sweep.rows;
  Result<std::unique_ptr<SalesScenario>> scenario =
      SalesScenario::Create(config);
  if (!scenario.ok()) {
    std::cerr << "scenario build failed: " << scenario.status() << "\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\"bench\":\"perf_transform\",\"rows\":" << sweep.rows
       << ",\"default_batch_size\":" << kDefaultBatchSize << ",\"flows\":[";
  bool first_flow = true;
  int failures = 0;
  for (const bool has_delta : {false, true}) {
    const LogicalFlow& flow = has_delta ? scenario.value()->bottom_flow()
                                        : scenario.value()->top_flow();
    const DataStorePtr& warehouse =
        has_delta ? scenario.value()->dw1() : scenario.value()->dw3();
    if (!first_flow) json << ",";
    first_flow = false;
    json << "{\"flow\":\"" << flow.id() << "\",\"results\":[";
    bool first = true;
    std::vector<Row> reference;
    bool have_reference = false;
    for (const size_t batch_size : sweep.batch_sizes) {
      double one_worker_rows_per_s = 0.0;
      for (const size_t workers : sweep.worker_counts) {
        const Sample sample =
            Measure(scenario.value().get(), flow, warehouse, batch_size,
                    workers, has_delta, sweep.repeats);
        if (!sample.ok) return 1;
        if (!have_reference) {
          // The first cell is the 1-worker run (worker_counts starts at 1).
          reference = sample.warehouse;
          have_reference = true;
        }
        bool identical = sample.warehouse.size() == reference.size();
        for (size_t i = 0; identical && i < reference.size(); ++i) {
          identical =
              sample.warehouse[i].ToString() == reference[i].ToString();
        }
        if (!identical) {
          std::cerr << "BYTE-IDENTITY VIOLATION: flow=" << flow.id()
                    << " batch=" << batch_size << " workers=" << workers
                    << "\n";
          ++failures;
        }
        // Without a leading Δ every extracted row enters the kernel run.
        if (!has_delta && sample.columnar_rows != sample.rows_extracted) {
          std::cerr << "kernel run saw " << sample.columnar_rows << " of "
                    << sample.rows_extracted
                    << " extracted rows: flow=" << flow.id()
                    << " batch=" << batch_size << " workers=" << workers
                    << "\n";
          ++failures;
        }
        const double rows_per_s = TransformRowsPerSec(sample);
        if (workers == 1) one_worker_rows_per_s = rows_per_s;
        if (!first) json << ",";
        first = false;
        json << "{\"batch_size\":" << batch_size << ",\"workers\":" << workers
             << ",\"transform_us\":" << sample.transform_micros
             << ",\"rows_per_s\":" << static_cast<int64_t>(rows_per_s)
             << ",\"speedup_vs_1_worker\":"
             << (one_worker_rows_per_s > 0.0
                     ? rows_per_s / one_worker_rows_per_s
                     : 0.0)
             << ",\"rows_extracted\":" << sample.rows_extracted
             << ",\"columnar_batches\":" << sample.columnar_batches
             << ",\"columnar_rows\":" << sample.columnar_rows
             << ",\"identical_output\":" << (identical ? "true" : "false")
             << "}";
      }
    }
    json << "]}";
  }
  json << "]}";
  std::cout << json.str() << std::endl;
  std::ofstream out("BENCH_transform.json");
  out << json.str() << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qox

int main(int argc, char** argv) {
  qox::Sweep sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      // ctest smoke: one batch size, 1 and 2 workers, small input — checks
      // byte identity and kernel-run coverage, not the throughput numbers.
      sweep.rows = 20000;
      sweep.batch_sizes = {qox::kDefaultBatchSize};
      sweep.worker_counts = {1, 2};
      sweep.repeats = 2;
    }
  }
  return qox::RunBench(sweep);
}
