// warehouse_batch: a closed loop of Fig. 3 passes.
//
// One pass is ResetWarehouse followed by the bottom, middle and top flows,
// each through Executor::Run, with S1 and S2 read from unthrottled CSV,
// streaming and columnar on, and 4 partitions (behind the delta for the
// two delta flows). No recovery points, no journal: the pass is CPU-bound
// and never touches fork, fsync or CDC code, so it isolates extract/decode,
// the delta, operator kernels, channels, partition split, ordered merge and
// load.
//
// Oracle: after every pass the three warehouse tables' fingerprints must
// equal those of a serial, phased, row-path reference pass made at set-up.

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/clock.h"
#include "common/column_batch.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/sales_workflow.h"
#include "engine/channel.h"
#include "engine/executor.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

using qox::ExecutionConfig;
using qox::LogicalFlow;
using qox::Result;
using qox::RunMetrics;
using qox::Status;

// Input size of one pass (rows of S1 sales, S2 staff logs, S3 clicks).
constexpr size_t kS1Rows = 12000;
constexpr size_t kS2Rows = 1200;
constexpr size_t kS3Rows = 12000;
constexpr size_t kPartitions = 4;
/// A pass finishing within this many milliseconds meets its SLA.
constexpr double kPassSlaMs = 300.0;

struct Fixture {
  std::unique_ptr<qox::SalesScenario> scenario;
  std::array<size_t, 3> reference{};
};

const LogicalFlow& FlowAt(const qox::SalesScenario& s, size_t i) {
  return i == 0 ? s.bottom_flow() : i == 1 ? s.middle_flow() : s.top_flow();
}

const qox::DataStorePtr& TargetAt(const qox::SalesScenario& s, size_t i) {
  return i == 0 ? s.dw1() : i == 1 ? s.dw2() : s.dw3();
}

constexpr const char* kRunSpan[3] = {"engine.executor.run.bottom",
                                     "engine.executor.run.middle",
                                     "engine.executor.run.top"};

/// The timed configuration of flow `i` (0 bottom, 1 middle, 2 top).
qox::PhysicalDesign PassDesign(const qox::SalesScenario& s, size_t i,
                               size_t partitions) {
  qox::PhysicalDesign design;
  design.flow = FlowAt(s, i);
  design.threads = partitions;
  design.streaming = true;
  design.columnar = true;
  if (partitions > 1) {
    design.parallel.partitions = partitions;
    // The delta serializes on its snapshot; partition only what follows.
    if (i < 2) design.parallel.range_begin = 1;
  }
  return design;
}

Result<std::array<size_t, 3>> Fingerprints(const qox::SalesScenario& s) {
  std::array<size_t, 3> fp{};
  for (size_t i = 0; i < 3; ++i) {
    QOX_ASSIGN_OR_RETURN(const qox::RowBatch rows, TargetAt(s, i)->ReadAll());
    fp[i] = qox::FingerprintRows(rows.rows());
  }
  return fp;
}

struct Pass {
  double ms = 0.0;
  size_t rows = 0;
  std::array<RunMetrics, 3> runs;
};

/// One pass. `partitions` == 0 runs the serial, phased, row-path reference.
Result<Pass> RunPass(qox::SalesScenario* s, size_t partitions, uint64_t op) {
  Span span("warehouse.pass", op);
  Pass pass;
  const qox::StopWatch watch;
  QOX_RETURN_IF_ERROR(s->ResetWarehouse());
  for (size_t i = 0; i < 3; ++i) {
    const ExecutionConfig config =
        partitions == 0 ? ExecutionConfig{}
                        : PassDesign(*s, i, partitions)
                              .ToExecutionConfig(nullptr, nullptr);
    Span run_span(kRunSpan[i], op);
    QOX_ASSIGN_OR_RETURN(
        pass.runs[i], qox::Executor::Run(FlowAt(*s, i).ToFlowSpec(), config));
    pass.rows += pass.runs[i].rows_loaded;
  }
  pass.ms = static_cast<double>(watch.ElapsedMicros()) / 1000.0;
  return pass;
}

Result<Fixture> SetUp(const RunContext& ctx) {
  Span span("warehouse.setup");
  const std::string dir = ctx.work_dir + "/warehouse";
  std::filesystem::create_directories(dir);
  qox::SalesScenarioConfig config;
  config.workload.seed = ctx.seed;
  config.s1_rows = kS1Rows;
  config.s2_rows = kS2Rows;
  config.s3_rows = kS3Rows;
  config.data_dir = dir;
  Fixture fixture;
  QOX_ASSIGN_OR_RETURN(fixture.scenario, qox::SalesScenario::Create(config));
  QOX_RETURN_IF_ERROR(RunPass(fixture.scenario.get(), 0, 0).status());
  QOX_ASSIGN_OR_RETURN(fixture.reference, Fingerprints(*fixture.scenario));
  // Warm-up: one timed-configuration pass, discarded.
  QOX_RETURN_IF_ERROR(
      RunPass(fixture.scenario.get(), kPartitions, 0).status());
  return fixture;
}

/// Checks a finished pass against the reference; true when it matches.
Result<bool> Verify(const Fixture& fixture, bool perturb) {
  Span span("warehouse.verify");
  if (perturb) {
    // A duplicated warehouse row: the oracle must flag it.
    QOX_ASSIGN_OR_RETURN(const qox::RowBatch rows,
                         fixture.scenario->dw1()->ReadAll());
    qox::RowBatch extra(fixture.scenario->dw1()->schema());
    extra.Append(rows.rows().front());
    QOX_RETURN_IF_ERROR(fixture.scenario->dw1()->Append(extra));
  }
  QOX_ASSIGN_OR_RETURN(const auto fp, Fingerprints(*fixture.scenario));
  return fp == fixture.reference;
}

double SumMs(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

}  // namespace

Status RunWarehouseBatch(const RunContext& ctx, Measured* out) {
  QOX_ASSIGN_OR_RETURN(Fixture fixture,
                       SetUpRepeated(ctx, out, [&] { return SetUp(ctx); }));
  const qox::StopWatch wall;
  uint64_t op = 0;
  while (wall.ElapsedSeconds() < ctx.seconds) {
    ++op;
    ++out->attempted;
    const Result<Pass> pass = RunPass(fixture.scenario.get(), kPartitions, op);
    if (!pass.ok()) {
      ++out->failed;
      out->Note("pass_error", pass.status().ToString());
      continue;
    }
    QOX_ASSIGN_OR_RETURN(const bool match,
                         Verify(fixture, ctx.perturb && op == 1));
    if (!match) {
      ++out->failed;
      out->Note("oracle", "pass " + std::to_string(op) +
                              " warehouse fingerprints differ from the "
                              "serial reference");
      continue;
    }
    out->latency_ms.push_back(pass.value().ms);
    out->rows += static_cast<double>(pass.value().rows);
    if (pass.value().ms <= kPassSlaMs) ++out->deadline_hits;
  }
  out->timed_s = SumMs(out->latency_ms) / 1000.0;
  out->Note("operation", "Fig. 3 pass (bottom+middle+top), closed loop");
  out->Note("input_rows", std::to_string(kS1Rows) + "+" +
                              std::to_string(kS2Rows) + "+" +
                              std::to_string(kS3Rows));
  out->Note("partitions", std::to_string(kPartitions));
  out->Note("sla_ms", Fmt(kPassSlaMs, 0));
  return Status::OK();
}

// --- traced per-layer probe -------------------------------------------------

namespace {

/// Stage roles of the streaming dataflow, by stage-name prefix.
const char* StageRole(const std::string& name) {
  if (name == "extract" || name == "replay") return "extract";
  if (name.rfind("merge", 0) == 0) return "merge";
  if (name.rfind("part", 0) == 0) return "partition";
  if (name == "load") return "load";
  return "transform";
}

struct StageSums {
  double busy = 0, stall = 0, backpressure = 0;
};

/// Two-thread Channel<RowBatch> hand-off: ns per batch pushed and popped.
double ChannelHopNs(const qox::Schema& schema) {
  constexpr size_t kBatches = 20000;
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    qox::Channel<qox::RowBatch> channel(8);
    const auto start = std::chrono::steady_clock::now();
    std::thread producer([&] {
      for (size_t i = 0; i < kBatches; ++i) {
        if (!channel.Push(qox::RowBatch(schema)).ok()) return;
      }
      channel.Close();
    });
    size_t popped = 0;
    while (true) {
      auto item = channel.Pop();
      if (!item.ok() || !item.value().has_value()) break;
      ++popped;
    }
    producer.join();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    samples.push_back(ns / static_cast<double>(std::max<size_t>(1, popped)));
  }
  return Median(samples);
}

}  // namespace

Status ProbeWarehouseLayers(const RunContext& ctx, Report* out) {
  QOX_ASSIGN_OR_RETURN(Fixture fixture, SetUp(ctx));
  qox::SalesScenario* s = fixture.scenario.get();

  // common: row <-> column conversion of the S1 batch.
  QOX_ASSIGN_OR_RETURN(const qox::RowBatch s1_rows, s->s1()->ReadAll());
  const double s1_ns = 1000.0 / static_cast<double>(s1_rows.num_rows());
  {
    Span span("common.column_batch.from_rows");
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(5, [&](int) {
                           (void)qox::ColumnBatch::FromRowBatch(s1_rows);
                           return Status::OK();
                         }));
    out->Add("common.column_batch.from_rows_ns_per_row", us * s1_ns,
             "ns/row");
  }
  const auto columns = qox::ColumnBatch::FromRowBatch(s1_rows);
  if (!columns.has_value()) return Status::Internal("S1 is not type-pure");
  {
    Span span("common.column_batch.to_rows");
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(5, [&](int) {
                           (void)columns->ToRowBatch();
                           return Status::OK();
                         }));
    out->Add("common.column_batch.to_rows_ns_per_row", us * s1_ns, "ns/row");
  }

  // storage: the S1 CSV decode (extract of the bottom flow).
  {
    Span span("storage.flat_file.scan");
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(5, [&](int) {
                           return s->s1()->Scan(
                               qox::kDefaultBatchSize,
                               [](qox::RowBatch&) { return Status::OK(); });
                         }));
    out->Add("storage.flat_file.scan_ns_per_row", us * s1_ns, "ns/row");
  }

  // engine: traced passes in the timed configuration.
  constexpr int kPasses = 5;
  std::array<std::vector<double>, 3> run_ms;
  std::vector<double> pass_ms;
  std::map<std::string, std::pair<double, double>> op_micros_rows;
  std::map<std::string, StageSums> stages;
  double columnar_rows = 0, extracted_rows = 0, merge_us = 0, merged_rows = 0;
  double rows_per_pass = 0;
  for (int p = 0; p < kPasses; ++p) {
    QOX_ASSIGN_OR_RETURN(
        const Pass pass,
        RunPass(s, kPartitions, 1000 + static_cast<uint64_t>(p)));
    pass_ms.push_back(pass.ms);
    rows_per_pass = static_cast<double>(pass.rows);
    for (size_t i = 0; i < 3; ++i) {
      const RunMetrics& m = pass.runs[i];
      run_ms[i].push_back(static_cast<double>(m.total_micros) / 1000.0);
      for (const qox::OpStats& op : m.op_stats) {
        auto& acc = op_micros_rows[op.kind];
        acc.first += static_cast<double>(op.micros);
        acc.second += static_cast<double>(op.rows_in);
      }
      for (const qox::StageStats& st : m.stage_stats) {
        StageSums& sums = stages[StageRole(st.name)];
        sums.busy += static_cast<double>(st.busy_micros);
        sums.stall += static_cast<double>(st.stall_micros);
        sums.backpressure += static_cast<double>(st.backpressure_micros);
      }
      columnar_rows += static_cast<double>(m.columnar_rows);
      extracted_rows += static_cast<double>(m.rows_extracted);
      merge_us += static_cast<double>(m.merge_micros);
      merged_rows += static_cast<double>(m.rows_loaded);
    }
  }
  QOX_ASSIGN_OR_RETURN(const bool match, Verify(fixture, false));
  if (!match) return Status::Internal("traced pass failed the oracle");
  const double pass_p50_ms = Median(pass_ms);

  const char* kFlowNames[3] = {"bottom", "middle", "top"};
  for (size_t i = 0; i < 3; ++i) {
    out->Add(std::string("engine.executor.run_ms.") + kFlowNames[i],
             Median(run_ms[i]), "ms");
  }
  for (const char* kind :
       {"delta", "lookup", "filter", "function", "surrogate_key"}) {
    const auto& acc = op_micros_rows[kind];
    out->Add(std::string("engine.op.") + kind + ".ns_per_row",
             acc.second > 0 ? acc.first * 1000.0 / acc.second : 0.0, "ns/row");
  }
  for (const char* role :
       {"extract", "transform", "partition", "merge", "load"}) {
    const StageSums& sums = stages[role];
    const double total = sums.busy + sums.stall + sums.backpressure;
    const auto share = [&](double part) {
      return total > 0 ? part / total : 0.0;
    };
    const std::string base = std::string("engine.stage.") + role;
    out->Add(base + ".busy_share", share(sums.busy), "ratio");
    out->Add(base + ".stall_share", share(sums.stall), "ratio");
    out->Add(base + ".backpressure_share", share(sums.backpressure), "ratio");
  }
  out->Add("engine.pipeline.columnar_row_share",
           extracted_rows > 0 ? columnar_rows / extracted_rows : 0.0, "ratio");
  out->Add("engine.merge_us_per_row",
           merged_rows > 0 ? merge_us / merged_rows : 0.0, "us/row");
  {
    Span span("engine.channel.hop");
    out->Add("engine.channel.hop_ns_per_batch",
             ChannelHopNs(s->s1()->schema()), "ns/batch");
  }

  // The single-threaded pass the 4-vs-1 scaling ratio needs.
  std::vector<double> serial_ms;
  for (int p = 0; p < 3; ++p) {
    QOX_ASSIGN_OR_RETURN(const Pass pass,
                         RunPass(s, 1, 2000 + static_cast<uint64_t>(p)));
    serial_ms.push_back(pass.ms);
  }
  out->Add("engine.transform.scaling_4v1",
           Median(serial_ms) / std::max(1e-9, pass_p50_ms), "ratio");

  // core: the design-time cost, and what the model predicts for the very
  // design the passes ran.
  const qox::CostModel model;
  qox::WorkloadParams workload;
  workload.rows_per_run = static_cast<double>(kS1Rows);
  {
    Span span("core.optimizer.optimize");
    const qox::QoxOptimizer optimizer(model, qox::OptimizerOptions{});
    std::vector<double> samples;
    for (int r = 0; r < 3; ++r) {
      const qox::StopWatch watch;
      QOX_RETURN_IF_ERROR(
          optimizer
              .Optimize(s->bottom_flow(),
                        qox::QoxObjective::PerformanceFirst(3600.0), workload)
              .status());
      samples.push_back(static_cast<double>(watch.ElapsedMicros()) / 1000.0);
    }
    out->Add("core.optimizer.optimize_ms", Median(samples), "ms");
  }
  {
    Span span("core.cost_model.predict");
    const qox::PhysicalDesign design = PassDesign(*s, 0, kPartitions);
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(200, [&](int) {
                           return model.Predict(design, workload).status();
                         }));
    out->Add("core.cost_model.predict_us", us, "us");
  }
  const double rows[3] = {static_cast<double>(kS1Rows),
                          static_cast<double>(kS2Rows),
                          static_cast<double>(kS3Rows)};
  double predicted_s = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    predicted_s +=
        model.EstimatePhases(PassDesign(*s, i, kPartitions), rows[i]).total_s;
  }
  out->Add("core.cost_model.pred_over_meas.batch",
           predicted_s * 1000.0 / std::max(1e-9, pass_p50_ms), "ratio");
  out->Add("warehouse.rows_per_pass", rows_per_pass, "rows");
  return Status::OK();
}

}  // namespace perfbench
