// cdc_sharded: repeated CdcCoordinator::Run windows in the production
// shape.
//
// Each window is one CdcCoordinator::Run over a fixed stream window with 4
// shards, supervised shard workers (fork, lease, per-shard journal and a
// recovery point for every (shard, slice)), JournalSync::kAlways, the
// streaming executor and the optional lookup dimension, in a fresh scratch
// directory. Per-slice fixed costs dominate here and per-row work is
// small, so this is where long-lived shard workers, group commit or an O(1)
// WAL row count would show, while warehouse_batch predicts no change.
//
// Oracle: every window's folded warehouse state must equal the fold of an
// in-process single-shard run made at set-up, and the WAL must hold
// exactly the loadable (non-NULL amount) events of the window.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "common/clock.h"
#include "core/cost_model.h"
#include "core/design.h"
#include "engine/cdc_coordinator.h"
#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "engine/supervisor.h"
#include "stats.h"
#include "storage/flat_file.h"
#include "storage/journal_file.h"
#include "storage/lease_file.h"
#include "storage/mem_table.h"
#include "storage/recovery_store.h"
#include "trace.h"

namespace perfbench {

namespace {

using qox::CdcOptions;
using qox::CdcReport;
using qox::Result;
using qox::Row;
using qox::Status;

constexpr size_t kShards = 4;
constexpr size_t kSliceEvents = 256;
constexpr size_t kWindowSlices = 128;
constexpr size_t kWindowEvents = kSliceEvents * kWindowSlices;
constexpr size_t kNumKeys = 512;
/// A slice applied within this many milliseconds meets its SLA.
constexpr double kSliceSlaMs = 150.0;
/// Source update rate the cost model's freshness law is evaluated at.
constexpr double kUpdateRatePerS = 2000.0;

qox::Schema DimensionSchema() {
  return qox::Schema({{"cat_key", qox::DataType::kString, false},
                      {"cat_label", qox::DataType::kString, false}});
}

/// The lookup dimension over the stream's eight categories; labels are
/// drawn from the seed.
Result<qox::DataStorePtr> MakeDimension(uint64_t seed) {
  auto dim = std::make_shared<qox::MemTable>("cdc_dim", DimensionSchema());
  qox::RowBatch rows(DimensionSchema());
  for (int c = 0; c < 8; ++c) {
    const uint64_t h = Mix64(seed ^ (0x51ULL + static_cast<uint64_t>(c)));
    rows.Append(Row({qox::Value::String("c" + std::to_string(c)),
                     qox::Value::String("label" + std::to_string(h % 1000))}));
  }
  QOX_RETURN_IF_ERROR(dim->Append(rows));
  return qox::DataStorePtr(dim);
}

CdcOptions WindowOptions(uint64_t seed, const qox::DataStorePtr& dimension,
                         const std::string& scratch, size_t shards,
                         size_t events) {
  CdcOptions options;
  options.scratch_dir = scratch;
  options.stream.seed = seed;
  options.stream.num_keys = kNumKeys;
  options.stream.total_events = events;
  options.topology.shards = shards;
  options.topology.slice_events = kSliceEvents;
  options.streaming = true;
  options.supervised = true;
  options.journal_sync = qox::JournalSync::kAlways;
  options.dimension = dimension;
  return options;
}

size_t LoadableEvents(const qox::CdcStreamSpec& spec) {
  const qox::CdcSource source(spec);
  size_t loadable = 0;
  for (size_t i = 0; i < spec.total_events; ++i) {
    if (!source.EventAt(i).value(2).is_null()) ++loadable;  // amount
  }
  return loadable;
}

struct Fixture {
  qox::DataStorePtr dimension;
  qox::Schema schema;
  size_t loadable = 0;
  std::vector<Row> reference;
};

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return Status::IoError("cannot clear " + dir + ": " + ec.message());
  return Status::OK();
}

Result<Fixture> SetUp(const RunContext& ctx) {
  Span span("cdc.setup");
  Fixture fixture;
  QOX_ASSIGN_OR_RETURN(fixture.dimension, MakeDimension(ctx.seed));
  const std::string root = ctx.work_dir + "/cdc";
  CdcOptions reference = WindowOptions(ctx.seed, fixture.dimension,
                                       root + "/reference", 1, kWindowEvents);
  // The reference is an answer, not a timing: in-process and unsynced.
  reference.supervised = false;
  reference.journal_sync = qox::JournalSync::kNone;
  QOX_RETURN_IF_ERROR(ResetDir(reference.scratch_dir));
  QOX_ASSIGN_OR_RETURN(fixture.schema,
                       qox::CdcCoordinator::StagedSchema(reference));
  fixture.loadable = LoadableEvents(reference.stream);
  QOX_ASSIGN_OR_RETURN(const CdcReport ref,
                       qox::CdcCoordinator::Run(reference));
  QOX_ASSIGN_OR_RETURN(fixture.reference,
                       qox::CdcWarehouseState(ref.warehouse_path,
                                              fixture.schema));
  QOX_RETURN_IF_ERROR(ResetDir(reference.scratch_dir));
  // Warm-up: a short supervised window, discarded.
  const CdcOptions warm = WindowOptions(ctx.seed, fixture.dimension,
                                        root + "/warmup", kShards,
                                        4 * kSliceEvents);
  QOX_RETURN_IF_ERROR(ResetDir(warm.scratch_dir));
  QOX_RETURN_IF_ERROR(qox::CdcCoordinator::Run(warm).status());
  QOX_RETURN_IF_ERROR(ResetDir(warm.scratch_dir));
  return fixture;
}

/// True when the window's WAL is exactly the reference warehouse.
Result<bool> Verify(const Fixture& fixture, const CdcReport& report,
                    bool perturb, std::string* why) {
  Span span("cdc.verify");
  QOX_ASSIGN_OR_RETURN(auto wal, qox::FlatFile::Open("wal", fixture.schema,
                                                     report.warehouse_path));
  if (perturb) {
    // A re-applied update: the exactly-once count must flag it.
    QOX_ASSIGN_OR_RETURN(const qox::RowBatch rows, wal->ReadAll());
    qox::RowBatch extra(fixture.schema);
    extra.Append(rows.rows().back());
    QOX_RETURN_IF_ERROR(wal->Append(extra));
  }
  QOX_ASSIGN_OR_RETURN(const size_t wal_rows, wal->NumRows());
  if (report.wal_rows != fixture.loadable || wal_rows != fixture.loadable) {
    *why = "WAL holds " + std::to_string(wal_rows) + " rows (report " +
           std::to_string(report.wal_rows) + "), expected " +
           std::to_string(fixture.loadable) + " loadable events";
    return false;
  }
  QOX_ASSIGN_OR_RETURN(const std::vector<Row> state,
                       qox::CdcWarehouseState(report.warehouse_path,
                                              fixture.schema));
  if (state != fixture.reference) {
    *why = "folded warehouse differs from the single-shard reference";
    return false;
  }
  return true;
}

struct Window {
  CdcReport report;
  double seconds = 0.0;
};

Result<Window> RunWindow(const RunContext& ctx, const Fixture& fixture,
                         const std::string& scratch, size_t shards,
                         uint64_t op) {
  const CdcOptions options = WindowOptions(ctx.seed, fixture.dimension,
                                           scratch, shards, kWindowEvents);
  QOX_RETURN_IF_ERROR(ResetDir(scratch));
  Span span("engine.cdc_coordinator.run", op);
  Window window;
  const qox::StopWatch watch;
  QOX_ASSIGN_OR_RETURN(window.report, qox::CdcCoordinator::Run(options));
  window.seconds = watch.ElapsedSeconds();
  return window;
}

std::vector<double> SliceMs(const CdcReport& report) {
  std::vector<double> ms;
  for (const int64_t us : report.slice_latency_micros) {
    ms.push_back(static_cast<double>(us) / 1000.0);
  }
  return ms;
}

}  // namespace

Status RunCdcSharded(const RunContext& ctx, Measured* out) {
  QOX_ASSIGN_OR_RETURN(const Fixture fixture,
                       SetUpRepeated(ctx, out, [&] { return SetUp(ctx); }));
  const std::string scratch = ctx.work_dir + "/cdc/window";
  const qox::StopWatch wall;
  uint64_t op = 0;
  size_t windows = 0;
  while (wall.ElapsedSeconds() < ctx.seconds) {
    ++op;
    out->attempted += kWindowSlices;
    const Result<Window> window = RunWindow(ctx, fixture, scratch, kShards, op);
    if (!window.ok()) {
      out->failed += kWindowSlices;
      out->Note("window_error", window.status().ToString());
      continue;
    }
    std::string why;
    QOX_ASSIGN_OR_RETURN(const bool match,
                         Verify(fixture, window.value().report,
                                ctx.perturb && op == 1, &why));
    QOX_RETURN_IF_ERROR(ResetDir(scratch));
    if (!match) {
      out->failed += kWindowSlices;
      out->Note("oracle", "window " + std::to_string(op) + ": " + why);
      continue;
    }
    ++windows;
    out->Note("window_p50_ms", Fmt(Median(SliceMs(window.value().report))));
    for (const double ms : SliceMs(window.value().report)) {
      out->latency_ms.push_back(ms);
      if (ms <= kSliceSlaMs) ++out->deadline_hits;
    }
    out->rows += static_cast<double>(window.value().report.wal_rows);
    out->timed_s += window.value().seconds;
  }
  out->Note("operation", "CDC slice (stage + merge + apply), windows run "
                         "back to back");
  out->Note("window", std::to_string(kWindowEvents) + " events = " +
                          std::to_string(kWindowSlices) + " slices x " +
                          std::to_string(kSliceEvents) + ", " +
                          std::to_string(kShards) + " supervised shards, " +
                          std::to_string(kNumKeys) + " keys");
  out->Note("windows", std::to_string(windows));
  out->Note("sla_ms", Fmt(kSliceSlaMs, 0));
  return Status::OK();
}

// --- traced per-layer probe -------------------------------------------------

namespace {

qox::RowBatch EventBatch(const qox::CdcSource& source, size_t begin,
                         size_t n) {
  qox::RowBatch batch(qox::CdcSchema());
  for (size_t i = begin; i < begin + n; ++i) batch.Append(source.EventAt(i));
  return batch;
}

/// The shard worker's flow, as CdcCoordinator builds it: NotNull filter,
/// scale, dimension lookup, version sort.
std::vector<qox::OperatorFactory> ShardTransforms(
    const qox::DataStorePtr& dimension) {
  std::vector<qox::OperatorFactory> transforms;
  transforms.push_back([]() -> qox::OperatorPtr {
    return std::make_unique<qox::FilterOp>(
        "flt_nn",
        std::vector<qox::Predicate>{qox::Predicate::NotNull("amount")});
  });
  transforms.push_back([]() -> qox::OperatorPtr {
    return std::make_unique<qox::FunctionOp>(
        "scale", std::vector<qox::ColumnTransform>{
                     qox::ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  transforms.push_back([dimension]() -> qox::OperatorPtr {
    return std::make_unique<qox::LookupOp>(
        "dim", dimension, "category", "cat_key",
        std::vector<std::string>{"cat_label"}, qox::LookupMissPolicy::kNull);
  });
  transforms.push_back([]() -> qox::OperatorPtr {
    return std::make_unique<qox::SortOp>(
        "by_version", std::vector<qox::SortKey>{{"version", false}});
  });
  return transforms;
}

/// The cost model's mean freshness for the benchmark's CDC design at
/// `shards` shards (the same chain, slice size and sync policy).
double PredictedFreshnessS(const qox::DataStorePtr& dimension, size_t shards) {
  qox::PhysicalDesign design;
  design.flow = qox::LogicalFlow(
      "cdc_sharded", nullptr,
      {qox::MakeFilter("flt_nn", {qox::Predicate::NotNull("amount")}),
       qox::MakeFunction(
           "scale", {qox::ColumnTransform::Scale("scaled", "amount", 2.0)}),
       qox::MakeLookup("dim", dimension, "category", "cat_key", {"cat_label"},
                       qox::LookupMissPolicy::kNull),
       qox::MakeSort("by_version", {{"version", false}})},
      nullptr);
  design.streaming = true;
  design.journaled = true;
  design.journal_sync = qox::JournalSync::kAlways;
  design.cdc_shards = shards;
  design.cdc_slice_events = kSliceEvents;
  design.cdc_update_rate_per_s = kUpdateRatePerS;
  return qox::CostModel().EstimateCdcFreshness(design, qox::WorkloadParams{});
}

double MeanOf(const std::vector<double>& v, size_t begin, size_t end) {
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) total += v[i];
  return end > begin ? total / static_cast<double>(end - begin) : 0.0;
}

}  // namespace

Status ProbeCdcLayers(const RunContext& ctx, Report* out) {
  QOX_ASSIGN_OR_RETURN(const Fixture fixture, SetUp(ctx));
  const std::string root = ctx.work_dir + "/cdc_probe";
  QOX_RETURN_IF_ERROR(ResetDir(root));
  std::filesystem::create_directories(root);
  const auto source = std::make_shared<const qox::CdcSource>(
      WindowOptions(ctx.seed, fixture.dimension, root, kShards, kWindowEvents)
          .stream);
  const size_t shard_slice_rows = kSliceEvents / kShards;

  // The production window at 4 shards and the same window at 1 shard.
  QOX_ASSIGN_OR_RETURN(const Window four,
                       RunWindow(ctx, fixture, root + "/w4", kShards, 3000));
  std::string why;
  QOX_ASSIGN_OR_RETURN(const bool match4,
                       Verify(fixture, four.report, false, &why));
  QOX_ASSIGN_OR_RETURN(const Window single,
                       RunWindow(ctx, fixture, root + "/w1", 1, 3001));
  QOX_ASSIGN_OR_RETURN(const bool match1,
                       Verify(fixture, single.report, false, &why));
  if (!match4 || !match1) return Status::Internal("probe window: " + why);
  const std::vector<double> slices4 = SliceMs(four.report);
  const std::vector<double> slices1 = SliceMs(single.report);
  const double p50_ms_4 = Median(slices4);
  const double p50_ms_1 = Median(slices1);

  // storage: the WAL as it stands at the end of the window.
  QOX_ASSIGN_OR_RETURN(
      auto wal,
      qox::FlatFile::Open("wal", fixture.schema, four.report.warehouse_path));
  double num_rows_us = 0;
  {
    Span span("storage.flat_file.num_rows");
    QOX_ASSIGN_OR_RETURN(num_rows_us, MedianMicros(5, [&](int) {
                           return wal->NumRows().status();
                         }));
  }
  out->Add("storage.flat_file.num_rows_us", num_rows_us, "us");

  QOX_ASSIGN_OR_RETURN(const qox::RowBatch wal_rows, wal->ReadAll());
  double append_ns = 0;
  {
    Span span("storage.flat_file.append");
    QOX_ASSIGN_OR_RETURN(auto file, qox::FlatFile::Open("append_probe",
                                                        fixture.schema,
                                                        root + "/append.csv"));
    constexpr size_t kBatch = 32;  // CdcOptions::batch_size
    constexpr size_t kBatches = 64;
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(3, [&](int) -> Status {
      for (size_t b = 0; b < kBatches; ++b) {
        qox::RowBatch batch(fixture.schema);
        for (size_t i = 0; i < kBatch; ++i) {
          batch.Append(wal_rows.rows()[(b * kBatch + i) % wal_rows.num_rows()]);
        }
        QOX_RETURN_IF_ERROR(file->Append(batch));
      }
      return Status::OK();
    }));
    append_ns = us * 1000.0 / static_cast<double>(kBatch * kBatches);
  }
  out->Add("storage.flat_file.append_ns_per_row", append_ns, "ns/row");

  double append_always_us = 0;
  for (const qox::JournalSync sync :
       {qox::JournalSync::kNone, qox::JournalSync::kCommit,
        qox::JournalSync::kAlways}) {
    const std::string name = qox::JournalSyncName(sync);
    Span span("storage.journal_file.append");
    QOX_ASSIGN_OR_RETURN(auto journal,
                         qox::JournalFile::Open(root + "/probe_" + name +
                                                    ".journal",
                                                sync));
    // Under kCommit every other record is a commit record.
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(60, [&](int r) {
                           return journal->Append(
                               "slice_applied",
                               {std::to_string(r), "256", "64", "64", "64",
                                "64"},
                               r % 2 == 0);
                         }));
    if (sync == qox::JournalSync::kAlways) append_always_us = us;
    out->Add("storage.journal_file.append_us." + name, us, "us");
  }

  QOX_ASSIGN_OR_RETURN(auto rp_store,
                       qox::RecoveryPointStore::Open(root + "/rp_probe"));
  const qox::RowBatch slice_batch = EventBatch(*source, 0, shard_slice_rows);
  const qox::RecoveryPointId rp_id{"probe", "cut1"};
  double rp_save_us = 0;
  {
    Span span("storage.recovery_store.save");
    QOX_ASSIGN_OR_RETURN(rp_save_us, MedianMicros(20, [&](int) {
                           return rp_store->Save(rp_id, qox::CdcSchema(),
                                                 slice_batch.rows());
                         }));
  }
  out->Add("storage.recovery_store.save_us", rp_save_us, "us");
  {
    Span span("storage.recovery_store.load");
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(20, [&](int) {
                           return rp_store->Load(rp_id, qox::CdcSchema())
                               .status();
                         }));
    out->Add("storage.recovery_store.load_us", us, "us");
  }

  {
    Span span("storage.lease_file.acquire");
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(30, [&](int) {
                           QOX_ASSIGN_OR_RETURN(
                               auto lease,
                               qox::LeaseFile::Acquire(root + "/probe.lease",
                                                       "perfbench"));
                           return lease->Release();
                         }));
    out->Add("storage.lease_file.acquire_us", us, "us");
  }
  {
    QOX_ASSIGN_OR_RETURN(auto lease,
                         qox::LeaseFile::Acquire(root + "/probe.lease",
                                                 "perfbench"));
    Span span("storage.lease_file.heartbeat");
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(30, [&](int) {
                           return lease->Heartbeat();
                         }));
    out->Add("storage.lease_file.heartbeat_us", us, "us");
    QOX_RETURN_IF_ERROR(lease->Release());
  }
  {
    Span span("storage.cdc_source.scan");
    QOX_ASSIGN_OR_RETURN(const double us, MedianMicros(3, [&](int) {
                           return source->Scan(32, [](qox::RowBatch&) {
                             return Status::OK();
                           });
                         }));
    out->Add("storage.cdc_source.scan_ns_per_event",
             us * 1000.0 / static_cast<double>(kWindowEvents), "ns/event");
  }

  // engine: the supervisor's fixed cost and one shard's slice flow.
  double fork_us = 0;
  {
    Span span("engine.supervisor.run");
    QOX_ASSIGN_OR_RETURN(fork_us, MedianMicros(20, [&](int r) -> Status {
      qox::SupervisorOptions options;
      options.scratch_dir = root + "/sup" + std::to_string(r);
      options.journal_sync = qox::JournalSync::kAlways;
      QOX_ASSIGN_OR_RETURN(
          const qox::SupervisorReport report,
          qox::FlowSupervisor::Run(
              "trivial", [](const qox::FlowEnv&) { return Status::OK(); },
              options));
      return report.success ? Status::OK() : report.final_status;
    }));
  }
  out->Add("engine.supervisor.fork_run_us", fork_us, "us");

  double shard_flow_us = 0;
  {
    const qox::ShardRouter router(source, {kShards, kSliceEvents});
    Span span("engine.cdc.shard_flow");
    QOX_ASSIGN_OR_RETURN(shard_flow_us, MedianMicros(16, [&](int r) -> Status {
      QOX_ASSIGN_OR_RETURN(
          auto staged,
          qox::FlatFile::Open("staged", fixture.schema,
                              root + "/staged" + std::to_string(r) + ".csv"));
      qox::FlowSpec flow;
      flow.id = "probe_shard";
      flow.source = router.ShardSlice(static_cast<size_t>(r) % kShards,
                                      static_cast<size_t>(r) % kWindowSlices);
      flow.transforms = ShardTransforms(fixture.dimension);
      flow.target = staged;
      qox::ExecutionConfig config;
      config.batch_size = 32;
      config.streaming = true;
      return qox::Executor::Run(flow, config).status();
    }));
  }
  out->Add("engine.cdc.shard_flow_us", shard_flow_us, "us");

  size_t forks = 0;
  for (const qox::ShardStats& stats : four.report.metrics.shard_stats) {
    forks += stats.incarnations;
  }
  out->Add("engine.cdc.forks_per_slice",
           static_cast<double>(forks) / static_cast<double>(kWindowSlices),
           "count");
  out->Add("engine.cdc.shard_scaling_4v1",
           p50_ms_1 / std::max(1e-9, p50_ms_4),
           "ratio");
  const size_t tenth = std::max<size_t>(1, slices4.size() / 10);
  out->Add("engine.cdc.slice_growth",
           MeanOf(slices4, slices4.size() - tenth, slices4.size()) /
               std::max(1e-9, MeanOf(slices4, 0, tenth)),
           "ratio");
  // What the separately timed parts explain of one 4-shard slice: per
  // shard a supervised fork, the slice flow, its recovery point and four
  // fsync'd flow-journal records; per slice three fsync'd coordinator
  // records, two WAL row counts (at the mid-window size, half the end
  // size) and the WAL append of the merged rows.
  const double rows_per_slice = static_cast<double>(fixture.loadable) /
                                static_cast<double>(kWindowSlices);
  const double explained_us =
      static_cast<double>(kShards) *
          (fork_us + shard_flow_us + rp_save_us + 4 * append_always_us) +
      3 * append_always_us + num_rows_us +
      rows_per_slice * append_ns / 1000.0;
  const double p50_us = p50_ms_4 * 1000.0;
  out->Add("engine.cdc.unexplained_share",
           p50_us > 0 ? (p50_us - explained_us) / p50_us : 0.0, "ratio");
  // core: does the CDC freshness law predict the measured direction from 1
  // to 4 shards? (The slice fill wait is the same at both counts, so the
  // sign of the change is the sign of the slice-latency change.)
  const double predicted_1 = PredictedFreshnessS(fixture.dimension, 1);
  const double predicted_4 = PredictedFreshnessS(fixture.dimension, kShards);
  const bool agrees = (predicted_4 < predicted_1) == (p50_ms_4 < p50_ms_1);
  out->Add("core.cost_model.cdc_trend_agrees", agrees ? 1.0 : 0.0, "bool");
  out->Add("core.cost_model.cdc_pred_ratio_4v1",
           predicted_4 / std::max(1e-12, predicted_1), "ratio");
  out->Add("cdc.slice_p50_ms.shards1", p50_ms_1, "ms");
  out->Add("cdc.slice_p50_ms.shards4", p50_ms_4, "ms");
  return ResetDir(root);
}

}  // namespace perfbench
