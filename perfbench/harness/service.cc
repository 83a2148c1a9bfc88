// service_open: an open loop of short tenant flows into one FlowService.
//
// The service has 4 workers, EDF dispatch and no admission control. One
// generator thread submits tenant flows on a seeded schedule at a fixed
// rate; the rate and the per-flow SLA are constants, never calibrated at
// run time, so a faster engine shows as lower latency instead of a
// re-tuned load. Latency counts from the scheduled send time to the flow's
// post_success stamp, so a stalled generator or a queue backlog is charged
// to every flow it delays; the run is invalid when the generator itself
// falls behind its schedule by more than kMaxLagMs at p90.
//
// Tenants run the same pipeline and columnar operators as warehouse_batch,
// but many small concurrent flows make per-flow setup, pool dispatch,
// queueing, dimension-cache sharing and spill writes dominate rather than
// kernel throughput. Tenant flows run unpartitioned and phased, one pool
// task each: on a lightly loaded 4-vCPU VM the stage-to-stage wake-ups of
// a streaming flow measured as the largest run-to-run noise source of its
// latency. Ten of sixteen tenants run a per-row chain (filter ->
// function -> surrogate key); six run a lookup -> sort -> group chain
// against one dimension shared by all tenants, and one of those runs under
// a memory budget that makes the sort spill. The mix keeps p50 inside the
// per-row class and p90 inside the lookup/sort/group class, so neither
// percentile sits on the boundary between two latency classes.
//
// Oracle: every flow's target must equal its tenant's solo reference run.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/clock.h"
#include "engine/executor.h"
#include "engine/flow_service.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/group_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "engine/ops/surrogate_key_op.h"
#include "stats.h"
#include "storage/mem_table.h"
#include "storage/spill_manager.h"
#include "trace.h"

namespace perfbench {

namespace {

using qox::Result;
using qox::Row;
using qox::Status;
using qox::Value;

constexpr size_t kWorkers = 4;
constexpr size_t kTenants = 16;
/// Tenants running the lookup -> sort -> group chain (the rest are per-row)
/// and, among them, the ones under the spilling memory budget.
constexpr size_t kHeavyTenants = 6;
constexpr size_t kSpillTenants = 1;
constexpr size_t kRowsPerFlow = 10000;
constexpr size_t kCategories = 64;
constexpr size_t kSpillBudgetBytes = 64 * 1024;
/// Offered load: flows per second, and the per-flow SLA from its scheduled
/// send time.
constexpr double kRatePerS = 80.0;
constexpr double kSlaMs = 100.0;
/// Arrival jitter, as a share of one inter-arrival interval.
constexpr double kJitter = 0.5;
/// The run is invalid when the generator's p90 lag exceeds this.
constexpr double kMaxLagMs = 10.0;

/// "k12"-style category keys and labels.
std::string Label(char prefix, uint64_t n) {
  std::string label(1, prefix);
  label += std::to_string(n);
  return label;
}

qox::Schema SourceSchema() {
  return qox::Schema({{"id", qox::DataType::kInt64, false},
                      {"customer", qox::DataType::kInt64, false},
                      {"category", qox::DataType::kString, false},
                      {"amount", qox::DataType::kDouble, true}});
}

qox::Schema DimensionSchema() {
  return qox::Schema({{"cat_key", qox::DataType::kString, false},
                      {"cat_label", qox::DataType::kString, false}});
}

struct Tenant {
  size_t index = 0;
  bool heavy = false;
  bool spill = false;
  qox::DataStorePtr source;
  qox::SurrogateKeyRegistryPtr registry;
  qox::Schema target_schema;
  size_t reference = 0;  ///< FingerprintRows of the solo run
  size_t reference_rows = 0;
};

struct Fixture {
  qox::DataStorePtr dimension;
  std::vector<Tenant> tenants;
};

std::vector<qox::OperatorFactory> Transforms(const Tenant& tenant,
                                             const qox::DataStorePtr& dim) {
  std::vector<qox::OperatorFactory> ops;
  if (!tenant.heavy) {
    ops.push_back([]() -> qox::OperatorPtr {
      return std::make_unique<qox::FilterOp>(
          "flt",
          std::vector<qox::Predicate>{qox::Predicate::NotNull("amount")});
    });
    ops.push_back([]() -> qox::OperatorPtr {
      return std::make_unique<qox::FunctionOp>(
          "fn", std::vector<qox::ColumnTransform>{
                    qox::ColumnTransform::Scale("scaled", "amount", 1.1)});
    });
    const qox::SurrogateKeyRegistryPtr registry = tenant.registry;
    ops.push_back([registry]() -> qox::OperatorPtr {
      return std::make_unique<qox::SurrogateKeyOp>("sk", registry, "customer",
                                                   "customer_key", true);
    });
    return ops;
  }
  ops.push_back([dim]() -> qox::OperatorPtr {
    return std::make_unique<qox::LookupOp>(
        "lkp", dim, "category", "cat_key",
        std::vector<std::string>{"cat_label"}, qox::LookupMissPolicy::kNull);
  });
  ops.push_back([]() -> qox::OperatorPtr {
    return std::make_unique<qox::SortOp>(
        "sort", std::vector<qox::SortKey>{{"amount", true}, {"id", false}});
  });
  ops.push_back([]() -> qox::OperatorPtr {
    return std::make_unique<qox::GroupOp>(
        "grp", std::vector<std::string>{"cat_label"},
        std::vector<qox::Aggregate>{qox::Aggregate::Count("n"),
                                    qox::Aggregate::Sum("amount", "total")});
  });
  return ops;
}

qox::FlowSpec MakeFlow(const Tenant& tenant, const qox::DataStorePtr& dim,
                       qox::DataStorePtr target) {
  qox::FlowSpec flow;
  flow.id = "tenant" + std::to_string(tenant.index);
  flow.source = tenant.source;
  flow.transforms = Transforms(tenant, dim);
  flow.target = std::move(target);
  return flow;
}

/// The configuration a tenant's flow is submitted with.
qox::ExecutionConfig TenantConfig(const Tenant& tenant,
                                  const std::string& spill_dir) {
  qox::ExecutionConfig config;
  config.columnar = true;
  config.sla.deadline_micros = static_cast<int64_t>(kSlaMs * 1000.0);
  if (tenant.spill) {
    config.memory_budget_bytes = kSpillBudgetBytes;
    config.spill_dir = spill_dir;
  }
  return config;
}

Result<Fixture> SetUp(const RunContext& ctx) {
  Span span("service.setup");
  Fixture fixture;
  auto dim = std::make_shared<qox::MemTable>("tenant_dim", DimensionSchema());
  qox::RowBatch dim_rows(DimensionSchema());
  for (size_t c = 0; c < kCategories; ++c) {
    const uint64_t h = Mix64(ctx.seed ^ (0xd1ULL * (c + 1)));
    dim_rows.Append(Row({Value::String(Label('k', c)),
                         Value::String(Label('g', h % 8))}));
  }
  QOX_RETURN_IF_ERROR(dim->Append(dim_rows));
  fixture.dimension = dim;

  // Which tenants are heavy (and which of those spill) is a seeded
  // permutation; the counts are fixed, so every seed offers the same load.
  std::vector<size_t> order(kTenants);
  for (size_t t = 0; t < kTenants; ++t) order[t] = t;
  for (size_t t = kTenants - 1; t > 0; --t) {
    std::swap(order[t], order[Mix64(ctx.seed ^ (0x7eULL + t)) % (t + 1)]);
  }
  fixture.tenants.resize(kTenants);
  for (size_t rank = 0; rank < kTenants; ++rank) {
    Tenant& tenant = fixture.tenants[order[rank]];
    tenant.index = order[rank];
    tenant.heavy = rank < kHeavyTenants;
    tenant.spill = rank < kSpillTenants;
  }
  for (Tenant& tenant : fixture.tenants) {
    auto source = std::make_shared<qox::MemTable>(
        "tenant_src" + std::to_string(tenant.index), SourceSchema());
    qox::RowBatch rows(SourceSchema());
    for (size_t i = 0; i < kRowsPerFlow; ++i) {
      const uint64_t h =
          Mix64(ctx.seed ^ (tenant.index << 32) ^ (i * 0x9e37ULL));
      Row row({Value::Int64(static_cast<int64_t>(i)),
               Value::Int64(static_cast<int64_t>(h % 500)),
               Value::String(Label('k', (h >> 16) % (kCategories + 4))),
               Value::Double(static_cast<double>((h >> 24) % 100000) / 100.0)});
      if ((h >> 40) % 16 == 0) row.Set(3, Value::Null());
      rows.Append(std::move(row));
    }
    QOX_RETURN_IF_ERROR(source->Append(rows));
    tenant.source = source;
    tenant.registry = std::make_shared<qox::SurrogateKeyRegistry>(1);
    // Solo reference: the tenant alone, default configuration. It also
    // assigns every surrogate key, so later concurrent runs reuse them.
    tenant.target_schema = SourceSchema();
    for (const qox::OperatorFactory& factory :
         Transforms(tenant, fixture.dimension)) {
      QOX_ASSIGN_OR_RETURN(tenant.target_schema,
                           factory()->Bind(tenant.target_schema));
    }
    auto target = std::make_shared<qox::MemTable>("ref", tenant.target_schema);
    QOX_RETURN_IF_ERROR(
        qox::Executor::Run(MakeFlow(tenant, fixture.dimension, target),
                           qox::ExecutionConfig{})
            .status());
    QOX_ASSIGN_OR_RETURN(const qox::RowBatch out, target->ReadAll());
    tenant.reference = qox::FingerprintRows(out.rows());
    tenant.reference_rows = out.num_rows();
  }
  return fixture;
}

/// Everything one open-loop phase observed.
struct OpenLoop {
  Measured* measured = nullptr;
  std::vector<double> lag_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_ms;
  size_t dim_hits = 0;
  size_t dim_builds = 0;
  size_t spill_flows = 0;
  size_t spill_runs = 0;
  size_t spill_bytes = 0;
  qox::WorkerPool::Stats pool;
};

struct InFlight {
  size_t tenant = 0;
  int64_t due_us = 0;
  Result<uint64_t> ticket{Status::Internal("not submitted")};
  std::shared_ptr<std::atomic<int64_t>> done_us;
  std::shared_ptr<qox::MemTable> target;
  std::string spill_dir;
};

Status RunOpenLoop(const RunContext& ctx, const Fixture& fixture,
                   double seconds, OpenLoop* loop) {
  Measured* out = loop->measured;
  qox::FlowServiceConfig config;
  config.num_workers = kWorkers;
  config.max_concurrent_flows = kWorkers;
  config.policy = qox::QueuePolicy::kEdf;
  config.admit_only_feasible = false;
  const std::vector<int64_t> schedule =
      ArrivalSchedule(ctx.seed, kRatePerS, seconds, kJitter);
  const std::string spill_root = ctx.work_dir + "/service_spill";

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool generator_done = false;

  qox::FlowService service(config);
  const int64_t start_us = qox::NowMicros() + 2000;
  std::thread generator([&] {
    for (size_t i = 0; i < schedule.size(); ++i) {
      InFlight flight;
      flight.tenant = i % kTenants;
      flight.due_us = start_us + schedule[i];
      const Tenant& tenant = fixture.tenants[flight.tenant];
      flight.done_us = std::make_shared<std::atomic<int64_t>>(0);
      flight.target =
          std::make_shared<qox::MemTable>("target", tenant.target_schema);
      flight.spill_dir = spill_root + "/f" + std::to_string(i);
      qox::FlowSubmission submission;
      submission.flow = MakeFlow(tenant, fixture.dimension, flight.target);
      const auto stamp = flight.done_us;
      submission.flow.post_success = [stamp]() {
        stamp->store(qox::NowMicros());
        return Status::OK();
      };
      submission.config = TenantConfig(tenant, flight.spill_dir);
      const int64_t now = qox::NowMicros();
      if (now < flight.due_us) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(flight.due_us - now));
      }
      const int64_t sent = qox::NowMicros();
      flight.ticket = service.Submit(std::move(submission));
      {
        std::lock_guard<std::mutex> lock(mu);
        loop->lag_ms.push_back(
            static_cast<double>(std::max<int64_t>(0, sent - flight.due_us)) /
            1000.0);
        queue.push_back(std::move(flight));
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
    cv.notify_one();
  });

  int64_t last_done_us = start_us;
  Status verify_error = Status::OK();
  for (size_t i = 0; i < schedule.size(); ++i) {
    InFlight flight;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || generator_done; });
      if (queue.empty()) break;
      flight = std::move(queue.front());
      queue.pop_front();
    }
    const Tenant& tenant = fixture.tenants[flight.tenant];
    ++out->attempted;
    if (!flight.ticket.ok()) {
      ++out->failed;  // rejected: a miss
      out->Note("rejected", flight.ticket.status().ToString());
      continue;
    }
    const Result<qox::RunMetrics> metrics = service.Wait(flight.ticket.value());
    std::error_code ec;
    std::filesystem::remove_all(flight.spill_dir, ec);
    const int64_t done_us = flight.done_us->load();
    if (!metrics.ok() || done_us == 0) {
      ++out->failed;
      out->Note("flow_error", metrics.status().ToString());
      continue;
    }
    Tracer::Get().Record("service.tenant_flow", flight.due_us, done_us,
                         static_cast<uint64_t>(i + 1));
    const Result<qox::RowBatch> rows = flight.target->ReadAll();
    if (!rows.ok()) {
      verify_error = rows.status();
      break;
    }
    size_t fingerprint = qox::FingerprintRows(rows.value().rows());
    if (ctx.perturb && i == 0) fingerprint ^= 1;  // a corrupted target
    if (fingerprint != tenant.reference ||
        rows.value().num_rows() != tenant.reference_rows) {
      ++out->failed;
      out->Note("oracle", "flow " + std::to_string(i) + " of tenant " +
                              std::to_string(tenant.index) +
                              " differs from its solo reference");
      continue;
    }
    const double latency_ms =
        static_cast<double>(done_us - flight.due_us) / 1000.0;
    out->latency_ms.push_back(latency_ms);
    if (latency_ms <= kSlaMs) ++out->deadline_hits;
    out->rows += static_cast<double>(metrics.value().rows_loaded);
    last_done_us = std::max(last_done_us, done_us);
    const qox::RunMetrics& m = metrics.value();
    loop->queue_wait_ms.push_back(static_cast<double>(m.queue_wait_micros) /
                                  1000.0);
    loop->exec_ms.push_back(static_cast<double>(m.total_micros) / 1000.0);
    loop->dim_hits += m.dim_cache_hits;
    loop->dim_builds += m.dim_cache_builds;
    if (tenant.spill) {
      ++loop->spill_flows;
      loop->spill_runs += m.spill_runs;
      loop->spill_bytes += m.spill_bytes;
    }
  }
  generator.join();
  service.Drain();
  loop->pool = service.pool()->stats();
  QOX_RETURN_IF_ERROR(verify_error);
  out->timed_s = static_cast<double>(last_done_us - start_us) / 1e6;

  const double lag_p90 = Percentile(loop->lag_ms, 0.9).value_or(0.0);
  const double lag_max =
      loop->lag_ms.empty()
          ? 0.0
          : *std::max_element(loop->lag_ms.begin(), loop->lag_ms.end());
  out->Note("generator_lag_ms", "p90 " + Fmt(lag_p90) + ", max " +
                                    Fmt(lag_max) + " (bound p90 <= " +
                                    Fmt(kMaxLagMs, 1) + ")");
  if (lag_p90 > kMaxLagMs) {
    out->valid = false;
    out->invalid_reason = "generator p90 lag " + Fmt(lag_p90) +
                          " ms exceeds " + Fmt(kMaxLagMs, 1) + " ms";
  }
  return Status::OK();
}

}  // namespace

Status RunServiceOpen(const RunContext& ctx, Measured* out) {
  QOX_ASSIGN_OR_RETURN(
      const Fixture fixture, SetUpRepeated(ctx, out, [&]() -> Result<Fixture> {
        QOX_ASSIGN_OR_RETURN(Fixture fixture, SetUp(ctx));
        // Warm-up: one second of the open loop, discarded.
        Measured warm;
        OpenLoop warm_loop;
        warm_loop.measured = &warm;
        RunContext quiet = ctx;
        quiet.perturb = false;
        QOX_RETURN_IF_ERROR(RunOpenLoop(quiet, fixture, 1.0, &warm_loop));
        return fixture;
      }));
  OpenLoop loop;
  loop.measured = out;
  QOX_RETURN_IF_ERROR(RunOpenLoop(ctx, fixture, ctx.seconds, &loop));
  out->Note("operation", "tenant flow, scheduled send -> post_success");
  out->Note("offered_load", Fmt(kRatePerS, 0) + " flows/s, " +
                                std::to_string(kTenants) + " tenants (" +
                                std::to_string(kHeavyTenants) + " heavy, " +
                                std::to_string(kSpillTenants) +
                                " spilling), " + std::to_string(kRowsPerFlow) +
                                " rows/flow, " + std::to_string(kWorkers) +
                                " workers, EDF");
  out->Note("sla_ms", Fmt(kSlaMs, 0));
  return Status::OK();
}

Status ProbeServiceLayers(const RunContext& ctx, Report* out) {
  QOX_ASSIGN_OR_RETURN(const Fixture fixture, SetUp(ctx));

  // storage: one spill run of a tenant's rows.
  {
    Span span("storage.spill_manager.write");
    QOX_ASSIGN_OR_RETURN(const qox::RowBatch rows,
                         fixture.tenants[0].source->ReadAll());
    std::vector<double> samples;
    for (int r = 0; r < 5; ++r) {
      qox::SpillManager spill(ctx.work_dir + "/spill_probe");
      const qox::StopWatch watch;
      QOX_ASSIGN_OR_RETURN(auto writer,
                           spill.CreateRun("probe", SourceSchema()));
      for (const Row& row : rows.rows()) {
        QOX_RETURN_IF_ERROR(writer->Append(row));
      }
      QOX_RETURN_IF_ERROR(writer->Finalize().status());
      samples.push_back(static_cast<double>(watch.ElapsedMicros()) * 1000.0 /
                        static_cast<double>(rows.num_rows()));
      QOX_RETURN_IF_ERROR(spill.RemoveAll());
    }
    out->Add("storage.spill_manager.write_ns_per_row", Median(samples),
             "ns/row");
  }

  // engine: plan lowering per tenant.
  {
    Span span("engine.executor.lower_plan");
    std::vector<qox::FlowSpec> flows;
    std::vector<qox::ExecutionConfig> configs;
    for (const Tenant& tenant : fixture.tenants) {
      flows.push_back(MakeFlow(
          tenant, fixture.dimension,
          std::make_shared<qox::MemTable>("t", tenant.target_schema)));
      configs.push_back(TenantConfig(tenant, ctx.work_dir));
    }
    QOX_ASSIGN_OR_RETURN(
        const double us, MedianMicros(20 * kTenants, [&](int r) {
          const size_t t = static_cast<size_t>(r) % kTenants;
          return qox::Executor::LowerPlan(flows[t], configs[t]).status();
        }));
    out->Add("engine.lower_plan_us", us, "us");
  }

  // engine: a short traced open loop.
  Measured measured;
  OpenLoop loop;
  loop.measured = &measured;
  {
    Span span("service.open_loop");
    QOX_RETURN_IF_ERROR(RunOpenLoop(ctx, fixture, 3.0, &loop));
  }
  if (measured.failed != 0) return Status::Internal("probe flows failed");
  out->Add("engine.flow_service.queue_wait_ms_p50",
           Percentile(loop.queue_wait_ms, 0.5).value_or(0.0), "ms");
  out->Add("engine.flow_service.queue_wait_ms_p90",
           Percentile(loop.queue_wait_ms, 0.9).value_or(0.0), "ms");
  out->Add("engine.flow_service.exec_ms_p50",
           Percentile(loop.exec_ms, 0.5).value_or(0.0), "ms");
  out->Add("engine.worker_pool.tasks_run",
           static_cast<double>(loop.pool.tasks_run), "count");
  out->Add("engine.worker_pool.steals", static_cast<double>(loop.pool.steals),
           "count");
  out->Add("engine.worker_pool.tasks_helped",
           static_cast<double>(loop.pool.tasks_helped), "count");
  out->Add("engine.worker_pool.expansion_threads",
           static_cast<double>(loop.pool.expansion_threads), "count");
  const double acquisitions =
      static_cast<double>(loop.dim_hits + loop.dim_builds);
  out->Add("engine.dimension_cache.hit_ratio",
           acquisitions > 0 ? static_cast<double>(loop.dim_hits) / acquisitions
                            : 0.0,
           "ratio");
  out->Add("engine.dimension_cache.acquisitions", acquisitions, "count");
  const double spill_flows =
      static_cast<double>(std::max<size_t>(1, loop.spill_flows));
  out->Add("engine.memory_budget.spill_runs",
           static_cast<double>(loop.spill_runs) / spill_flows, "runs/flow");
  out->Add("engine.memory_budget.spill_bytes",
           static_cast<double>(loop.spill_bytes) / spill_flows, "bytes/flow");
  out->Add("service.generator_lag_ms_p90",
           Percentile(loop.lag_ms, 0.9).value_or(0.0), "ms");
  return Status::OK();
}

}  // namespace perfbench
