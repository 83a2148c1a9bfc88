// qox_perfbench: runs one benchmark workload and prints its metrics.
//
//   qox_perfbench --workload warehouse_batch|cdc_sharded|service_open
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//                 [--trace-out FILE] [--perturb]
//
// --trace 0 measures the workload with tracing off and prints the
// end-to-end metrics. --trace 1 runs the workload twice for S/2 seconds,
// untraced then traced (their p50 ratio is the tracing overhead), then
// the per-layer probes of every layer, and writes the spans as Chrome
// Trace Event JSON. The last stdout line is always one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// The exit code is 0 only when every output matched its oracle.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string trace_out;
  bool perturb = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      args->perturb = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value '" + value + "' for " + flag;
      return false;
    }
  }
  if (args->workload != "warehouse_batch" && args->workload != "cdc_sharded" &&
      args->workload != "service_open") {
    *error = "unknown workload '" + args->workload + "'";
    return false;
  }
  if (args->seconds <= 0.0 || (args->trace != 0 && args->trace != 1) ||
      args->work_dir.empty()) {
    *error = "--seconds > 0, --trace 0|1 and --work-dir are required";
    return false;
  }
  return true;
}

qox::Status RunWorkload(const std::string& workload, const RunContext& ctx,
                        Measured* out) {
  if (workload == "warehouse_batch") return RunWarehouseBatch(ctx, out);
  if (workload == "cdc_sharded") return RunCdcSharded(ctx, out);
  return RunServiceOpen(ctx, out);
}

void PrintNotes(const std::string& label, const Measured& m) {
  for (const auto& [key, value] : m.notes) {
    std::cout << label << " " << key << ": " << value << "\n";
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const Report& report) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << report.ToJson() << "}" << std::endl;
}

int RunEndToEnd(const Args& args, const RunContext& ctx) {
  Measured m;
  const qox::Status status = RunWorkload(args.workload, ctx, &m);
  if (!status.ok()) {
    std::cerr << "workload failed: " << status << "\n";
    return 2;
  }
  const auto p50 = Percentile(m.latency_ms, 0.5, kMinSamplesBeyond);
  const auto p90 = Percentile(m.latency_ms, 0.9, kMinSamplesBeyond);
  bool correct = m.failed == 0 && m.valid;
  if (!p50 || !p90 || m.timed_s <= 0.0) {
    std::cerr << "too few operations for a p90 with " << kMinSamplesBeyond
              << " samples beyond it: " << m.latency_ms.size() << " (need "
              << MinSamplesFor(0.9, kMinSamplesBeyond) << ")\n";
    return 2;
  }
  Report report;
  report.Add("setup_s", Median(m.setup_s), "s");
  report.Add("rows_per_s", m.rows / m.timed_s, "rows/s");
  report.Add("p50_ms", *p50, "ms");
  report.Add("p90_ms", *p90, "ms");
  report.Add("deadline_hit_rate",
             static_cast<double>(m.deadline_hits) /
                 static_cast<double>(std::max<size_t>(1, m.attempted)),
             "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");

  PrintNotes(args.workload, m);
  std::cout << args.workload << " samples: " << m.latency_ms.size()
            << " (p90 needs " << MinSamplesFor(0.9, kMinSamplesBeyond)
            << ")\n"
            << args.workload << " fail_ratio: " << m.failed << "/"
            << m.attempted << "\n";
  if (!m.valid) {
    std::cout << args.workload << " INVALID: " << m.invalid_reason << "\n";
  }
  for (const Metric& metric : report.metrics()) {
    std::cout << args.workload << " " << metric.name << ": "
              << Fmt(metric.value, 4) << " " << metric.unit << "\n";
  }
  PrintResult(correct, m.attempted, m.failed, report);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, const RunContext& ctx) {
  RunContext half = ctx;
  half.seconds = ctx.seconds / 2.0;
  half.setup_repeats = 1;
  Tracer& tracer = Tracer::Get();

  Measured plain;
  Measured traced;
  qox::Status status = RunWorkload(args.workload, half, &plain);
  if (status.ok()) {
    tracer.set_enabled(true);
    status = RunWorkload(args.workload, half, &traced);
  }
  // Every traced run reports every layer, whichever workload it is: the
  // CDC probe comes first because forking shard workers needs a process
  // without other live threads.
  Report report;
  if (status.ok()) status = ProbeCdcLayers(ctx, &report);
  if (status.ok()) status = ProbeWarehouseLayers(ctx, &report);
  if (status.ok()) status = ProbeServiceLayers(ctx, &report);
  tracer.set_enabled(false);
  if (!status.ok()) {
    std::cerr << "traced run failed: " << status << "\n";
    return 2;
  }
  const double plain_p50 = Median(plain.latency_ms);
  const double traced_p50 = Median(traced.latency_ms);
  report.Add("trace.overhead.p50_ratio",
             plain_p50 > 0 ? traced_p50 / plain_p50 : 0.0, "ratio");
  report.Add("trace.spans", static_cast<double>(tracer.size()), "count");

  const std::string trace_out =
      args.trace_out.empty() ? ctx.work_dir + "/trace.json" : args.trace_out;
  status = tracer.WriteChromeTrace(trace_out);
  if (!status.ok()) {
    std::cerr << status << "\n";
    return 2;
  }
  PrintNotes(args.workload + " untraced", plain);
  PrintNotes(args.workload + " traced", traced);
  std::cout << args.workload << " untraced p50_ms: " << Fmt(plain_p50, 4)
            << " traced p50_ms: " << Fmt(traced_p50, 4) << "\n"
            << args.workload << " chrome trace: " << trace_out << " ("
            << tracer.size() << " spans)\n";
  for (const Metric& metric : report.metrics()) {
    std::cout << "layer " << metric.name << ": " << Fmt(metric.value, 4)
              << " " << metric.unit << "\n";
  }
  const size_t attempted = plain.attempted + traced.attempted;
  const size_t failed = plain.failed + traced.failed;
  const bool correct = failed == 0 && plain.valid && traced.valid;
  PrintResult(correct, attempted, failed, report);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "qox_perfbench: " << error << "\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.work_dir << ": " << ec.message()
              << "\n";
    return 2;
  }
  perfbench::RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.work_dir = std::filesystem::absolute(args.work_dir).string();
  ctx.perturb = args.perturb;
  return args.trace == 1 ? perfbench::RunTraced(args, ctx)
                         : perfbench::RunEndToEnd(args, ctx);
}
