// Shared types of the benchmark binary: the run context every workload
// gets, what one workload run measured, and the metric report printed as
// the final JSON line.

#ifndef QOX_PERFBENCH_BENCH_H_
#define QOX_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stats.h"

namespace perfbench {

struct RunContext {
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Scratch root inside the checkout; every file the run writes is under it.
  std::string work_dir;
  /// Set-ups made before timing; the median of their durations is setup_s.
  int setup_repeats = 5;
  /// Deliberately corrupt the first operation's output, so the
  /// correctness oracle must fail the run (the oracle's own check).
  bool perturb = false;
};

/// What one run of a workload measured.
struct Measured {
  std::vector<double> setup_s;
  /// Warehouse rows durably loaded, and the timed seconds they took.
  double rows = 0.0;
  double timed_s = 0.0;
  /// Latency of every operation, in milliseconds.
  std::vector<double> latency_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t deadline_hits = 0;
  /// False when the run cannot be trusted (an open-loop generator that fell
  /// behind its schedule); `invalid_reason` says why.
  bool valid = true;
  std::string invalid_reason;
  /// Extra human-readable facts (constants, sample counts, lags).
  std::vector<std::pair<std::string, std::string>> notes;

  void Note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// {"name": {"value": v, "unit": u}, ...} with full double precision.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

/// Median wall time, in microseconds, of `reps` calls of `fn(rep)`, which
/// returns a Status; the first failing call's status is returned instead.
template <typename Fn>
qox::Result<double> MedianMicros(int reps, Fn fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    QOX_RETURN_IF_ERROR(fn(r));
    samples.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return Median(samples);
}

/// Runs `set_up` (returning a Result<fixture>) ctx.setup_repeats times, at
/// least once, records each duration in out->setup_s and returns the last
/// fixture. Each earlier fixture is freed before the next set-up starts.
template <typename SetUpFn>
auto SetUpRepeated(const RunContext& ctx, Measured* out, SetUpFn set_up)
    -> decltype(set_up()) {
  decltype(set_up()) fixture = qox::Status::Internal("no set-up ran");
  for (int i = 0; i < std::max(1, ctx.setup_repeats); ++i) {
    fixture = qox::Status::Internal("set-up replaced");
    const auto start = std::chrono::steady_clock::now();
    fixture = set_up();
    if (!fixture.ok()) return fixture.status();
    out->setup_s.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
  return fixture;
}

/// Maximum resident set size of this process so far, MiB.
double PeakRssMb();

std::string Fmt(double v, int precision = 3);

// --- workloads (one timed phase each) ---------------------------------------
qox::Status RunWarehouseBatch(const RunContext& ctx, Measured* out);
qox::Status RunCdcSharded(const RunContext& ctx, Measured* out);
qox::Status RunServiceOpen(const RunContext& ctx, Measured* out);

// --- per-layer probes of the traced run -------------------------------------
// Each times, from this side of the public API, the layers on one
// workload's blocking path, on that workload's inputs and configuration,
// and reports what the cost model predicts for the same design.
qox::Status ProbeWarehouseLayers(const RunContext& ctx, Report* out);
qox::Status ProbeCdcLayers(const RunContext& ctx, Report* out);
qox::Status ProbeServiceLayers(const RunContext& ctx, Report* out);

}  // namespace perfbench

#endif  // QOX_PERFBENCH_BENCH_H_
