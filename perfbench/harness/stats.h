// Small statistics helpers of the benchmark: percentiles that refuse to
// report a tail they have too few samples for, and the seeded open-loop
// arrival schedule.

#ifndef QOX_PERFBENCH_STATS_H_
#define QOX_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a percentile needs strictly above it before it is reported: a
/// p90 of 20 samples is the second-largest value, not a tail estimate.
constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (q in [0, 1]) of `values`. Empty input gives
/// nullopt. With `min_beyond` > 0 it also gives nullopt unless at least
/// that many samples lie strictly above the returned rank.
std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_beyond = 0);

/// Smallest sample count for which Percentile(q, min_beyond) reports.
size_t MinSamplesFor(double q, size_t min_beyond);

double Median(std::vector<double> values);

/// Scheduled send times, in microseconds from the start of the run, of an
/// open loop at `rate_per_s` over `duration_s`: the i-th send is due at
/// i / rate plus a seeded jitter of up to +/- `jitter` of one interval.
/// The count is fixed by rate and duration alone and the result is sorted,
/// so every seed offers the same load.
std::vector<int64_t> ArrivalSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, double jitter);

/// SplitMix64 step: the benchmark's own seeded draws (tenant shapes,
/// dimension labels) use it so they never depend on engine internals.
uint64_t Mix64(uint64_t x);

}  // namespace perfbench

#endif  // QOX_PERFBENCH_STATS_H_
