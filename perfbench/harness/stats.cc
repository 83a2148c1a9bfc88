#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_beyond) {
  if (values.empty() || q < 0.0 || q > 1.0) return std::nullopt;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  // (The epsilon keeps 0.9 * 100 from rounding up to rank 91.)
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return values[rank - 1];
}

size_t MinSamplesFor(double q, size_t min_beyond) {
  size_t n = min_beyond + 1;
  while (!Percentile(std::vector<double>(n, 0.0), q, min_beyond)) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<int64_t> ArrivalSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, double jitter) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  const double interval_us = 1e6 / rate_per_s;
  const size_t count = static_cast<size_t>(std::floor(rate_per_s * duration_s));
  due.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t h = Mix64(seed ^ (0xa0761d6478bd642fULL * (i + 1)));
    // The top 53 bits as a double in [0, 1).
    const double u = static_cast<double>(h >> 11) / 9007199254740992.0;
    const double t =
        (static_cast<double>(i) + 0.5 + (u - 0.5) * jitter) * interval_us;
    due.push_back(static_cast<int64_t>(std::max(0.0, t)));
  }
  std::sort(due.begin(), due.end());
  return due;
}

}  // namespace perfbench
