// Unit tests of the benchmark's statistics helpers: the percentile that
// refuses an unsupported tail, and the seeded open-loop arrival schedule.
// Plain checks, no framework: the benchmark package builds on its own.

#include <cstdlib>
#include <iostream>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " \
                << #cond << "\n";                                    \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileNearestRank() {
  CHECK(!perfbench::Percentile({}, 0.5).has_value());
  CHECK(*perfbench::Percentile({7.0}, 0.9) == 7.0);
  CHECK(*perfbench::Percentile(OneTo(10), 0.5) == 5.0);
  CHECK(*perfbench::Percentile(OneTo(10), 0.9) == 9.0);
  CHECK(*perfbench::Percentile(OneTo(100), 0.9) == 90.0);
  CHECK(*perfbench::Percentile(OneTo(100), 1.0) == 100.0);
  CHECK(!perfbench::Percentile(OneTo(10), 1.5).has_value());
}

void TestPercentileNeedsSamplesBeyond() {
  // p90 of 100 samples leaves exactly 10 above it: reported.
  CHECK(perfbench::Percentile(OneTo(100), 0.9, 10).has_value());
  // p90 of 99 leaves 9: refused, even though the plain percentile exists.
  CHECK(!perfbench::Percentile(OneTo(99), 0.9, 10).has_value());
  CHECK(perfbench::Percentile(OneTo(99), 0.9, 0).has_value());
  CHECK(perfbench::MinSamplesFor(0.9, 10) == 100);
  CHECK(perfbench::MinSamplesFor(0.5, 10) == 20);
  CHECK(perfbench::Median({3.0, 1.0, 2.0, 4.0}) == 2.5);
}

void TestArrivalSchedule() {
  const auto a = perfbench::ArrivalSchedule(7, 100.0, 2.0, 0.5);
  const auto b = perfbench::ArrivalSchedule(7, 100.0, 2.0, 0.5);
  const auto c = perfbench::ArrivalSchedule(8, 100.0, 2.0, 0.5);
  CHECK(a.size() == 200);  // rate x duration, whatever the seed
  CHECK(c.size() == 200);
  CHECK(a == b);           // same seed, same schedule
  CHECK(a != c);           // the seed moves the jitter
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0) CHECK(a[i] >= a[i - 1]);
    // Each send stays within a quarter interval of its slot centre.
    const double centre = (static_cast<double>(i) + 0.5) * 10000.0;
    CHECK(static_cast<double>(a[i]) >= centre - 2500.0 - 1.0);
    CHECK(static_cast<double>(a[i]) <= centre + 2500.0 + 1.0);
  }
  const auto even = perfbench::ArrivalSchedule(7, 100.0, 1.0, 0.0);
  CHECK(even.size() == 100);
  CHECK(even[0] == 5000 && even[1] == 15000);
  CHECK(perfbench::ArrivalSchedule(7, 0.0, 1.0, 0.5).empty());
}

}  // namespace

int main() {
  TestPercentileNearestRank();
  TestPercentileNeedsSamplesBeyond();
  TestArrivalSchedule();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench helpers: all checks passed\n";
  return EXIT_SUCCESS;
}
