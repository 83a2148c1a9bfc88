#include <sys/resource.h>

#include <cmath>
#include <iomanip>
#include <sstream>

#include "bench.h"

namespace perfbench {

std::string Report::ToJson() const {
  std::ostringstream out;
  out << std::setprecision(17) << "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN or infinity; a metric that is not finite is a bug in
    // the run and is reported as such by the caller's validation.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}";
  return out.str();
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Fmt(double v, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << v;
  return out.str();
}

}  // namespace perfbench
