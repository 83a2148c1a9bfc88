// Row-level error containment: policies, budgets, and containment records.
//
// The paper's reliability metric (Sec. 2.2) treats a run as all-or-nothing:
// one malformed row aborts the whole flow. Commercial ETL tools instead
// contain row-level errors with reject links and error tables. This header
// defines the containment vocabulary shared by the pipeline (which detects
// and contains row errors), the executor (which owns the flow-level error
// budget), and the dead-letter machinery (which persists quarantined rows
// for later replay):
//
//   kFailFast    a row error aborts the attempt (the seed behaviour);
//   kSkip        the failing row is dropped and counted;
//   kQuarantine  the failing row is wrapped with provenance and routed to
//                a dead-letter store, replayable once the flow is repaired.
//
// Skip and quarantine are bounded by an ErrorBudget: when more rows are
// contained than the budget allows, the run aborts with the *permanent*
// status kErrorBudgetExceeded (re-running the identical flow re-contains
// the identical rows, so burning retry attempts on it would be pointless).

#ifndef QOX_ENGINE_ERROR_POLICY_H_
#define QOX_ENGINE_ERROR_POLICY_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>

#include "common/row.h"
#include "common/status.h"

namespace qox {

/// What to do when an individual row trips an operator error.
enum class ErrorPolicy {
  kFailFast = 0,
  kSkip,
  kQuarantine,
};

inline const char* ErrorPolicyName(ErrorPolicy policy) {
  switch (policy) {
    case ErrorPolicy::kFailFast:
      return "fail_fast";
    case ErrorPolicy::kSkip:
      return "skip";
    case ErrorPolicy::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

inline Result<ErrorPolicy> ParseErrorPolicy(const std::string& name) {
  if (name == "fail_fast") return ErrorPolicy::kFailFast;
  if (name == "skip") return ErrorPolicy::kSkip;
  if (name == "quarantine") return ErrorPolicy::kQuarantine;
  return Status::Invalid("unknown error policy: " + name);
}

/// True for status codes that represent a *row-scoped* data error — bad
/// input, a failed lookup, a domain violation — as opposed to systemic
/// failures (injected faults, I/O errors, cancellation, deadlines) that no
/// amount of row dropping can contain.
inline bool IsRowContainable(StatusCode code) {
  return code == StatusCode::kInvalidArgument ||
         code == StatusCode::kNotFound || code == StatusCode::kOutOfRange;
}
inline bool IsRowContainable(const Status& status) {
  return IsRowContainable(status.code());
}

/// Flow-level ceiling on contained (skipped + quarantined) rows. The
/// defaults are unlimited, so a design that never sets a budget behaves
/// exactly like the seed.
struct ErrorBudget {
  /// Abort once more than this many rows have been contained. Checked
  /// online, as rows are contained, in both executors.
  size_t max_rows = std::numeric_limits<size_t>::max();
  /// Abort when contained rows exceed this fraction of the attempt's
  /// extracted rows. The denominator is only known once extraction ends, so
  /// this is checked once per attempt after the transforms drain — at the
  /// same point in both executors.
  double max_fraction = 1.0;

  bool unlimited() const {
    return max_rows == std::numeric_limits<size_t>::max() &&
           max_fraction >= 1.0;
  }
  bool operator==(const ErrorBudget& other) const {
    return max_rows == other.max_rows && max_fraction == other.max_fraction;
  }
};

/// Shared, thread-safe per-attempt budget accounting. One instance per flow
/// run, reset at the start of every attempt, charged concurrently by all
/// pipelines (partition branches, streaming stages) of that attempt.
class ErrorBudgetState {
 public:
  explicit ErrorBudgetState(const ErrorBudget& budget) : budget_(budget) {}

  /// Records one contained row. Returns kErrorBudgetExceeded once the total
  /// crosses budget.max_rows.
  Status Charge(ErrorPolicy policy, int op_index) {
    auto& counter =
        policy == ErrorPolicy::kQuarantine ? quarantined_ : skipped_;
    counter.fetch_add(1, std::memory_order_relaxed);
    if (contained() > budget_.max_rows) {
      return Status::ErrorBudgetExceeded(
          "error budget exhausted: " + std::to_string(contained()) +
          " rows contained (max " + std::to_string(budget_.max_rows) +
          "), last at transform op " + std::to_string(op_index));
    }
    return Status::OK();
  }

  /// End-of-attempt fraction check against the attempt's input row count.
  Status CheckFraction(size_t input_rows) const {
    if (input_rows == 0 || budget_.max_fraction >= 1.0) return Status::OK();
    const double fraction =
        static_cast<double>(contained()) / static_cast<double>(input_rows);
    if (fraction > budget_.max_fraction + 1e-12) {
      return Status::ErrorBudgetExceeded(
          "error budget exhausted: " + std::to_string(contained()) + " of " +
          std::to_string(input_rows) + " rows contained, fraction exceeds " +
          std::to_string(budget_.max_fraction));
    }
    return Status::OK();
  }

  /// Restarts the accounting from the given counts (rows contained
  /// earlier that the new attempt will not contain again).
  void Reset(size_t skipped, size_t quarantined) {
    skipped_.store(skipped, std::memory_order_relaxed);
    quarantined_.store(quarantined, std::memory_order_relaxed);
  }

  size_t skipped() const { return skipped_.load(std::memory_order_relaxed); }
  size_t quarantined() const {
    return quarantined_.load(std::memory_order_relaxed);
  }
  size_t contained() const { return skipped() + quarantined(); }
  const ErrorBudget& budget() const { return budget_; }

 private:
  ErrorBudget budget_;
  std::atomic<size_t> skipped_{0};
  std::atomic<size_t> quarantined_{0};
};

/// One contained row, as handed from the pipeline to the executor's
/// quarantine sink (which adds flow-level provenance and persists it).
struct ContainedRow {
  /// Global index of the failing operator in the flow's transform chain.
  int op_index = 0;
  std::string op_name;
  /// The row exactly as it entered the failing operator (i.e. with all
  /// upstream transforms applied) — the unit the replay helper re-runs.
  Row row;
  Status cause;
};

/// Receives quarantined rows. Must be thread-safe: partition branches and
/// streaming stages contain rows concurrently.
using QuarantineSink = std::function<Status(const ContainedRow&)>;

}  // namespace qox

#endif  // QOX_ENGINE_ERROR_POLICY_H_
