// MemoryBudget: the per-flow byte accountant behind spill-to-disk, and the
// ResourcePolicy vocabulary for degrading under resource exhaustion.
//
// The paper prices resource utilization as a first-class QoX objective;
// the engine backs that with an enforced byte budget instead of assuming
// infinite RAM. One MemoryBudget is shared by every pipeline of a flow
// instance (partition branches, streaming stages); blocking operators
// charge it for their buffered working set and, when a reservation is
// refused, switch to checksummed spill files (storage/spill_manager.h)
// instead of growing. The accountant is advisory-but-enforced: operators
// that honor it keep the flow inside the budget, and the RLIMIT_AS test
// tier proves the enforcement holds under a hard OS cap.

#ifndef QOX_ENGINE_MEMORY_BUDGET_H_
#define QOX_ENGINE_MEMORY_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <string>

#include "common/status.h"

namespace qox {

/// How the engine degrades when a resource (disk space, a storage quota,
/// the dead-letter cap) is exhausted at a write boundary.
enum class ResourcePolicy {
  /// kResourceExhausted is permanent: the flow fails immediately without
  /// burning retry attempts (the seed behaviour for any permanent error).
  kFailFlow = 0,
  /// kResourceExhausted is reclassified transient: the attempt pauses for
  /// the RetryPolicy's backoff and retries, modelling "wait for the
  /// operator to free disk" degradation.
  kPauseRetry,
  /// Rows whose load write hits resource exhaustion are shed to the
  /// dead-letter ledger (with provenance, bounded by the error budget)
  /// and the flow continues: availability is bought with completeness,
  /// and the ledger holds exactly what must be replayed later.
  kShedToQuarantine,
};

inline const char* ResourcePolicyName(ResourcePolicy policy) {
  switch (policy) {
    case ResourcePolicy::kFailFlow:
      return "fail_flow";
    case ResourcePolicy::kPauseRetry:
      return "pause_retry";
    case ResourcePolicy::kShedToQuarantine:
      return "shed_to_quarantine";
  }
  return "unknown";
}

inline Result<ResourcePolicy> ParseResourcePolicy(const std::string& name) {
  if (name == "fail_flow") return ResourcePolicy::kFailFlow;
  if (name == "pause_retry") return ResourcePolicy::kPauseRetry;
  if (name == "shed_to_quarantine") return ResourcePolicy::kShedToQuarantine;
  return Status::Invalid("unknown resource policy: " + name);
}

/// Thread-safe byte accountant. limit_bytes == 0 means unlimited; the
/// accountant would still track whatever is charged, but operators skip
/// charging when no finite limit is enforced (see OperatorContext::
/// BudgetEnforced), so unbudgeted runs report a zero high-water mark.
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t limit_bytes = 0) : limit_(limit_bytes) {}

  size_t limit() const { return limit_; }
  bool unlimited() const { return limit_ == 0; }

  /// Reserves `bytes` if they fit under the limit. Returns false (and
  /// reserves nothing) when the reservation would exceed it — the caller's
  /// cue to spill. Always succeeds on an unlimited budget.
  bool TryReserve(size_t bytes) {
    size_t used = used_.load(std::memory_order_relaxed);
    while (true) {
      const size_t next = used + bytes;
      if (limit_ != 0 && next > limit_) return false;
      if (used_.compare_exchange_weak(used, next,
                                      std::memory_order_relaxed)) {
        BumpHighWater(next);
        return true;
      }
    }
  }

  /// Reserves unconditionally (may overrun the limit). For the irreducible
  /// minimum an operator cannot shed — e.g. one row of a sort run — so a
  /// budget smaller than a single row degrades to row-at-a-time spilling
  /// instead of deadlocking.
  void ForceReserve(size_t bytes) {
    BumpHighWater(used_.fetch_add(bytes, std::memory_order_relaxed) + bytes);
  }

  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Zeroes the usage counter at attempt start: a failed attempt's
  /// operators may die before releasing their charges, and the retry must
  /// not inherit phantom usage. The high-water mark survives — it reports
  /// peak pressure across the whole run.
  void ResetUsage() { used_.store(0, std::memory_order_relaxed); }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void BumpHighWater(size_t candidate) {
    size_t hw = high_water_.load(std::memory_order_relaxed);
    while (candidate > hw && !high_water_.compare_exchange_weak(
                                 hw, candidate, std::memory_order_relaxed)) {
    }
  }

  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> high_water_{0};
};

}  // namespace qox

#endif  // QOX_ENGINE_MEMORY_BUDGET_H_
