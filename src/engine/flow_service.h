// FlowService: a multi-flow execution service over one shared WorkerPool.
//
// The paper's QoX tradeoffs are framed per flow, but a real ETL deployment
// runs MANY flows against one machine: nightly loads, near-real-time delta
// feeds, backfills — each with its own freshness SLA. The service is that
// deployment seam. It admits flows (FlowSpec + ExecutionConfig, plus a
// cost-model execution-time estimate), holds them in a pending queue while
// the concurrency slots are full, and runs each admitted flow's driver as
// a blocking task on the shared substrate (engine/worker_pool.h), so every
// partition branch and streaming stage of every live flow competes for the
// same cores.
//
//   * SCHEDULING. The pending queue dispatches earliest-deadline-first
//     (QueuePolicy::kEdf, the default): a flow's freshness SLA becomes an
//     absolute deadline at submission, and the tightest deadline gets the
//     next free slot. kFifo preserves submission order (the baseline the
//     multi-flow benchmark compares against). Below the queue, the shared
//     pool itself pops runnable tasks EDF by TaskTag, so deadline pressure
//     reaches individual stages, not just whole flows.
//
//   * ADMISSION CONTROL. With admit_only_feasible set, a flow whose SLA
//     cannot be met under current load is rejected at Submit() with
//     kResourceExhausted instead of admitted-then-missed: projected finish
//     = now + (outstanding predicted work + this flow's prediction) /
//     pool workers. The caller can renegotiate the SLA (the QoX
//     freshness/cost tradeoff) rather than discover the miss after the
//     fact.
//
//   * ATTRIBUTION. Each flow's RunMetrics come back with queue_wait_micros
//     (admission to driver start) and deadline_slack_micros (deadline −
//     finish; negative = missed) filled in, so service-level SLA reports
//     decompose into scheduling wait vs. execution time per flow.
//
// Isolation semantics are unchanged from solo runs: a failing flow fails
// only its own ticket (drivers are ordinary Executor::Run calls; error
// containment, quarantine, retry, and crash journaling all behave exactly
// as they do standalone), and results are byte-identical to solo execution
// because only thread provenance changes, never per-flow logic.

#ifndef QOX_ENGINE_FLOW_SERVICE_H_
#define QOX_ENGINE_FLOW_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "engine/executor.h"
#include "engine/worker_pool.h"

namespace qox {

/// Order in which pending flows take free concurrency slots.
enum class QueuePolicy {
  kEdf,   ///< earliest absolute deadline first (no-deadline flows last)
  kFifo,  ///< submission order
};

struct FlowServiceConfig {
  /// Core workers of the shared substrate ("CPUs" of the service machine).
  size_t num_workers = 4;
  /// Flow drivers allowed to run concurrently. Pending flows queue.
  size_t max_concurrent_flows = 4;
  QueuePolicy policy = QueuePolicy::kEdf;
  /// Reject flows whose SLA is predicted infeasible under current load
  /// (see header comment). Flows without an SLA or without a prediction
  /// are always admitted.
  bool admit_only_feasible = false;
};

/// One flow handed to the service. The service overrides
/// config.worker_pool (always the shared pool) and stamps
/// config.sla.absolute_deadline_micros from the SLA at submission; every
/// other knob (partitions, streaming, recovery points, redundancy,
/// containment, journaling, ...) is honored as given.
struct FlowSubmission {
  FlowSpec flow;
  ExecutionConfig config;
  /// Cost-model estimate of the flow's execution time (microseconds),
  /// e.g. CostModel::Predict(...).seconds * 1e6. Feeds admission control;
  /// 0 = unknown (always admitted).
  int64_t predicted_micros = 0;
};

class FlowService {
 public:
  /// Service-level counters (cumulative since construction).
  struct Stats {
    size_t submitted = 0;
    size_t admitted = 0;
    size_t rejected = 0;   ///< admission-control rejections
    size_t completed = 0;  ///< drivers finished (ok or failed)
    size_t deadline_hits = 0;    ///< completed with an SLA, on time
    size_t deadline_misses = 0;  ///< completed with an SLA, late
  };

  explicit FlowService(const FlowServiceConfig& config);
  /// Waits for every admitted flow to finish, then tears down the pool.
  ~FlowService();

  FlowService(const FlowService&) = delete;
  FlowService& operator=(const FlowService&) = delete;

  /// Admits a flow (or rejects it under admission control). Returns a
  /// ticket id for Wait(). The flow may start running before Submit
  /// returns; it never runs on the caller's thread.
  Result<uint64_t> Submit(FlowSubmission submission);

  /// Blocks until the flow behind `ticket` finishes; returns its result
  /// (the same Result an Executor::Run of the flow would return, with
  /// queue_wait_micros / deadline_slack_micros attribution filled in).
  /// A ticket may be waited on once; a second Wait errors kNotFound.
  Result<RunMetrics> Wait(uint64_t ticket);

  /// Blocks until every admitted flow has finished.
  void Drain();

  /// The shared substrate (tests observe steal/help counters through it).
  WorkerPool* pool() { return &pool_; }

  Stats stats() const;

 private:
  enum class FlowState { kPending, kRunning, kDone };

  struct FlowEntry {
    FlowSubmission submission;
    uint64_t ticket = 0;
    FlowState state = FlowState::kPending;
    int64_t submit_micros = 0;
    int64_t absolute_deadline_micros = 0;  ///< 0 = no SLA
    int64_t queue_wait_micros = 0;
    Result<RunMetrics> result{Status::Internal("flow not finished")};
  };

  /// Starts pending flows while free slots remain (mu_ held).
  void DispatchLocked();
  /// Picks the next pending flow per policy (mu_ held); null when none.
  FlowEntry* NextPendingLocked();
  void RunDriver(FlowEntry* entry);

  const FlowServiceConfig config_;
  WorkerPool pool_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::map<uint64_t, std::unique_ptr<FlowEntry>> flows_;
  uint64_t next_ticket_ = 1;
  size_t running_ = 0;
  size_t live_ = 0;  ///< admitted flows not yet done (pending + running)
  /// Sum of predicted_micros over admitted-but-unfinished flows (the
  /// admission-control load estimate).
  int64_t outstanding_predicted_ = 0;
  Stats stats_;
};

}  // namespace qox

#endif  // QOX_ENGINE_FLOW_SERVICE_H_
