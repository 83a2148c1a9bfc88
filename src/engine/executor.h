// Executor: runs an ETL flow under a physical execution configuration.
//
// This is the reproduction's stand-in for the ETL engines the paper
// experimented with. One FlowSpec (source -> transform chain -> target)
// can be executed under many ExecutionConfigs:
//
//   * partitioned parallelism over a bounded thread pool (Fig. 4: 1PF,
//     4PF-p, 4PF-f, 8PF-p across 1..8 CPUs),
//   * recovery points at arbitrary cut positions, persisted to disk
//     (Fig. 5 cost, Fig. 6 resume-after-failure),
//   * n-modular redundancy with majority voting (Fig. 7),
//   * any combination, plus injected system failures.
//
// Execution model. The transform chain of n operators defines cut
// positions 0..n: cut 0 is "after extraction", cut i is "after transform
// operator i". Recovery points live at cut positions. Every attempt runs
// the lowered ExecutionPlan through one scheduler: a stage per plan node,
// a channel per edge (engine/streaming.h). A phased plan runs its stages
// one after another, each to completion; a streaming plan runs them
// concurrently over bounded channels. A recovery point at a cut durably
// saves the rows crossing it. On a TRANSIENT failure (injected system failure,
// unavailable storage, expired watchdog deadline — see IsTransient in
// common/status) the attempt aborts, the executor waits out the
// RetryPolicy's backoff, and the next attempt resumes from the latest
// complete recovery point (or from scratch); a recovery point that fails
// checksum verification is abandoned and resume falls back to the next
// older complete point. PERMANENT errors fail the run immediately without
// consuming the attempt budget. With redundancy k > 1, k identical
// instances race and a majority vote over the output accepts a result;
// instance failures kill only that instance.

#ifndef QOX_ENGINE_EXECUTOR_H_
#define QOX_ENGINE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/error_policy.h"
#include "engine/exec_context.h"
#include "engine/failure.h"
#include "engine/flow_journal.h"
#include "engine/operator.h"
#include "engine/pipeline.h"
#include "engine/plan.h"
#include "engine/retry_policy.h"
#include "engine/run_metrics.h"
#include "engine/worker_pool.h"
#include "storage/data_store.h"
#include "storage/dead_letter_store.h"
#include "storage/recovery_store.h"

namespace qox {

/// One executable flow: source, transform chain, target.
struct FlowSpec {
  std::string id;
  DataStorePtr source;
  /// Factories, not instances: every partition/redundant branch clones its
  /// own operators.
  std::vector<OperatorFactory> transforms;
  DataStorePtr target;
  /// Invoked once after a successful (voted, loaded) run, once the run has
  /// committed the landing each of its Δs compared into that Δ's snapshot.
  /// May be empty.
  std::function<Status()> post_success;
};

/// A flow's freshness SLA expressed as an execution deadline — the QoX
/// freshness objective made schedulable. The FlowService turns the
/// relative budget into an absolute deadline at admission; a solo Run()
/// stamps it at start. Every task of the flow (partition branches,
/// streaming stages, redundant instances) carries the absolute deadline in
/// its TaskTag, so the shared pool can order runnable work EDF.
struct FlowSla {
  /// Relative deadline budget, microseconds from admission/start. 0 = no
  /// SLA (the seed behavior: nothing is deadline-ordered).
  int64_t deadline_micros = 0;
  /// Absolute NowMicros() deadline. Normally derived from deadline_micros;
  /// a non-zero value (set by the FlowService at admission) wins.
  int64_t absolute_deadline_micros = 0;
};

struct ExecutionConfig {
  /// Worker threads available for partitioned transform work ("CPUs").
  /// With a private pool (worker_pool == nullptr) this sizes it; with a
  /// shared pool the pool's own size governs and this is an accounting
  /// echo only.
  size_t num_threads = 1;
  /// Shared executor substrate to run on (engine/worker_pool.h). Null (the
  /// default) = Run() creates a private pool of num_threads core workers —
  /// the solo behavior. The FlowService points every admitted flow at one
  /// shared pool.
  WorkerPool* worker_pool = nullptr;
  /// Freshness SLA / deadline of this flow (see FlowSla).
  FlowSla sla;
  size_t batch_size = kDefaultBatchSize;
  ParallelSpec parallel;
  /// Cut positions carrying recovery points (0 = after extraction,
  /// i = after transform op i, n = before load).
  std::vector<size_t> recovery_points;
  RecoveryPointStorePtr rp_store;  ///< required when recovery_points set
  /// n-modular redundancy degree. 1 = none; k >= 2 runs k instances and
  /// majority-votes their outputs.
  size_t redundancy = 1;
  FailureInjector* injector = nullptr;
  /// Retry behavior on transient failures: attempt budget, exponential
  /// backoff with jitter, per-attempt watchdog deadline. Permanent errors
  /// (see IsTransient in common/status) fail fast regardless. Redundant
  /// instances get a single attempt: redundancy replaces recovery until
  /// the vote, and only the winner's load retries.
  RetryPolicy retry;
  /// Optional audit sink: rows rejected by quality operators (NULL
  /// filters, unresolved lookups) are appended here with provenance
  /// (flow id, instance, attempt, serialized row) — the auditability
  /// mechanism of the QoX suite. Must have RejectStoreSchema(). Retried
  /// attempts re-log their rejects (each record names its attempt).
  DataStorePtr reject_store;
  /// Streaming (pipelined) execution: extract, transform units, and load
  /// run as concurrent stages connected by Channel<RowBatch> edges of
  /// StageSet::kChannelCapacity batches (DESIGN.md "Streaming dataflow"),
  /// so batches flow end to end without
  /// full materialization except at blocking operators and recovery-point
  /// cuts. Off (phased), the same stages run one at a time, each to
  /// completion, the load last. In both modes the load is the dataflow's
  /// sink: a failed load fails the attempt, and the next attempt resumes
  /// from the newest recovery point and skips the rows already durable in
  /// the target. Output and metrics semantics match; streaming phase
  /// timings become per-stage busy-time aggregates (stages overlap, so
  /// they no longer sum to total).
  bool streaming = false;
  /// Row-level containment policy per transform op (by global index).
  /// Empty, or shorter than the chain, means kFailFast for the uncovered
  /// ops — the historical all-or-nothing behaviour. Both modes enforce
  /// identical semantics (containment lives in the shared Pipeline).
  std::vector<ErrorPolicy> error_policies;
  /// Flow-level ceiling on contained rows. Exceeding it aborts the run
  /// with the PERMANENT status kErrorBudgetExceeded (no retry attempts are
  /// consumed: re-running re-contains the identical rows). max_rows is
  /// checked online; max_fraction once the attempt drains, and in a phased
  /// run also before the load's first row lands. Each attempt restarts the
  /// accounting from its resume point's standing: the rows contained
  /// before that point plus the rows earlier attempts shed.
  ErrorBudget error_budget;
  /// Dead-letter ledger receiving kQuarantine rows with provenance
  /// (storage/dead_letter_store.h). Null = quarantined rows are counted
  /// and dropped (degraded to kSkip semantics, without replayability).
  /// Retried attempts re-quarantine their rows (each record names its
  /// attempt); consumers dedupe via CanonicalLedger.
  DeadLetterStorePtr dead_letter;
  /// Durable write-ahead flow journal (engine/flow_journal.h). When set,
  /// the executor records attempt/RP-commit/budget/flow-commit lifecycle
  /// events so a supervisor can resume the flow in a new process after a
  /// SIGKILL. Null = no journaling (the seed behavior). With redundancy,
  /// instance 0 journals until the vote, and the winner journals its load.
  FlowJournalPtr journal;
  /// Cross-process resume state, reconstructed from the journal by
  /// FlowSupervisor (engine/supervisor.h): prior attempts consumed by dead
  /// incarnations (the retry budget spans processes) and the target-row
  /// baseline for the durable-prefix load skip. Default = fresh run.
  FlowResume resume;
  /// Per-flow byte budget for blocking-operator working sets
  /// (engine/memory_budget.h). 0 = unlimited. When finite, sort / group /
  /// lookup spill to checksummed files under `spill_dir` instead of
  /// growing, and results stay byte-identical to the unbudgeted run.
  size_t memory_budget_bytes = 0;
  /// How the flow degrades when a write boundary reports
  /// kResourceExhausted (disk full, dead-letter cap): fail fast, treat it
  /// as transient and retry with backoff, or shed the affected load rows
  /// to the dead-letter ledger and continue.
  ResourcePolicy resource_policy = ResourcePolicy::kFailFlow;
  /// Directory for spill runs (one subdirectory per flow instance). Empty
  /// = a directory of this Run's own under the system temp dir, removed
  /// when the run ends; a caller's directory stays. Recorded in the flow
  /// journal so a supervisor restart deletes a dead incarnation's
  /// leftovers.
  std::string spill_dir;
  /// Read by nothing: every per-row transform op runs its columnar kernel
  /// (engine/pipeline.h). The field stays only because the repository
  /// benchmark (perfbench/harness) still assigns it.
  bool columnar = false;
};

/// Schema of the reject/audit store:
/// flow_id:string!, instance:int64!, attempt:int64!, rejected_row:string!.
Schema RejectStoreSchema();

class Executor {
 public:
  /// Runs the flow to completion (including retries / voting). On success
  /// the target contains the flow output and metrics describe the run.
  /// Internally: validate (BindChain), lower to an ExecutionPlan, then run
  /// the plan's stages, staged (phased) or streaming.
  static Result<RunMetrics> Run(const FlowSpec& flow,
                                const ExecutionConfig& config);

  /// Validates a flow + config without executing: binds the whole chain,
  /// checks partition/recovery configuration. Returns the schema at every
  /// cut position (size = transforms + 1).
  static Result<std::vector<Schema>> BindChain(const FlowSpec& flow,
                                               const ExecutionConfig& config);

  /// Validates and lowers the flow + config into the ExecutionPlan the
  /// scheduler (and plan dumps / tests) consume. Blocking flags are
  /// derived from the bound operators, so the plan's soft barriers match
  /// what actually executes.
  static Result<ExecutionPlan> LowerPlan(const FlowSpec& flow,
                                         const ExecutionConfig& config);

 private:
  class Impl;
};

/// Returns the multiset fingerprint of a row collection (order-insensitive
/// hash). Used by the redundancy voter and by output-equivalence tests.
size_t FingerprintRows(const std::vector<Row>& rows);

}  // namespace qox

#endif  // QOX_ENGINE_EXECUTOR_H_
