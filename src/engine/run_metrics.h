// RunMetrics: everything measured about one execution of an ETL flow.
//
// These are the raw quantitative measures the QoX framework consumes: the
// paper's "lower level metrics [that] are functional parameters of the
// system; e.g., time window, execution time, recoverability time, ...,
// number of failures, latency of data updates" (Sec. 2.3).

#ifndef QOX_ENGINE_RUN_METRICS_H_
#define QOX_ENGINE_RUN_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qox {

/// Per-operator accounting collected by the pipeline.
struct OpStats {
  std::string name;
  std::string kind;  ///< operator kind ("filter", "delta", ...)
  size_t rows_in = 0;
  size_t rows_out = 0;
  /// Rows this op errored on that were contained (skipped or quarantined)
  /// instead of aborting the attempt (see engine/error_policy.h).
  size_t rows_contained = 0;
  int64_t micros = 0;

  /// Merges another instance's stats (partitioned execution sums clones).
  void Merge(const OpStats& other) {
    rows_in += other.rows_in;
    rows_out += other.rows_out;
    rows_contained += other.rows_contained;
    micros += other.micros;
  }
};

/// Timing breakdown of one partitioned (parallel) execution unit, filled
/// by its branch and merge stages: the ops range it covered and each
/// partition branch's busy time. In a phased run with one worker thread
/// these durations are clean CPU times, which the benchmark harness
/// schedules onto an N-CPU virtual machine (the multi-core hardware
/// substitution documented in DESIGN.md).
struct ParallelUnitStats {
  size_t range_begin = 0;
  size_t range_end = 0;
  std::vector<int64_t> partition_micros;
  /// Per partition: the share of partition_micros spent inside operators
  /// that serialize across partitions through shared state (the Δ's
  /// snapshot-store critical section). The virtual scheduler treats this
  /// share as sequential work — with real concurrency those sections
  /// contend on the snapshot mutex.
  std::vector<int64_t> serialized_micros;
  int64_t merge_micros = 0;
};

/// Accounting of one dataflow stage: extract, a transform pipeline, a
/// partition branch, a merge, a recovery-point barrier, or the load or
/// collect sink, connected to its neighbors by channels. busy + stall +
/// backpressure ≈ the stage's wall time; the stall/backpressure split shows
/// which neighbor was the bottleneck (both are 0 in a staged run).
struct StageStats {
  std::string name;                ///< "extract", "transform[0,3)", "load", ...
  /// Id of the ExecutionPlan node this stage executed (see engine/plan.h),
  /// or -1 when the stage predates plan lowering. The recovery-point
  /// replay source reports under the extract node's id.
  int64_t node_id = -1;
  int64_t busy_micros = 0;         ///< actually processing rows
  int64_t stall_micros = 0;        ///< blocked popping an empty input channel
  int64_t backpressure_micros = 0; ///< blocked pushing a full output channel
  /// Time the stage task sat queued on the shared worker pool before a
  /// worker picked it up (scheduling wait, charged to the owning flow and
  /// plan node — never to the worker thread that happened to run it).
  int64_t queue_wait_us = 0;
  /// Slack against the owning flow's deadline when the stage finished
  /// (deadline − finish time; negative = the stage completed late). 0 when
  /// the flow carries no deadline.
  int64_t deadline_slack_us = 0;
  size_t batches = 0;              ///< batches this stage emitted
  size_t rows = 0;                 ///< rows this stage emitted
  /// High-water mark of the stage's output channel (0 for sink stages).
  size_t channel_high_water = 0;
};

/// Per-shard accounting of a sharded CDC ingestion run
/// (engine/cdc_coordinator.h): how far each shard worker got through the
/// stream window and what it cost to keep it there. `lag_events` is the
/// bounded-staleness headline — updates routed to the shard that are NOT
/// yet durable in the warehouse (0 for a healthy shard after a converged
/// run; the shard's whole backlog when it died and the coordinator
/// degraded around it).
struct ShardStats {
  size_t shard = 0;
  /// Update events of the window owned by this shard (key-hash routing).
  size_t events_routed = 0;
  /// Events of slices whose shard output is durably applied.
  size_t events_applied = 0;
  /// events_routed - events_applied: the shard's staleness in updates.
  size_t lag_events = 0;
  /// Post-transform rows durably staged by the shard's workers.
  size_t rows_staged = 0;
  /// Staged rows merged into the warehouse WAL.
  size_t rows_applied = 0;
  /// Supervised worker children forked for this shard (this process).
  size_t incarnations = 0;
  /// Worker children that died abnormally and were restarted.
  size_t crashes = 0;
  /// Worker lease acquisitions that displaced a stale lease.
  size_t lease_takeovers = 0;
  /// The shard exhausted its incarnation budget; the coordinator stopped
  /// scheduling it and kept loading the healthy shards.
  bool dead = false;
};

/// Metrics of one flow run (possibly spanning several attempts when
/// failures were injected).
struct RunMetrics {
  // --- wall-clock phases (microseconds) -----------------------------------
  int64_t total_micros = 0;      ///< end-to-end, including restarts
  int64_t extract_micros = 0;    ///< extraction across all attempts
  int64_t transform_micros = 0;  ///< transformation across all attempts
  int64_t load_micros = 0;       ///< warehouse load across all attempts
  int64_t rp_write_micros = 0;   ///< writing recovery points
  int64_t rp_read_micros = 0;    ///< reading recovery points on resume
  int64_t merge_micros = 0;      ///< merging partitioned branches back
  int64_t lost_work_micros = 0;  ///< work discarded due to failures
  int64_t backoff_micros = 0;    ///< waited between attempts (RetryPolicy)
  /// Multi-flow service attribution (engine/flow_service.h): time the flow
  /// waited in the admission queue before its driver started, and its
  /// slack against the freshness-SLA deadline at completion (deadline −
  /// finish; negative = missed). Both 0 for solo runs without an SLA.
  int64_t queue_wait_micros = 0;
  int64_t deadline_slack_micros = 0;

  // --- volumes -------------------------------------------------------------
  size_t rows_extracted = 0;
  /// Rows this process landed in the target, across its attempts: never
  /// rows shed at the load boundary, nor the durable prefix a dead
  /// incarnation landed before a cross-process resume.
  size_t rows_loaded = 0;
  size_t rows_rejected = 0;  ///< filtered/unresolved rows routed aside
  /// Row-level containment (engine/error_policy.h), counted on the
  /// successful attempt only: rows dropped under ErrorPolicy::kSkip and
  /// rows routed to the dead-letter store under ErrorPolicy::kQuarantine.
  size_t rows_skipped = 0;
  size_t rows_quarantined = 0;
  size_t rp_bytes_written = 0;
  size_t rp_points_written = 0;
  /// Rows committed into Δ snapshots (storage/snapshot_store.h): the
  /// de-duplicated landings the run's Δs compared, each made its
  /// snapshot once the load succeeded.
  size_t landing_rows_committed = 0;

  // --- resource pressure ----------------------------------------------------
  /// Peak bytes charged to the flow's MemoryBudget. Operators only charge
  /// when a finite budget is enforced, so unbudgeted runs report 0.
  size_t mem_high_water_bytes = 0;
  size_t spill_runs = 0;   ///< spill files written by blocking operators
  size_t spill_rows = 0;   ///< rows round-tripped through spill files
  size_t spill_bytes = 0;  ///< bytes written to spill files
  /// Rows shed to the dead-letter ledger at the load boundary under
  /// ResourcePolicy::kShedToQuarantine (subset of rows_quarantined).
  size_t rows_shed = 0;

  // --- shared caches & per-row kernel runs ---------------------------------
  /// Lookup dimension tables this run built itself vs. took ready-made from
  /// the process-wide DimensionCache (engine/dimension_cache.h). Concurrent
  /// flows against the same dimension snapshot should sum to one build.
  size_t dim_cache_builds = 0;
  size_t dim_cache_hits = 0;
  /// Batches that entered a run of per-row kernels (engine/pipeline.h) and
  /// the live rows they carried. A batch crossing two runs (split by a
  /// blocking op, or by armed poison) counts once per run.
  size_t columnar_batches = 0;
  size_t columnar_rows = 0;

  // --- reliability ---------------------------------------------------------
  size_t attempts = 0;          ///< 1 when no failure occurred
  size_t failures_injected = 0; ///< failures that interrupted an attempt
  size_t resumed_from_rp = 0;   ///< attempts that resumed from a recovery point
  /// Recovery points found corrupted on resume (checksum mismatch) and
  /// abandoned in favor of an older point or a from-scratch restart.
  size_t rp_corruption_fallbacks = 0;
  /// Retries taken, keyed by failure cause (StatusCodeName of the status
  /// that interrupted the attempt: "injected_failure", "unavailable",
  /// "deadline_exceeded"). Sums to total retries across all phases.
  std::map<std::string, size_t> retries_by_cause;

  /// Total retries across causes: one per failed attempt that was retried,
  /// whichever stage failed it (a failed load fails its attempt too).
  size_t TotalRetries() const;

  // --- configuration echo (for reports) ------------------------------------
  size_t threads = 1;
  size_t partitions = 1;
  size_t redundancy = 1;
  bool streaming = false;  ///< ran in streaming (pipelined) mode

  std::vector<OpStats> op_stats;
  /// One entry per executed parallel unit (across attempts).
  std::vector<ParallelUnitStats> parallel_units;
  /// One entry per dataflow stage (across attempts), in either mode.
  std::vector<StageStats> stage_stats;
  /// Sharded CDC ingestion only: one entry per shard worker, in shard
  /// order (empty for ordinary flow runs).
  std::vector<ShardStats> shard_stats;

  /// Adds an operator's stats, merging by name.
  void AccumulateOp(const OpStats& stats);

  /// Human-readable one-line summary.
  std::string Summary() const;
};

}  // namespace qox

#endif  // QOX_ENGINE_RUN_METRICS_H_
