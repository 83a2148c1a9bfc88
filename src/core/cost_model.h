// Analytic QoX cost model: predicts every QoX metric for a physical design
// without executing it.
//
// This is the automation the paper calls for: "These metrics, in effect,
// prune the search space of all possible designs, much like cost-estimates
// are used to bound the search space in cost-based query optimization"
// (Sec. 2.1). The model is ORDINAL by intent — its job is to rank designs
// the way measured runs rank them (who wins, where crossovers fall), not
// to predict absolute times; bench/abl_cost_model measures the fidelity.
//
// Laws implemented (constants in CostModelParams, calibratable from a
// measured run):
//   extraction      rows * extract_ns (sequential: source scan + decode)
//   transformation  sum over ops of cost_per_row * rows_in * unit_ns,
//                   volume shrinking by selectivity; ops inside the
//                   parallel range divide by an Amdahl-style effective
//                   speedup min(partitions, threads) * efficiency, plus
//                   split and merge overhead at range borders ("the cost
//                   of merging back ... is not cheap"); the range is the
//                   lowered plan's, which a sort ends early
//   recovery points per cut: rows_at_cut * bytes_per_row * rp write rate,
//                   plus a fixed per-point latency (Fig. 5)
//   redundancy      wall time factor 1 + contention * (k - 1) from
//                   resource sharing (Fig. 7's 14%..58% NMR overheads)
//   reliability     per-attempt failure probability 1 - exp(-lambda * T);
//                   retries (recovery) or NMR majority voting lift it; a
//                   retry costs expected rework + the retry policy's mean
//                   backoff wait, degraded toward a full rerun by the
//                   RP-corruption probability, and the policy's attempt
//                   budget caps how many retries the window can hold
//   recoverability  expected rework after a failure given RP placement:
//                   failure uniform over the run, rework = time since the
//                   last durable cut (Fig. 6)
//   streaming       overlapped execution: the flow splits into sections at
//                   pipeline barriers (recovery-point cuts and blocking
//                   operators); within a section concurrent stages overlap,
//                   so the section's wall time is the MAX of its stage
//                   costs (extract, per-chunk transform, load) instead of
//                   their sum, plus per-stage startup and per-row channel
//                   transfer overheads
//   freshness       load period / 2 + per-batch execution time (Fig. 8)
//   maintainability graph metrics of the logical flow (ref [16])
//   cost            machine-seconds (threads x time x redundancy) plus
//                   recovery-point storage
//
// Every law is exercised against measured engine runs in the tests and
// ablation benches.

#ifndef QOX_CORE_COST_MODEL_H_
#define QOX_CORE_COST_MODEL_H_

#include <string>

#include "core/design.h"
#include "core/metrics.h"
#include "engine/run_metrics.h"

namespace qox {

/// Calibration constants. Defaults are sane for the in-repo engine on a
/// current x86 box; Calibrate() fits the main rates from a measured run.
struct CostModelParams {
  double extract_ns_per_row = 2200.0;
  double transform_ns_per_unit = 160.0;  ///< per cost_per_row unit per row
  double load_ns_per_row = 700.0;
  double rp_ns_per_byte = 18.0;
  double rp_fixed_us = 400.0;
  double bytes_per_row = 70.0;
  double split_ns_per_row = 60.0;
  double merge_ns_per_row = 300.0;     ///< merge of branches (batch order)
  double parallel_efficiency = 0.80;   ///< fraction of ideal speedup
  double redundancy_contention = 0.12; ///< overhead per extra instance
  double rp_resume_fixed_s = 0.01;     ///< fixed resume cost from an RP
  /// Streaming-execution overheads: one-time spawn/fill cost per dataflow
  /// stage, and the per-row cost of moving a row across a bounded channel
  /// edge (enqueue + wakeup amortized over a batch).
  double stream_stage_startup_us = 150.0;
  double stream_channel_ns_per_row = 25.0;
  /// Probability that a resume finds its newest recovery point corrupted
  /// (checksum mismatch) and must fall back toward scratch. 0 (default)
  /// models perfectly reliable RP storage and keeps predictions identical
  /// to the pre-fault-tolerance model.
  double rp_corruption_prob = 0.0;
  /// Data-quality law input: expected fraction of an op's input rows that
  /// trip a row-scoped operator error (bad value, failed lookup). 0
  /// (default) models clean input and keeps every prediction identical to
  /// the pre-containment model.
  double row_error_rate = 0.0;
  /// Per-row cost of containing a row error: skipping is accounting only;
  /// quarantining encodes, checksums, and appends to the dead-letter
  /// ledger.
  double skip_ns_per_row = 120.0;
  double quarantine_ns_per_row = 2600.0;
  /// Crash-recovery law inputs. restart_fixed_s is the per-incarnation
  /// machinery cost of a supervised restart (fork, lease check, journal
  /// replay, recovery-point adoption). journal_sync_us prices one fsync'd
  /// flow-journal append; journaled designs pay it per durable record
  /// (JournalSync::kAlways) or per commit record (kCommit).
  double restart_fixed_s = 0.02;
  double journal_sync_us = 900.0;
  /// Resource-pressure law input: cost per byte moved through a spill run
  /// (checksummed write plus the read-back during merge/replay). Charged
  /// on the working-set overflow of every blocking op when the design sets
  /// a finite memory_budget_bytes.
  double spill_ns_per_byte = 30.0;
};

/// Workload context a prediction is made for.
struct WorkloadParams {
  double rows_per_run = 100000;
  double loads_per_day = 24;
  /// System failure rate, failures per second of execution (1 / MTBF).
  double failure_rate_per_s = 0.0;
  /// Process-death rate (SIGKILL, OOM kill, node loss), crashes per second
  /// of execution. Unlike failure_rate_per_s, a crash kills the process
  /// mid-run: recovery needs a supervised restart, and only a journaled
  /// design resumes from its durable prefix instead of from scratch.
  double crash_rate_per_s = 0.0;
  /// The ETL time window, seconds (availability denominator).
  double time_window_s = 3600.0;
  /// Probability one run encounters a disk-pressure fault (ENOSPC, EIO)
  /// on its write path. The design's ResourcePolicy decides what that
  /// costs: a rerun (kFailFlow), a backoff + resume (kPauseRetry), or a
  /// shed batch re-encoded into the dead-letter ledger (kShed).
  double disk_fault_rate = 0.0;
  /// Flows sharing the machine concurrently (the FlowService admission
  /// load). The performance law grants the design only its proportional
  /// thread share — effective threads = max(1, threads / concurrent_flows)
  /// — so predictions degrade the way a shared WorkerPool does. 1 (the
  /// default) is the solo prediction, identical to the single-flow model.
  double concurrent_flows = 1.0;
  /// CDC stream update rate, events/second, for sharded ingestion designs.
  /// 0 (the default) defers to the design's own cdc_update_rate_per_s.
  double cdc_update_rate_per_s = 0.0;
};

/// Per-phase time prediction, seconds.
struct PhaseEstimate {
  double extract_s = 0.0;
  double transform_s = 0.0;
  double load_s = 0.0;
  double rp_s = 0.0;
  double merge_s = 0.0;
  /// Spill I/O tax: working-set overflow of blocking ops written to and
  /// read back from disk runs; 0 for unbudgeted designs.
  double spill_s = 0.0;
  /// Flow-journal durability overhead (fsync'd appends); 0 for
  /// non-journaled designs.
  double journal_s = 0.0;
  double total_s = 0.0;

  std::string ToString() const;
};

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostModelParams params) : params_(params) {}

  const CostModelParams& params() const { return params_; }

  /// Fits extract/transform/load/rp rates from one measured run of `flow`
  /// (no parallelism, no redundancy recommended for clean rates). Returns
  /// calibrated params; constants not identifiable from the run keep their
  /// previous value.
  static CostModelParams Calibrate(const CostModelParams& base,
                                   const RunMetrics& measured,
                                   const LogicalFlow& flow,
                                   double input_rows);

  /// Phase-by-phase time prediction for one run of the design over
  /// `input_rows` rows (no failures).
  PhaseEstimate EstimatePhases(const PhysicalDesign& design,
                               double input_rows) const;

  /// As above, but granting the design only `available_threads` of its
  /// thread budget — the flow's share of a WorkerPool other flows are
  /// running on (the FlowService's admission-control input). Passing
  /// design.threads reproduces the solo prediction exactly.
  PhaseEstimate EstimatePhases(const PhysicalDesign& design, double input_rows,
                               size_t available_threads) const;

  /// The ExecutionPlan the model prices: the same lowering the executors
  /// schedule (engine/plan.h), built from the design's structural facts.
  /// Barriers, sections, and recovery cuts used by the streaming and RP
  /// laws all come from here — one source of truth shared with the engine.
  /// Recovery points beyond the chain (rejected by the executor at run
  /// time) are dropped, and duplicate cuts deduplicate, so estimation over
  /// pathological designs stays total and rank-preserving.
  static ExecutionPlan PlanFor(const PhysicalDesign& design);

  /// Probability one attempt of duration `exec_s` completes without a
  /// system failure at the given rate.
  static double AttemptSuccessProbability(double exec_s,
                                          double failure_rate_per_s);

  /// Probability the design's run completes: retries-from-RP for
  /// non-redundant designs, majority vote for NMR.
  double EstimateReliability(const PhysicalDesign& design,
                             const PhaseEstimate& phases,
                             const WorkloadParams& workload) const;

  /// Expected rework time after one failure (the recoverability metric):
  /// failure position uniform over the run; rework = time back to the
  /// last durable cut plus resume overhead.
  double EstimateRecoverability(const PhysicalDesign& design,
                                const PhaseEstimate& phases) const;

  /// Mean event-to-warehouse latency at the design's load schedule:
  /// period / 2 + execution time of one batch (day volume / loads).
  double EstimateFreshness(const PhysicalDesign& design,
                           const WorkloadParams& workload) const;

  /// Mean event-to-warehouse latency of a sharded CDC design (cdc_shards
  /// > 0): slice fill wait (slice_events / 2R at stream rate R) plus the
  /// shard-parallel extract+transform of one slice (ideal speedup damped
  /// by parallel_efficiency) plus the serial coordinator floor (version
  /// merge + warehouse append are not sharded, so adding shards stops
  /// helping once per-shard work dips below it — the freshness-vs-shard-
  /// count law bench/fig_cdc_freshness sweeps). The workload's
  /// cdc_update_rate_per_s overrides the design's; 0 when the design is
  /// not CDC or neither supplies a positive rate.
  double EstimateCdcFreshness(const PhysicalDesign& design,
                              const WorkloadParams& workload) const;

  /// Expected extra wall time per run spent recovering from process
  /// crashes: E[crashes] = crash_rate * T, each costing the fixed
  /// supervised-restart overhead plus rework — the expected rework back to
  /// the last durable cut for a journaled design (the journal's resume
  /// state makes every committed recovery point a restart point), or a
  /// full rerun for an unjournaled one (a dead process forgets everything).
  /// 0 when the workload models no crashes.
  double EstimateRestartCost(const PhysicalDesign& design,
                             const PhaseEstimate& phases,
                             const WorkloadParams& workload) const;

  /// Expected extra wall time per run lost to resource-exhaustion
  /// degradation at the workload's disk_fault_rate, priced per the
  /// design's ResourcePolicy: kFailFlow pays a restart plus rework back to
  /// the last durable cut, kPauseRetry pays the policy's mean backoff plus
  /// the same rework, kShed pays re-encoding the unloadable remainder into
  /// the dead-letter ledger. 0 when the workload models no disk faults.
  double EstimateResourceDelay(const PhysicalDesign& design,
                               const PhaseEstimate& phases,
                               const WorkloadParams& workload) const;

  /// Expected number of rows routed to the dead-letter ledger in one run
  /// of `input_rows` rows at the configured row_error_rate: the volume a
  /// quarantine-enabled design must budget ledger storage and replay work
  /// for. 0 when no op carries kQuarantine or the error rate is 0.
  double EstimateQuarantineVolume(const PhysicalDesign& design,
                                  double input_rows) const;

  /// Probability one run aborts with kErrorBudgetExceeded: the expected
  /// contained volume measured against the budget's effective ceiling
  /// (min of max_rows and max_fraction * input), with the contained count
  /// modelled as Poisson around its mean. 0 with no budget, containment,
  /// or errors.
  double EstimateBudgetAbortProbability(const PhysicalDesign& design,
                                        double input_rows) const;

  /// Maintainability score of the logical flow, penalized by physical
  /// complexity (partitioned/redundant plumbing).
  Result<double> EstimateMaintainability(const PhysicalDesign& design) const;

  /// Full QoX vector for the design under the workload.
  Result<QoxVector> Predict(const PhysicalDesign& design,
                            const WorkloadParams& workload) const;

 private:
  CostModelParams params_;
};

}  // namespace qox

#endif  // QOX_CORE_COST_MODEL_H_
