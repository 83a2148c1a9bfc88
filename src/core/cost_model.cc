#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "engine/plan.h"
#include "graph/graph_metrics.h"

namespace qox {

std::string PhaseEstimate::ToString() const {
  std::ostringstream oss;
  oss << "total=" << total_s << "s extract=" << extract_s
      << "s transform=" << transform_s << "s load=" << load_s
      << "s rp=" << rp_s << "s merge=" << merge_s
      << "s spill=" << spill_s << "s journal=" << journal_s << "s";
  return oss.str();
}

namespace {

/// Rows entering each op (index i) and leaving the chain, from
/// selectivities. result[i] = rows entering op i; result[n] = output rows.
std::vector<double> RowsAtCuts(const std::vector<LogicalOp>& ops,
                               double input_rows) {
  std::vector<double> rows;
  rows.reserve(ops.size() + 1);
  rows.push_back(input_rows);
  for (const LogicalOp& op : ops) {
    rows.push_back(rows.back() * op.selectivity);
  }
  return rows;
}

/// Expected row-error volume per containment class for one run: walks the
/// chain with volume shrinking by selectivity and charges rows_at[i] *
/// row_error_rate to op i's policy class. Error rates are small by
/// assumption, so the extra shrink from contained rows is ignored —
/// second-order for ranking purposes.
struct ContainmentVolumes {
  double skipped = 0.0;
  double quarantined = 0.0;
  double fail_fast = 0.0;  ///< errors at kFailFast ops: each aborts the run
};

ContainmentVolumes EstimateContainment(const PhysicalDesign& design,
                                       double input_rows,
                                       double row_error_rate) {
  ContainmentVolumes volumes;
  if (row_error_rate <= 0.0) return volumes;
  const std::vector<double> rows = RowsAtCuts(design.flow.ops(), input_rows);
  for (size_t i = 0; i < design.flow.num_ops(); ++i) {
    const double errors = rows[i] * row_error_rate;
    const ErrorPolicy policy = i < design.error_policies.size()
                                   ? design.error_policies[i]
                                   : ErrorPolicy::kFailFast;
    switch (policy) {
      case ErrorPolicy::kSkip:
        volumes.skipped += errors;
        break;
      case ErrorPolicy::kQuarantine:
        volumes.quarantined += errors;
        break;
      case ErrorPolicy::kFailFast:
        volumes.fail_fast += errors;
        break;
    }
  }
  return volumes;
}

/// Amdahl-style speedup of the parallel range, capped by the threads the
/// design can actually get. Solo runs get the design's full thread budget;
/// under a shared FlowService pool `available_threads` is the flow's share
/// of the machine, so concurrent flows degrade each other's speedup the
/// way shared core workers do.
double EffectiveSpeedup(const PhysicalDesign& design,
                        const CostModelParams& params,
                        size_t available_threads) {
  const double ways = static_cast<double>(std::min(
      design.parallel.partitions, std::max<size_t>(1, available_threads)));
  if (ways <= 1.0) return 1.0;
  return std::max(1.0, ways * params.parallel_efficiency);
}

/// Wall time of one streaming (pipelined) run. The dataflow drains
/// completely at pipeline BARRIERS — recovery-point cuts (the collect →
/// write → re-emit stage) and blocking operators (sort/group/delta buffer
/// everything before emitting) — which splits the op chain into sections.
/// Within a section, stages (extract, each transform chunk, load) run
/// concurrently, so the section costs the MAX of its stage times; sections,
/// RP writes, and the ordered merge serialize. On top ride the per-stage
/// spawn/fill startup and the per-row channel transfer overhead — the
/// prices streaming pays that phased execution does not.
///
/// The drain structure (CostChunks and channel borders) comes from the
/// lowered ExecutionPlan, so the model prices exactly the stage graph the
/// streaming scheduler spawns.
double StreamingTotalSeconds(const PhysicalDesign& design,
                             const ExecutionPlan& plan,
                             const CostModelParams& params,
                             const PhaseEstimate& est,
                             const std::vector<double>& op_seconds,
                             const std::vector<double>& rows_at_cut) {
  const size_t n = op_seconds.size();
  double total = 0.0;
  double wall = est.extract_s;  // extract overlaps the first section
  if (plan.drains_after_extract()) {  // RP at cut 0 drains extract by itself
    total += wall;
    wall = 0.0;
  }
  size_t stages = 2;  // extract + load/collect sink
  for (const ExecutionPlan::CostChunk& chunk : plan.cost_chunks()) {
    double stage_s = 0.0;
    for (size_t i = chunk.begin; i < chunk.end; ++i) stage_s += op_seconds[i];
    wall = std::max(wall, stage_s);
    ++stages;
    if (chunk.parallel) {
      stages += design.parallel.partitions + 1;  // partitioner + merge
    }
    if (chunk.drains_at_end) {  // section ends here
      if (chunk.end == n) wall = std::max(wall, est.load_s);
      total += wall;
      wall = 0.0;
    }
  }
  if (n == 0) total = std::max(est.extract_s, est.load_s);

  double channel_s = 0.0;  // each border is a channel edge rows cross
  for (const size_t b : plan.channel_borders()) {
    channel_s += rows_at_cut[b] * params.stream_channel_ns_per_row / 1e9;
  }
  double total_s = total + est.rp_s + est.merge_s + est.spill_s + channel_s +
                   static_cast<double>(stages) *
                       params.stream_stage_startup_us / 1e6;
  if (design.redundancy > 1) {
    total_s *= 1.0 + params.redundancy_contention *
                         static_cast<double>(design.redundancy - 1);
  }
  return total_s;
}

}  // namespace

ExecutionPlan CostModel::PlanFor(const PhysicalDesign& design) {
  PlanInput input;
  input.num_ops = design.flow.num_ops();
  input.blocking.reserve(input.num_ops);
  for (const LogicalOp& op : design.flow.ops()) {
    input.blocking.push_back(op.blocking);
  }
  input.parallel = design.parallel;
  input.parallel.partitions = std::max<size_t>(1, design.parallel.partitions);
  // Cuts beyond the chain would be rejected by the executor at run time;
  // for estimation we simply ignore them so lowering stays total.
  for (const size_t cut : design.recovery_points) {
    if (cut <= input.num_ops) input.recovery_points.push_back(cut);
  }
  input.redundancy = std::max<size_t>(1, design.redundancy);
  input.streaming = design.streaming;
  input.channel_capacity = design.channel_capacity;
  // Containment knobs ride along so plan dumps and exported metadata show
  // the policies the executors would enforce. Pathological values are
  // clamped (like out-of-range cuts above) to keep estimation total.
  input.error_policies = design.error_policies;
  if (input.error_policies.size() > input.num_ops) {
    input.error_policies.resize(input.num_ops);
  }
  input.error_budget = design.error_budget;
  input.error_budget.max_fraction =
      std::min(1.0, std::max(0.0, design.error_budget.max_fraction));
  return ExecutionPlan::Lower(input).ValueOr(ExecutionPlan());
}

PhaseEstimate CostModel::EstimatePhases(const PhysicalDesign& design,
                                        double input_rows) const {
  return EstimatePhases(design, input_rows, design.threads);
}

PhaseEstimate CostModel::EstimatePhases(const PhysicalDesign& design,
                                        double input_rows,
                                        size_t available_threads) const {
  const std::vector<LogicalOp>& ops = design.flow.ops();
  const std::vector<double> rows = RowsAtCuts(ops, input_rows);
  const ExecutionPlan plan = PlanFor(design);
  PhaseEstimate est;
  est.extract_s = input_rows * params_.extract_ns_per_row / 1e9;

  const bool parallel = design.parallel.partitions > 1;
  const size_t rb = parallel ? design.parallel.range_begin : 0;
  const size_t re =
      parallel ? std::min(design.parallel.range_end, ops.size()) : 0;
  const double speedup = EffectiveSpeedup(design, params_, available_threads);
  std::vector<double> op_seconds(ops.size(), 0.0);
  for (size_t i = 0; i < ops.size(); ++i) {
    double op_s = ops[i].cost_per_row * rows[i] *
                  params_.transform_ns_per_unit / 1e9;
    if (parallel && i >= rb && i < re) op_s /= speedup;
    op_seconds[i] = op_s;
    est.transform_s += op_s;
  }
  if (parallel && rb < re) {
    est.merge_s = (rows[rb] * params_.split_ns_per_row +
                   rows[re] * params_.merge_ns_per_row) /
                  1e9;
  }
  for (const size_t cut : plan.rp_cuts()) {
    est.rp_s += rows[cut] * params_.bytes_per_row * params_.rp_ns_per_byte /
                    1e9 +
                params_.rp_fixed_us / 1e6;
  }
  est.load_s = rows.back() * params_.load_ns_per_row / 1e9;
  // Optional quality features add per-row work on the loaded volume.
  if (design.provenance_columns) {
    est.transform_s += rows.back() * 0.4 * params_.transform_ns_per_unit / 1e9;
  }
  if (design.audit_rejects) {
    est.transform_s +=
        (rows.front() - rows.back()) * 0.5 * params_.transform_ns_per_unit /
        1e9;
  }
  // Containment handling cost on the expected error volume (zero with a
  // clean-input model, so the seed predictions are untouched).
  if (params_.row_error_rate > 0.0) {
    const ContainmentVolumes volumes =
        EstimateContainment(design, input_rows, params_.row_error_rate);
    est.transform_s += (volumes.skipped * params_.skip_ns_per_row +
                        volumes.quarantined * params_.quarantine_ns_per_row) /
                       1e9;
  }
  // Resource-pressure law: with a finite memory budget, every blocking
  // op whose working set overflows the budget writes the overflow to a
  // checksummed spill run and reads it back during merge/replay. The
  // working set is the buffered input for sort/delta and the group table
  // (post-selectivity volume) for group.
  if (design.memory_budget_bytes > 0) {
    const double budget = static_cast<double>(design.memory_budget_bytes);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].blocking) continue;
      const double ws = (ops[i].kind == "group" ? rows[i + 1] : rows[i]) *
                        params_.bytes_per_row;
      const double overflow = std::max(0.0, ws - budget);
      est.spill_s += overflow * 2.0 * params_.spill_ns_per_byte / 1e9;
    }
  }
  // Flow-journal durability: a journaled run appends a fixed set of
  // lifecycle records (load_base, attempt_start, budget, attempt_end,
  // flow_commit) plus one rp_commit per recovery cut; the sync policy
  // decides which of those appends pay an fsync.
  if (design.journaled) {
    const double rps = static_cast<double>(plan.rp_cuts().size());
    double synced = 0.0;
    switch (design.journal_sync) {
      case JournalSync::kAlways:
        synced = 5.0 + rps;
        break;
      case JournalSync::kCommit:
        synced = 3.0 + rps;  // commit-flagged records only
        break;
      case JournalSync::kNone:
        synced = 0.0;
        break;
    }
    est.journal_s = synced * params_.journal_sync_us / 1e6;
  }
  double body = est.extract_s + est.transform_s + est.merge_s + est.rp_s +
                est.spill_s + est.journal_s;
  if (design.redundancy > 1) {
    body *= 1.0 + params_.redundancy_contention *
                      static_cast<double>(design.redundancy - 1);
  }
  est.total_s = body + est.load_s;
  if (design.streaming) {
    est.total_s =
        StreamingTotalSeconds(design, plan, params_, est, op_seconds, rows) +
        est.journal_s;
  }
  return est;
}

double CostModel::AttemptSuccessProbability(double exec_s,
                                            double failure_rate_per_s) {
  if (failure_rate_per_s <= 0.0) return 1.0;
  return std::exp(-failure_rate_per_s * std::max(0.0, exec_s));
}

double CostModel::EstimateRecoverability(const PhysicalDesign& design,
                                         const PhaseEstimate& phases) const {
  // Build the timeline of durable points. Time 0 (restart from scratch) is
  // always durable; each recovery-point cut adds one at the moment its
  // rows are written.
  const std::vector<LogicalOp>& ops = design.flow.ops();
  const std::vector<double> rows = RowsAtCuts(ops, 1.0);  // relative volumes
  // Per-op absolute durations consistent with EstimatePhases' shares.
  double unit_sum = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    unit_sum += ops[i].cost_per_row * rows[i];
  }
  // The RP write happens AT the cut, so its time belongs to the segment
  // before the durable point, not to the post-last-RP tail. The durable
  // cuts come from the lowered plan (sorted, deduplicated, clamped to the
  // chain) — the same hard barriers the executors persist at.
  const ExecutionPlan plan = PlanFor(design);
  const auto has_rp_at = [&](size_t cut) { return plan.rp_at(cut); };
  // Spread the total rp_s over the cuts proportionally to their volume.
  double rp_volume_sum = 0.0;
  for (const size_t cut : plan.rp_cuts()) {
    rp_volume_sum += rows[cut] + 1e-9;
  }
  const auto rp_share_s = [&](size_t cut) {
    if (rp_volume_sum <= 0) return 0.0;
    return phases.rp_s * (rows[cut] + 1e-9) / rp_volume_sum;
  };

  std::vector<double> durable{0.0};
  double t = phases.extract_s;
  if (has_rp_at(0)) {
    t += rp_share_s(0);
    durable.push_back(t);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const double share =
        unit_sum > 0 ? ops[i].cost_per_row * rows[i] / unit_sum : 0.0;
    t += share * (phases.transform_s + phases.merge_s);
    if (has_rp_at(i + 1)) {
      t += rp_share_s(i + 1);
      durable.push_back(t);
    }
  }
  const double total = std::max(phases.total_s, t);
  durable.push_back(total);  // sentinel end
  // E[rework | failure] with failure time uniform over [0, total):
  // sum of len^2 / (2 * total) over inter-durable segments, plus the fixed
  // resume cost whenever the restart point is a real RP (not scratch).
  double expected = 0.0;
  for (size_t i = 0; i + 1 < durable.size(); ++i) {
    const double len = durable[i + 1] - durable[i];
    if (len <= 0) continue;
    expected += len * len / (2.0 * total);
    if (i > 0) {
      expected += (len / total) * params_.rp_resume_fixed_s;
    }
  }
  return expected;
}

double CostModel::EstimateQuarantineVolume(const PhysicalDesign& design,
                                           double input_rows) const {
  return EstimateContainment(design, input_rows, params_.row_error_rate)
      .quarantined;
}

double CostModel::EstimateBudgetAbortProbability(const PhysicalDesign& design,
                                                 double input_rows) const {
  if (design.error_budget.unlimited()) return 0.0;
  const ContainmentVolumes volumes =
      EstimateContainment(design, input_rows, params_.row_error_rate);
  const double expected = volumes.skipped + volumes.quarantined;
  if (expected <= 0.0) return 0.0;
  double ceiling =
      design.error_budget.max_rows == std::numeric_limits<size_t>::max()
          ? input_rows
          : static_cast<double>(design.error_budget.max_rows);
  ceiling = std::min(ceiling, design.error_budget.max_fraction * input_rows);
  // Contained count ~ Poisson(expected); the tail beyond the ceiling via a
  // normal approximation — smooth and ordinal, which is all ranking needs.
  const double sigma = std::sqrt(std::max(1.0, expected));
  const double tail =
      0.5 * std::erfc((ceiling - expected) / (sigma * std::sqrt(2.0)));
  return std::min(1.0, std::max(0.0, tail));
}

double CostModel::EstimateReliability(const PhysicalDesign& design,
                                      const PhaseEstimate& phases,
                                      const WorkloadParams& workload) const {
  // Data-quality survival. Row errors are data-determined: every retry and
  // every replica hits the identical rows, so neither recovery points nor
  // redundancy lifts this term — a fail-fast op on dirty input aborts
  // permanently (P[zero errors] = exp(-expected)), and a breached error
  // budget aborts permanently by construction (kErrorBudgetExceeded is not
  // transient). 1.0 under the default clean-input model.
  double dq_survival = 1.0;
  if (params_.row_error_rate > 0.0) {
    const ContainmentVolumes volumes = EstimateContainment(
        design, workload.rows_per_run, params_.row_error_rate);
    dq_survival =
        std::exp(-volumes.fail_fast) *
        (1.0 - EstimateBudgetAbortProbability(design, workload.rows_per_run));
  }
  // Resource survival: under kFailFlow a disk-pressure fault kills the run
  // outright (kResourceExhausted is not transient, so retries don't save
  // it); the degrading policies ride it out.
  if (workload.disk_fault_rate > 0.0 &&
      design.resource_policy == ResourcePolicy::kFailFlow) {
    dq_survival *= 1.0 - std::min(1.0, workload.disk_fault_rate);
  }
  const double p_fail =
      1.0 - AttemptSuccessProbability(phases.total_s,
                                      workload.failure_rate_per_s);
  if (design.redundancy > 1) {
    // Majority vote among k independent instances.
    const size_t k = design.redundancy;
    const size_t majority = k / 2 + 1;
    double success = 0.0;
    for (size_t j = majority; j <= k; ++j) {
      // C(k, j)
      double comb = 1.0;
      for (size_t x = 0; x < j; ++x) {
        comb *= static_cast<double>(k - x) / static_cast<double>(x + 1);
      }
      success += comb * std::pow(1.0 - p_fail, static_cast<double>(j)) *
                 std::pow(p_fail, static_cast<double>(k - j));
    }
    return std::min(1.0, success) * dq_survival;
  }
  // Retries within the time window: a retry costs the expected rework —
  // cheap with recovery points, a full rerun without — plus the retry
  // policy's mean backoff wait; with probability rp_corruption_prob the
  // newest recovery point fails verification and the retry degrades to a
  // from-scratch rerun. Designs whose retries are cheap fit more of them
  // into the window ("to leave time for potential recovery", Sec. 2.2),
  // but never more than the policy's attempt budget allows.
  const double rework = std::max(1e-6, EstimateRecoverability(design, phases));
  const double p_corrupt =
      design.recovery_points.empty() ? 0.0 : params_.rp_corruption_prob;
  const double retry_cost = (1.0 - p_corrupt) * rework +
                            p_corrupt * phases.total_s +
                            design.retry.MeanBackoffSeconds();
  const double slack = std::max(0.0, workload.time_window_s - phases.total_s);
  const double budget = static_cast<double>(
      std::max<size_t>(1, design.retry.max_attempts) - 1);
  const double retries_allowed = std::min(
      std::min(16.0, budget), std::floor(slack / std::max(1e-6, retry_cost)));
  return (1.0 - std::pow(p_fail, 1.0 + std::max(0.0, retries_allowed))) *
         dq_survival;
}

double CostModel::EstimateRestartCost(const PhysicalDesign& design,
                                      const PhaseEstimate& phases,
                                      const WorkloadParams& workload) const {
  if (workload.crash_rate_per_s <= 0.0) return 0.0;
  // Crashes arrive Poisson over the run: E[crashes] = rate * T (the rate
  // regime of interest is rate * T << 1, where this is also the crash
  // probability). Each crash pays the supervised-restart machinery plus
  // rework. A journaled design resumes from its durable prefix — the same
  // expected-rework integral as recoverability — while an unjournaled one
  // re-executes the whole run (its recovery points died with the process's
  // in-memory store registry).
  const double expected_crashes =
      workload.crash_rate_per_s * std::max(0.0, phases.total_s);
  const double rework = design.journaled
                            ? EstimateRecoverability(design, phases)
                            : phases.total_s;
  return expected_crashes * (params_.restart_fixed_s + rework);
}

double CostModel::EstimateResourceDelay(const PhysicalDesign& design,
                                        const PhaseEstimate& phases,
                                        const WorkloadParams& workload) const {
  const double p = std::min(1.0, std::max(0.0, workload.disk_fault_rate));
  if (p <= 0.0) return 0.0;
  switch (design.resource_policy) {
    case ResourcePolicy::kFailFlow:
      // The run dies; the reschedule pays the restart machinery plus the
      // rework back to the last durable cut (full rerun without RPs).
      return p * (params_.restart_fixed_s +
                  EstimateRecoverability(design, phases));
    case ResourcePolicy::kPauseRetry:
      // The run waits out the pressure and resumes from its durable
      // prefix: one mean backoff plus the same rework integral.
      return p * (design.retry.MeanBackoffSeconds() +
                  EstimateRecoverability(design, phases));
    case ResourcePolicy::kShedToQuarantine: {
      // The fault strikes uniformly during the load, so on average half
      // the output volume is re-encoded into the dead-letter ledger
      // instead of the warehouse.
      const std::vector<double> rows =
          RowsAtCuts(design.flow.ops(), workload.rows_per_run);
      return p * 0.5 * rows.back() * params_.quarantine_ns_per_row / 1e9;
    }
  }
  return 0.0;
}

double CostModel::EstimateFreshness(const PhysicalDesign& design,
                                    const WorkloadParams& workload) const {
  const double loads =
      std::max<double>(1.0, static_cast<double>(design.loads_per_day));
  const double daily_rows = workload.rows_per_run * workload.loads_per_day > 0
                                ? workload.rows_per_run * workload.loads_per_day
                                : workload.rows_per_run;
  const double batch_rows = daily_rows / loads;
  const double period_s = 86400.0 / loads;
  const PhaseEstimate batch = EstimatePhases(design, batch_rows);
  return period_s / 2.0 + batch.total_s;
}

double CostModel::EstimateCdcFreshness(const PhysicalDesign& design,
                                       const WorkloadParams& workload) const {
  if (design.cdc_shards == 0) return 0.0;
  const double rate = workload.cdc_update_rate_per_s > 0.0
                          ? workload.cdc_update_rate_per_s
                          : design.cdc_update_rate_per_s;
  if (rate <= 0.0) return 0.0;
  const double slice =
      std::max<double>(1.0, static_cast<double>(design.cdc_slice_events));
  // Batching delay: an event waits on average half a slice fill before the
  // coordinator even sees its slice.
  const double fill_s = slice / (2.0 * rate);
  // Shard-parallel work: each worker extracts and transforms only its key
  // share of the slice.
  double cost_units = 0.0;
  for (const LogicalOp& op : design.flow.ops()) cost_units += op.cost_per_row;
  const double work_s = slice *
                        (params_.extract_ns_per_row +
                         cost_units * params_.transform_ns_per_unit) /
                        1e9;
  const double eff_shards =
      std::max(1.0, static_cast<double>(design.cdc_shards) *
                        params_.parallel_efficiency);
  // Serial coordinator floor: the version merge and the warehouse append
  // happen on one process regardless of shard count.
  const double serial_s =
      slice * (params_.merge_ns_per_row + params_.load_ns_per_row) / 1e9;
  return fill_s + work_s / eff_shards + serial_s;
}

Result<double> CostModel::EstimateMaintainability(
    const PhysicalDesign& design) const {
  QOX_ASSIGN_OR_RETURN(const FlowGraph graph, design.flow.ToGraph());
  QOX_ASSIGN_OR_RETURN(const MaintainabilityMetrics metrics,
                       ComputeMaintainability(graph));
  double score = metrics.score;
  // Physical plumbing the maintainer must understand: partition/merge
  // wiring, redundant instances, recovery-point handling.
  if (design.parallel.partitions > 1) {
    score *= std::pow(0.95, std::log2(static_cast<double>(
                                design.parallel.partitions)));
  }
  if (design.redundancy > 1) {
    score *= std::pow(0.96, static_cast<double>(design.redundancy - 1));
  }
  score *= std::pow(0.99, static_cast<double>(design.recovery_points.size()));
  return score;
}

Result<QoxVector> CostModel::Predict(const PhysicalDesign& design,
                                     const WorkloadParams& workload) const {
  QoxVector v;
  // Multi-flow contention: under a shared FlowService pool the design only
  // gets its proportional share of the thread budget. concurrent_flows == 1
  // (the default) grants the full budget, keeping solo predictions
  // byte-identical to the seed model.
  const size_t available_threads =
      workload.concurrent_flows > 1.0
          ? std::max<size_t>(1, static_cast<size_t>(
                                    static_cast<double>(design.threads) /
                                    workload.concurrent_flows))
          : design.threads;
  const PhaseEstimate phases =
      EstimatePhases(design, workload.rows_per_run, available_threads);
  v.Set(QoxMetric::kPerformance, phases.total_s);
  v.Set(QoxMetric::kRecoverability, EstimateRecoverability(design, phases));
  const double reliability = EstimateReliability(design, phases, workload);
  v.Set(QoxMetric::kReliability, reliability);
  v.Set(QoxMetric::kFreshness, EstimateFreshness(design, workload));
  // Sharded CDC designs are fresh at slice granularity, not load-schedule
  // granularity — the CDC law replaces the periodic-batch one when it has
  // a stream rate to price against.
  if (design.cdc_shards > 0) {
    const double cdc_freshness = EstimateCdcFreshness(design, workload);
    if (cdc_freshness > 0.0) v.Set(QoxMetric::kFreshness, cdc_freshness);
  }
  QOX_ASSIGN_OR_RETURN(const double maintainability,
                       EstimateMaintainability(design));
  v.Set(QoxMetric::kMaintainability, maintainability);

  // Scalability: retention of per-row efficiency at 10x volume.
  const PhaseEstimate at_10x = EstimatePhases(
      design, workload.rows_per_run * 10.0, available_threads);
  const double scalability =
      at_10x.total_s > 0
          ? std::min(1.0, phases.total_s * 10.0 / at_10x.total_s)
          : 1.0;
  v.Set(QoxMetric::kScalability, scalability);

  // Availability: share of the time window not consumed by execution and
  // expected failure rework.
  const double p_fail = 1.0 - AttemptSuccessProbability(
                                  phases.total_s, workload.failure_rate_per_s);
  const double busy = phases.total_s +
                      p_fail * EstimateRecoverability(design, phases) +
                      EstimateResourceDelay(design, phases, workload);
  v.Set(QoxMetric::kAvailability,
        std::max(0.0, std::min(1.0, 1.0 - busy /
                                         std::max(1e-9,
                                                  workload.time_window_s))));

  // Cost: machine-seconds across threads and redundant instances, plus
  // recovery-point storage (relative units).
  const double machine_seconds = phases.total_s *
                                 static_cast<double>(design.threads) *
                                 static_cast<double>(design.redundancy);
  double rp_rows = 0.0;
  {
    double rows = workload.rows_per_run;
    std::vector<double> at_cut{rows};
    for (const LogicalOp& op : design.flow.ops()) {
      rows *= op.selectivity;
      at_cut.push_back(rows);
    }
    const ExecutionPlan plan = PlanFor(design);
    for (const size_t cut : plan.rp_cuts()) {
      rp_rows += at_cut[cut];
    }
  }
  const double storage_cost = rp_rows * params_.bytes_per_row / 1e8;
  v.Set(QoxMetric::kCost, machine_seconds + storage_cost);

  // Robustness: structural — presence of data-quality handling. Row-level
  // containment absorbs anomalies the quality operators don't (a malformed
  // value no filter anticipated skips or quarantines instead of aborting),
  // and quarantining beats skipping because the rows remain recoverable.
  size_t quality_ops = 0;
  for (const LogicalOp& op : design.flow.ops()) {
    if (op.kind == "filter" || op.kind == "lookup") ++quality_ops;
  }
  double robustness =
      0.3 + 0.7 * std::min<double>(1.0,
                                   static_cast<double>(quality_ops) / 2.0);
  bool any_skip = false;
  bool any_quarantine = false;
  for (const ErrorPolicy policy : design.error_policies) {
    any_skip |= policy == ErrorPolicy::kSkip;
    any_quarantine |= policy == ErrorPolicy::kQuarantine;
  }
  if (any_quarantine) {
    robustness = std::min(1.0, robustness + 0.2);
  } else if (any_skip) {
    robustness = std::min(1.0, robustness + 0.1);
  }
  v.Set(QoxMetric::kRobustness, robustness);

  v.Set(QoxMetric::kTraceability, design.provenance_columns ? 0.9 : 0.2);
  v.Set(QoxMetric::kAuditability,
        (design.audit_rejects ? 0.8 : 0.3) +
            (design.recovery_points.empty() ? 0.0 : 0.1));
  // Consistency: the engine guarantees exactly-once replay from RPs; the
  // residual risk is an unrecovered failure mid-run.
  v.Set(QoxMetric::kConsistency, std::min(1.0, 0.5 + 0.5 * reliability));
  v.Set(QoxMetric::kFlexibility, std::sqrt(std::max(0.0, maintainability)));
  // Crash-recovery term: exactly 0 for crash-free engagements
  // (crash_rate_per_s == 0), so rankings there are unchanged.
  v.Set(QoxMetric::kRestartOverhead,
        EstimateRestartCost(design, phases, workload));
  return v;
}

CostModelParams CostModel::Calibrate(const CostModelParams& base,
                                     const RunMetrics& measured,
                                     const LogicalFlow& flow,
                                     double input_rows) {
  CostModelParams params = base;
  if (measured.rows_extracted > 0 && measured.extract_micros > 0) {
    params.extract_ns_per_row =
        static_cast<double>(measured.extract_micros) * 1000.0 /
        static_cast<double>(measured.rows_extracted);
  }
  // Transform rate: measured transform time over the chain's abstract work
  // (cost_per_row * rows_in summed over ops, using measured per-op rows
  // when available).
  double work_units = 0.0;
  for (const LogicalOp& op : flow.ops()) {
    double rows_in = 0.0;
    for (const OpStats& stats : measured.op_stats) {
      if (stats.name == op.name) {
        rows_in = static_cast<double>(stats.rows_in);
        break;
      }
    }
    if (rows_in == 0.0) rows_in = input_rows;  // fallback
    work_units += op.cost_per_row * rows_in;
  }
  if (work_units > 0 && measured.transform_micros > 0) {
    params.transform_ns_per_unit =
        static_cast<double>(measured.transform_micros) * 1000.0 / work_units;
  }
  if (measured.rows_loaded > 0 && measured.load_micros > 0) {
    params.load_ns_per_row = static_cast<double>(measured.load_micros) *
                             1000.0 /
                             static_cast<double>(measured.rows_loaded);
  }
  if (measured.rp_bytes_written > 0 && measured.rp_write_micros > 0) {
    params.rp_ns_per_byte = static_cast<double>(measured.rp_write_micros) *
                            1000.0 /
                            static_cast<double>(measured.rp_bytes_written);
  }
  return params;
}

}  // namespace qox
