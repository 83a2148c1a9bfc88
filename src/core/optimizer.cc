#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/rewrites.h"

namespace qox {

std::string OptimizationResult::Summary() const {
  std::ostringstream oss;
  oss << "explored=" << designs_explored
      << " pruned=" << designs_pruned_by_softgoals
      << " pareto=" << pareto_front.size() << "\nbest: "
      << best.design.Describe() << "\n  " << best.predicted.ToString()
      << "\n  " << best.evaluation.ToString();
  return oss.str();
}

Result<std::map<std::string, GoalLabel>> QoxOptimizer::SoftGoalLabels(
    const PhysicalDesign& design) {
  const SoftGoalGraph graph = BuildFigure2Graph();
  // Adopted decisions are satisfied leaves; decisions the design does not
  // adopt are UNDETERMINED (not denied): not partitioning a flow does not
  // actively work against any goal, it merely contributes nothing.
  std::map<std::string, GoalLabel> leaves;
  const bool parallel = design.parallel.partitions > 1;
  leaves[Figure2Leaves::kParallelism] =
      parallel ? GoalLabel::kSatisfied : GoalLabel::kUndetermined;
  leaves[Figure2Leaves::kPartitioning] =
      parallel ? GoalLabel::kSatisfied : GoalLabel::kUndetermined;
  leaves[Figure2Leaves::kRecoveryPoints] = design.recovery_points.empty()
                                               ? GoalLabel::kUndetermined
                                               : GoalLabel::kSatisfied;
  leaves[Figure2Leaves::kRedundancy] = design.redundancy > 1
                                           ? GoalLabel::kSatisfied
                                           : GoalLabel::kUndetermined;
  // Designs produced by this library always come with generated
  // documentation (plan dumps, graphs), so the documentation leaf is
  // weakly satisfied by construction.
  leaves[Figure2Leaves::kDocumentation] = GoalLabel::kWeaklySatisfied;
  return graph.Propagate(leaves);
}

namespace {

/// Maps a constrained QoX metric to the Fig. 2 soft-goal that expresses
/// it (empty when the graph has no goal for the metric).
std::string GoalForMetric(QoxMetric metric) {
  switch (metric) {
    case QoxMetric::kReliability:
      return "reliability[process]";
    case QoxMetric::kPerformance:
      return "performance[flow]";
    case QoxMetric::kFreshness:
      return "freshness[data]";
    case QoxMetric::kMaintainability:
      return "maintainability[flow]";
    default:
      return "";
  }
}

/// True when `a` dominates `b` over the objective's preferred metrics
/// (at least as good everywhere, strictly better somewhere).
bool Dominates(const QoxVector& a, const QoxVector& b,
               const std::vector<QoxPreference>& prefs) {
  bool strictly_better = false;
  for (const QoxPreference& p : prefs) {
    const double av = a.GetOr(p.metric, HigherIsBetter(p.metric) ? 0.0 : 1e18);
    const double bv = b.GetOr(p.metric, HigherIsBetter(p.metric) ? 0.0 : 1e18);
    const bool a_better = HigherIsBetter(p.metric) ? av > bv : av < bv;
    const bool a_worse = HigherIsBetter(p.metric) ? av < bv : av > bv;
    if (a_worse) return false;
    if (a_better) strictly_better = true;
  }
  return strictly_better;
}

/// The op range `extent` partitions on `flow` once lowered.
std::pair<size_t, size_t> LoweredRange(const LogicalFlow& flow,
                                       const ParallelSpec& extent) {
  PhysicalDesign design;
  design.flow = flow;
  design.parallel = extent;
  const ExecutionPlan plan = CostModel::PlanFor(design);
  return {plan.parallel_begin(), plan.parallel_end()};
}

}  // namespace

std::vector<std::vector<size_t>> QoxOptimizer::RecoveryPointChoices(
    const LogicalFlow& flow) const {
  std::vector<std::vector<size_t>> choices = {{}};
  if (!options_.explore_recovery_points) return choices;
  // Heuristic candidate cuts (Sec. 3.2): after extraction (cut 0), after
  // the most expensive operator, after the last blocking operator, before
  // the load (cut n).
  std::vector<size_t> candidates;
  const auto add = [&candidates](size_t cut) {
    if (std::find(candidates.begin(), candidates.end(), cut) ==
        candidates.end()) {
      candidates.push_back(cut);
    }
  };
  add(0);
  const std::vector<LogicalOp>& ops = flow.ops();
  if (!ops.empty()) {
    size_t most_expensive = 0;
    double best_cost = -1.0;
    double rows = 1.0;
    for (size_t i = 0; i < ops.size(); ++i) {
      const double cost = ops[i].cost_per_row * rows;
      if (cost > best_cost) {
        best_cost = cost;
        most_expensive = i;
      }
      rows *= ops[i].selectivity;
    }
    add(most_expensive + 1);
    for (size_t i = ops.size(); i > 0; --i) {
      if (ops[i - 1].blocking) {
        add(i);
        break;
      }
    }
    add(ops.size());
  }
  std::sort(candidates.begin(), candidates.end());
  // Subsets of the candidates up to max_recovery_points, smallest first.
  const size_t n = candidates.size();
  for (size_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<size_t> subset;
    for (size_t bit = 0; bit < n; ++bit) {
      if (mask & (1u << bit)) subset.push_back(candidates[bit]);
    }
    if (subset.size() <= options_.max_recovery_points) {
      choices.push_back(std::move(subset));
    }
  }
  return choices;
}

Result<OptimizationResult> QoxOptimizer::Optimize(
    const LogicalFlow& flow, const QoxObjective& objective,
    const WorkloadParams& workload) const {
  QOX_RETURN_IF_ERROR(flow.BindSchemas().status());

  // 1. Orderings: original plus greedily reordered.
  std::vector<LogicalFlow> orderings = {flow};
  if (options_.explore_orderings) {
    QOX_ASSIGN_OR_RETURN(const ReorderResult reordered,
                         GreedyReorder(flow, workload.rows_per_run));
    if (reordered.swaps_applied > 0) orderings.push_back(reordered.flow);
  }

  // 2. Load schedules.
  std::vector<size_t> loads = options_.loads_per_day_choices;
  if (loads.empty()) loads = {options_.loads_per_day};

  OptimizationResult result;
  bool have_best = false;
  std::vector<DesignCandidate> front;

  for (const LogicalFlow& ordering : orderings) {
    const std::pair<size_t, size_t> segment = ordering.PipelineableRange();
    const std::vector<std::vector<size_t>> rp_choices =
        RecoveryPointChoices(ordering);
    for (const size_t partitions : options_.partition_choices) {
      // Parallel extents: none, whole chain, pipelineable segment. The
      // segment is a design of its own only when it lowers to another
      // range than the whole chain does.
      std::vector<ParallelSpec> extents;
      if (partitions <= 1) {
        extents.push_back(ParallelSpec{});
      } else {
        ParallelSpec whole;
        whole.partitions = partitions;
        extents.push_back(whole);
        ParallelSpec part = whole;
        part.range_begin = segment.first;
        part.range_end = segment.second;
        if (segment.second > segment.first &&
            LoweredRange(ordering, part) != LoweredRange(ordering, whole)) {
          extents.push_back(part);
        }
      }
      for (const ParallelSpec& extent : extents) {
        for (const size_t redundancy : options_.redundancy_choices) {
          for (const std::vector<size_t>& rps : rp_choices) {
            // Redundancy replaces recovery (Sec. 3.3): skip combinations
            // carrying both mechanisms.
            if (redundancy > 1 && !rps.empty()) continue;
            for (const size_t load_freq : loads) {
              PhysicalDesign design;
              design.flow = ordering;
              design.threads = options_.threads;
              design.parallel = extent;
              design.recovery_points = rps;
              design.redundancy = redundancy;
              design.loads_per_day = load_freq;
              ++result.designs_explored;

              if (options_.softgoal_pruning) {
                QOX_ASSIGN_OR_RETURN(const auto labels,
                                     SoftGoalLabels(design));
                bool pruned = false;
                for (const QoxConstraint& c : objective.constraints()) {
                  if (c.kind != QoxConstraint::Kind::kAtLeast) continue;
                  const std::string goal = GoalForMetric(c.metric);
                  if (goal.empty()) continue;
                  const auto it = labels.find(goal);
                  if (it != labels.end() && it->second == GoalLabel::kDenied) {
                    pruned = true;
                    break;
                  }
                }
                if (pruned) {
                  ++result.designs_pruned_by_softgoals;
                  continue;
                }
              }

              QOX_ASSIGN_OR_RETURN(const QoxVector predicted,
                                   cost_model_.Predict(design, workload));
              DesignCandidate candidate;
              candidate.design = design;
              candidate.predicted = predicted;
              candidate.evaluation = objective.Evaluate(predicted);

              // Track best: feasibility first, then score.
              const bool better =
                  !have_best ||
                  (candidate.evaluation.feasible &&
                   !result.best.evaluation.feasible) ||
                  (candidate.evaluation.feasible ==
                       result.best.evaluation.feasible &&
                   candidate.evaluation.score > result.best.evaluation.score);
              if (better) {
                result.best = candidate;
                have_best = true;
              }

              // Maintain the Pareto front over preferred metrics.
              bool dominated = false;
              for (const DesignCandidate& existing : front) {
                if (Dominates(existing.predicted, candidate.predicted,
                              objective.preferences())) {
                  dominated = true;
                  break;
                }
              }
              if (!dominated) {
                front.erase(
                    std::remove_if(front.begin(), front.end(),
                                   [&](const DesignCandidate& existing) {
                                     return Dominates(candidate.predicted,
                                                      existing.predicted,
                                                      objective.preferences());
                                   }),
                    front.end());
                front.push_back(candidate);
              }
            }
          }
        }
      }
    }
  }
  if (!have_best) {
    return Status::Internal("optimizer explored no designs");
  }
  result.pareto_front = std::move(front);
  QOX_ASSIGN_OR_RETURN(result.softgoal_labels,
                       SoftGoalLabels(result.best.design));
  return result;
}

}  // namespace qox
