// Layered design models (Fig. 1 of the paper): conceptual, logical, and
// physical representations of an ETL flow, annotated with QoX metadata.
//
// * The CONCEPTUAL model names coarse business operations with QoX
//   annotations ("this join needs high freshness").
// * The LOGICAL model is an ordered chain of LogicalOps: each carries the
//   structural metadata the optimizer needs (columns read/created/dropped,
//   blocking/per-row class, cost and selectivity estimates) plus the
//   factory producing the executable engine operator.
// * The PHYSICAL design adds execution choices: partitioning (degree,
//   scheme, extent), recovery-point placement, n-modular redundancy, CPU
//   budget, and load scheduling. A PhysicalDesign converts directly to an
//   engine ExecutionConfig.
//
// Translations between levels live in translate.h; rewrites over logical
// flows in rewrites.h; prediction over physical designs in cost_model.h.

#ifndef QOX_CORE_DESIGN_H_
#define QOX_CORE_DESIGN_H_

#include <map>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "engine/executor.h"
#include "engine/ops/delta_op.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/group_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "engine/ops/surrogate_key_op.h"
#include "graph/flow_graph.h"

namespace qox {

// ---------------------------------------------------------------------------
// Conceptual level.
// ---------------------------------------------------------------------------

/// A coarse business-level operation with QoX annotations. The annotation
/// value is the required level in the metric's canonical encoding (e.g.
/// {kFreshness: 60} = "data through this operation must reach the
/// warehouse within a minute").
struct ConceptualOperator {
  std::string name;
  /// Business kind: "extract", "detect_changes", "cleanse", "conform",
  /// "assign_keys", "aggregate", "load".
  std::string kind;
  std::map<QoxMetric, double> annotations;
};

struct ConceptualFlow {
  std::string id;
  std::vector<std::string> sources;
  std::string target;
  std::vector<ConceptualOperator> operators;
  /// Flow-level QoX annotations (apply to the whole flow).
  std::map<QoxMetric, double> annotations;
};

// ---------------------------------------------------------------------------
// Logical level.
// ---------------------------------------------------------------------------

/// Semantic class of a logical operator, driving rewrite legality:
/// per-row operators commute (subject to column dependencies), order-only
/// operators (sort) commute with per-row ones, multiset operators (group,
/// delta) act as rewrite barriers.
enum class OpClass {
  kPerRow,
  kOrderOnly,
  kMultiset,
};

/// One operator of a logical flow: structural metadata + executable factory.
struct LogicalOp {
  std::string name;
  std::string kind;  ///< engine kind: "filter", "lookup", ...
  OpClass op_class = OpClass::kPerRow;
  bool blocking = false;
  double cost_per_row = 1.0;
  double selectivity = 1.0;
  std::vector<std::string> reads;
  std::vector<std::string> creates;
  std::vector<std::string> drops;
  OperatorFactory factory;
};

/// Builders wrapping each engine operator into a LogicalOp with correct
/// metadata. These are the vocabulary the sales workflow and tests use.
LogicalOp MakeFilter(std::string name, std::vector<Predicate> conjuncts,
                     double estimated_selectivity = 0.9);
LogicalOp MakeFunction(std::string name,
                       std::vector<ColumnTransform> transforms);
LogicalOp MakeLookup(std::string name, DataStorePtr dimension,
                     std::string input_key, std::string dim_key,
                     std::vector<std::string> append_columns,
                     LookupMissPolicy miss_policy = LookupMissPolicy::kReject,
                     double estimated_hit_rate = 0.98);
LogicalOp MakeSurrogateKey(std::string name, SurrogateKeyRegistryPtr registry,
                           std::string natural_column,
                           std::string surrogate_column,
                           bool drop_natural = true);
/// `estimated_selectivity` is the planner's expected change rate of a
/// landing (1.0 for initial/full loads, lower for steady-state deltas).
LogicalOp MakeDelta(std::string name, SnapshotStorePtr snapshot,
                    std::string change_type_column = "",
                    double estimated_selectivity = 0.6);
LogicalOp MakeSort(std::string name, std::vector<SortKey> keys);
LogicalOp MakeGroup(std::string name, std::vector<std::string> group_columns,
                    std::vector<Aggregate> aggregates);

/// An ordered logical flow over concrete stores.
class LogicalFlow {
 public:
  LogicalFlow() = default;
  LogicalFlow(std::string id, DataStorePtr source, std::vector<LogicalOp> ops,
              DataStorePtr target)
      : id_(std::move(id)),
        source_(std::move(source)),
        ops_(std::move(ops)),
        target_(std::move(target)) {}

  const std::string& id() const { return id_; }
  const DataStorePtr& source() const { return source_; }
  const DataStorePtr& target() const { return target_; }
  const std::vector<LogicalOp>& ops() const { return ops_; }
  std::vector<LogicalOp>& mutable_ops() { return ops_; }
  size_t num_ops() const { return ops_.size(); }

  void set_post_success(std::function<Status()> hook) {
    post_success_ = std::move(hook);
  }
  const std::function<Status()>& post_success() const { return post_success_; }

  /// Converts to the engine's executable FlowSpec.
  FlowSpec ToFlowSpec() const;

  /// Binds the chain and returns the schema at every cut (0..n). Catches
  /// mis-wired flows and illegal rewrites.
  Result<std::vector<Schema>> BindSchemas() const;

  /// Workflow graph (source -> ops -> target) for maintainability metrics.
  Result<FlowGraph> ToGraph() const;

  /// Index range [begin, end) of the longest run of per-row operators —
  /// the natural "parallelize parts of the flow" segment.
  std::pair<size_t, size_t> PipelineableRange() const;

  /// "src -> op1 -> op2 -> ... -> tgt" for logs and reports.
  std::string Describe() const;

 private:
  std::string id_;
  DataStorePtr source_;
  std::vector<LogicalOp> ops_;
  DataStorePtr target_;
  std::function<Status()> post_success_;
};

/// Binds a chain of logical ops against an input schema (without a target
/// check). Returns schemas at every cut.
Result<std::vector<Schema>> BindLogicalChain(const Schema& input,
                                             const std::vector<LogicalOp>& ops);

// ---------------------------------------------------------------------------
// Physical level.
// ---------------------------------------------------------------------------

/// A fully specified executable design: logical flow + physical choices.
struct PhysicalDesign {
  LogicalFlow flow;
  size_t threads = 1;
  ParallelSpec parallel;
  std::vector<size_t> recovery_points;
  size_t redundancy = 1;
  /// Retry behavior on transient failures (attempt budget, backoff,
  /// per-attempt deadline) — a design knob like RP placement: more
  /// attempts and longer backoff trade time-window slack for reliability.
  RetryPolicy retry;
  /// Load scheduling: executions per day (drives freshness).
  size_t loads_per_day = 24;
  /// Optional quality features (affect traceability/auditability scores
  /// and add per-row cost when enabled).
  bool provenance_columns = false;
  bool audit_rejects = false;
  /// Streaming (pipelined) execution: stages overlap across bounded
  /// channels instead of running phase-by-phase. Changes the performance
  /// law (overlapped max-of-stages instead of sum, see cost_model.h) and
  /// maps to ExecutionConfig::streaming.
  bool streaming = false;
  /// Row-level containment policy per op (by index; empty or short =
  /// kFailFast, the seed behaviour). Maps to ExecutionConfig::error_policies
  /// and is priced by the cost model's data-quality term.
  std::vector<ErrorPolicy> error_policies;
  /// Flow-level ceiling on contained rows (kErrorBudgetExceeded beyond it).
  ErrorBudget error_budget;
  /// Crash safety: journal the flow's lifecycle (attempts, RP commits,
  /// budget, commit) to a durable FlowJournal so a supervised restart
  /// resumes from the durable prefix instead of from scratch. The journal
  /// itself is runtime state (ExecutionConfig::journal, opened by the
  /// supervisor or caller); this knob is the design-level intent the cost
  /// model prices: restart rework drops to the recoverability integral,
  /// and every fsync'd append adds journal_sync latency.
  bool journaled = false;
  /// Which journal appends pay an fsync (ignored unless journaled).
  JournalSync journal_sync = JournalSync::kAlways;
  /// Memory budget for blocking-operator state, bytes. 0 = unlimited (the
  /// seed behaviour). A finite budget makes sort/group/lookup spill to
  /// checksummed disk runs once their working set exceeds it; the cost
  /// model prices the extra spill I/O (see cost_model.h).
  size_t memory_budget_bytes = 0;
  /// How the flow degrades when a resource is exhausted (spill disk full,
  /// target ENOSPC): fail fast, pause-and-retry with backoff, or shed the
  /// unloadable remainder to the dead-letter ledger.
  ResourcePolicy resource_policy = ResourcePolicy::kFailFlow;
  /// Read by nothing: per-row transforms always run their columnar kernels,
  /// so the design carries no kernel choice (no config tag, no plan XML
  /// attribute, no cost-model term). The field stays only because the
  /// repository benchmark (perfbench/harness) still assigns it.
  bool columnar = false;
  /// Freshness SLA expressed as an execution deadline, seconds (0 = none,
  /// the seed behaviour). Maps to ExecutionConfig::sla.deadline_micros: a
  /// solo run stamps the absolute deadline at start; the FlowService
  /// stamps it at admission, orders flows EDF against it, and can reject
  /// the design outright when its cost-model prediction makes the SLA
  /// infeasible under current load.
  double sla_deadline_s = 0.0;
  /// Sharded CDC ingestion (engine/cdc_coordinator.h): key-partition a
  /// continuous update stream across this many supervised shard workers,
  /// merging into one warehouse in slices of cdc_slice_events. 0 = not a
  /// CDC design (the seed behaviour; the other cdc_* knobs are ignored).
  /// Priced by the cost model's CDC freshness law (EstimateCdcFreshness).
  size_t cdc_shards = 0;
  /// Events per coordinator apply slice (the CDC micro-batch size; the
  /// batching-delay half of the freshness law).
  size_t cdc_slice_events = 64;
  /// Expected stream update rate, events/second, the design is sized for.
  /// A workload that sets its own rate overrides this.
  double cdc_update_rate_per_s = 0.0;

  /// Converts to the engine ExecutionConfig (runtime resources supplied by
  /// the caller).
  ExecutionConfig ToExecutionConfig(RecoveryPointStorePtr rp_store,
                                    FailureInjector* injector) const;

  /// Short configuration tag ("4PF-p", "TMR", "RP+", ...) mirroring the
  /// paper's figure legends.
  std::string ConfigTag() const;

  std::string Describe() const;
};

}  // namespace qox

#endif  // QOX_CORE_DESIGN_H_
