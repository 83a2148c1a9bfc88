// Pipeline: a bound, executable chain of operators.
//
// A pipeline owns its operator instances, binds their schemas at creation,
// and cascades batches through them on Push. Each maximal run of per-row
// (non-blocking) ops runs as FromRowBatch -> PushColumnar... -> ToRowBatch
// on one ColumnBatch; blocking ops (sort, group, delta) take row batches
// through Push. Finish flushes blocking operators in order, cascading each
// flush through the downstream operators. Output rows accumulate in the
// pipeline (the executor decides where they go next: the next segment, a
// recovery point, a merge, or the warehouse load).
//
// The pipeline is also where failure injection, cancellation and row
// containment are observed: before each operator invocation it reports
// progress to the FailureInjector and checks the cooperative cancel flag;
// rows a kernel reports as contained are counted, quarantined and charged
// to the error budget here. While poison is armed every per-row op runs as
// a one-op run, so the poison screen sees each op's input rows.

#ifndef QOX_ENGINE_PIPELINE_H_
#define QOX_ENGINE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/error_policy.h"
#include "engine/failure.h"
#include "engine/operator.h"

namespace qox {

/// Execution identity of a pipeline (which redundant instance, which
/// attempt, where its ops sit in the global transform chain).
struct PipelineConfig {
  int instance_id = 0;
  int attempt = 1;
  /// Global index of this pipeline's first operator within the flow's
  /// transform chain (failure specs address global indices).
  int op_index_offset = 0;
  FailureInjector* injector = nullptr;
  /// Expected number of input rows (denominator for failure fractions).
  size_t expected_input_rows = 0;
  /// Watchdog: absolute NowMicros() deadline of the enclosing attempt; the
  /// pipeline aborts with kDeadlineExceeded once past it. 0 = unbounded.
  int64_t deadline_micros = 0;
  /// Row-level containment policies, indexed by GLOBAL transform-op index
  /// (op_index_offset + ordinal). Null, or shorter than the chain, means
  /// kFailFast for the uncovered ops — the seed behaviour.
  const std::vector<ErrorPolicy>* error_policies = nullptr;
  /// Shared per-attempt budget accounting; charged for every contained
  /// row. May be null (containment then proceeds unbounded).
  ErrorBudgetState* error_budget = nullptr;
  /// Receives rows contained under kQuarantine (must be thread-safe). May
  /// be null: quarantined rows are then dropped like kSkip but still
  /// counted as quarantined.
  QuarantineSink quarantine_sink;
};

class Pipeline {
 public:
  /// Binds `ops` against `input_schema`. Fails when any operator rejects
  /// its input schema. Opens every operator with `ctx` (which must outlive
  /// the pipeline).
  static Result<std::unique_ptr<Pipeline>> Create(
      const Schema& input_schema, std::vector<OperatorPtr> ops,
      OperatorContext* ctx, const PipelineConfig& config);

  /// Schema of rows this pipeline emits.
  const Schema& output_schema() const { return schemas_.back(); }

  /// Pushes one input batch through the whole chain.
  Status Push(RowBatch batch);

  /// Flushes blocking operators. Must be called exactly once, last.
  Status Finish();

  /// Rows emitted so far (all of them after Finish). Destructive read.
  std::vector<Row> TakeOutput();

  /// Per-operator statistics (timings, row counts).
  const std::vector<OpStats>& op_stats() const { return op_stats_; }

 private:
  Pipeline(std::vector<OperatorPtr> ops, std::vector<Schema> schemas,
           OperatorContext* ctx, const PipelineConfig& config);

  /// Pushes `batch` through ops [from, n), appending final rows to output_.
  Status PushFrom(size_t from, RowBatch batch);

  /// Runs ops [begin, end) — per-row ops — on the column batch in place,
  /// re-pointing its schema after each op.
  Status RunKernels(size_t begin, size_t end, ColumnBatch* batch);

  /// Screens the rows entering op `op_ordinal` against armed poison:
  /// poisoned rows are contained (or, under kFailFast, fail the push).
  Status ScreenPoison(size_t op_ordinal, RowBatch* batch);

  Status CheckInterrupts(size_t op_ordinal, size_t rows_about_to_enter);

  /// Containment policy of op `op_ordinal` (local index; policies are
  /// looked up at the global index).
  ErrorPolicy PolicyFor(size_t op_ordinal) const;

  /// Contains one failing row per the op's policy: counts it, routes it to
  /// the quarantine sink (kQuarantine), and charges the error budget.
  /// Returns non-OK when the budget is exhausted or the sink fails.
  Status Contain(size_t op_ordinal, const Row& row, const Status& cause);

  std::vector<OperatorPtr> ops_;
  /// schemas_[i] = input schema of op i; schemas_[n] = output schema.
  std::vector<Schema> schemas_;
  /// Shared handles onto schemas_, built once so per-batch construction on
  /// the hot path never copies a Schema.
  std::vector<SchemaPtr> schema_ptrs_;
  OperatorContext* ctx_;
  PipelineConfig config_;
  std::vector<OpStats> op_stats_;
  std::vector<size_t> rows_entered_;  // per-op cumulative input rows
  std::vector<Row> output_;
};

}  // namespace qox

#endif  // QOX_ENGINE_PIPELINE_H_
