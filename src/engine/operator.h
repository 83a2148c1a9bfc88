// Operator: the unit of transformation in a flow.
//
// Operators are push-based and vectorized, with one kernel each. Per-row
// (non-blocking) operators — filter, function, lookup, surrogate key —
// implement PushColumnar only: the pipeline runs each maximal run of them
// on one ColumnBatch. Blocking operators (sort, group, delta) implement
// Push only: they take row batches by value — the caller moves each batch
// in and the op consumes it, moving the rows it keeps into its own buffer
// — and append produced rows to the output batch; Finish() flushes the
// state they buffer. Bind() performs schema inference/validation before
// any data flows, so mis-wired flows fail at plan time.
//
// Operators are single-use: partitioned and redundant execution construct a
// fresh clone per branch via OperatorFactory.

#ifndef QOX_ENGINE_OPERATOR_H_
#define QOX_ENGINE_OPERATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/column_batch.h"
#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "engine/memory_budget.h"
#include "engine/run_metrics.h"
#include "storage/snapshot_store.h"
#include "storage/spill_manager.h"

namespace qox {

/// Shared per-execution context handed to operators at Open().
struct OperatorContext {
  /// Cooperative cancellation flag (set when a redundant sibling already
  /// produced the accepted result). May be null.
  std::atomic<bool>* cancelled = nullptr;

  /// Sink for rows rejected by quality operators (NULL filters, failed
  /// lookups). May be null, in which case rejects are counted but dropped.
  std::function<Status(const Row&)> reject_sink;

  /// Rejected-row counter (always maintained).
  std::atomic<size_t>* rejected_rows = nullptr;

  /// Shared-dimension-cache accounting (engine/dimension_cache.h): lookup
  /// builds performed by this flow vs. builds another flow already paid
  /// for. May be null.
  std::atomic<size_t>* dim_cache_builds = nullptr;
  std::atomic<size_t>* dim_cache_hits = nullptr;

  /// Kernel-run accounting: batches that entered a run of per-row ops and
  /// the live rows they carried. May be null.
  std::atomic<size_t>* columnar_batches = nullptr;
  std::atomic<size_t>* columnar_rows = nullptr;

  /// Flow-level byte accountant. Blocking operators (sort, group, the
  /// lookup build side) charge their buffered working set here and spill
  /// when a reservation is refused. May be null (unbudgeted — the seed
  /// behaviour: buffer everything in RAM).
  MemoryBudget* memory_budget = nullptr;

  /// Where refused working sets spill. Null when memory_budget is null;
  /// when a budget is set the executor always provides a manager.
  SpillManager* spill = nullptr;

  /// Receives the landing a Δ compared, with the partition of the branch
  /// that ran it, for the commit into its snapshot once the run's load
  /// succeeds (engine/executor.cc). Null: the landing is dropped.
  std::function<void(const SnapshotStorePtr& store, size_t partition,
                     Landing landing)>
      stage_landing;

  /// Inside a partitioned range: the branch's partition, which keys the
  /// part of the landing a Δ stages. Elsewhere 0.
  size_t partition = 0;

  /// True when the operator should enforce the byte budget (both pieces
  /// wired and a finite limit configured).
  bool BudgetEnforced() const {
    return memory_budget != nullptr && !memory_budget->unlimited() &&
           spill != nullptr;
  }

  bool IsCancelled() const {
    return cancelled != nullptr && cancelled->load(std::memory_order_relaxed);
  }

  Status Reject(const Row& row) {
    if (rejected_rows != nullptr) {
      rejected_rows->fetch_add(1, std::memory_order_relaxed);
    }
    if (reject_sink) return reject_sink(row);
    return Status::OK();
  }
};

/// Per-call context of a columnar push (see Operator::PushColumnar).
struct ColumnarPushContext {
  /// True when the op's error policy allows containment (kSkip/
  /// kQuarantine): rows that fail with a containable error must then be
  /// dropped from the selection and reported in `contained` instead of
  /// failing the push. When false the op returns its first containable
  /// error directly (fail fast).
  bool contain = false;
  /// Rows dropped from the selection with a containable error, boxed as
  /// they entered the op, in selection order. The pipeline contains each
  /// one per the op's ErrorPolicy.
  std::vector<std::pair<Row, Status>> contained;
};

class Operator {
 public:
  virtual ~Operator() = default;

  /// Short operator kind ("filter", "lookup", "sort", ...), used by plan
  /// dumps, cost models, and maintainability metrics.
  virtual const char* kind() const = 0;

  /// Instance name ("Flt_NN", "SK_sales", ...).
  virtual const std::string& name() const = 0;

  /// Validates the input schema and returns the output schema. Called once
  /// before Open(). Implementations must be callable repeatedly (planners
  /// bind speculatively while exploring rewrites).
  virtual Result<Schema> Bind(const Schema& input) = 0;

  /// Acquires execution-time resources (e.g., builds lookup hash tables).
  /// Called once after Bind, before the first Push.
  virtual Status Open(OperatorContext* ctx) {
    (void)ctx;
    return Status::OK();
  }

  /// Blocking operators only: consumes `input`, which the caller hands
  /// over by value (moved in, never read again), buffering its rows by
  /// move, and appends any produced rows to `*output` (which carries the
  /// Bind() output schema). Callers that count the input read its size
  /// before the push. Blocking operators never report row-scoped errors (a
  /// containable status — kInvalidArgument, kNotFound, kOutOfRange) from
  /// Push: a Push error fails the attempt.
  virtual Status Push(RowBatch input, RowBatch* output) {
    (void)input;
    (void)output;
    return Status::Internal("operator '" + name() +
                            "' is per-row and has no row push");
  }

  /// Per-row operators only: transforms `*batch` in place — filtering
  /// edits the selection vector, schema-changing ops append/erase/replace
  /// whole columns so the columns match the Bind() output schema (the
  /// pipeline re-points the batch's schema handle afterwards). Any column
  /// may be boxed (Column::boxed()); kernels evaluate boxed cells with
  /// `Value` semantics. Kernels must process side effects (rejects,
  /// surrogate assignment, containment) for SELECTED rows only, in
  /// selection order; pure compute may cover all physical rows. A row that
  /// fails with a containable error is reported through `cctx`.
  virtual Status PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) {
    (void)batch;
    (void)cctx;
    return Status::Internal("operator '" + name() +
                            "' is blocking and has no columnar push");
  }

  /// Emits rows buffered by blocking operators. Called exactly once, after
  /// the final Push.
  virtual Status Finish(RowBatch* output) {
    (void)output;
    return Status::OK();
  }

  /// True when the operator must see its entire input before emitting
  /// (sort, group, delta). Pipelining/blocking separation drives both the
  /// paper's algebraic optimization and recovery-point placement.
  virtual bool IsBlocking() const { return false; }

  /// Relative CPU cost per input row (1.0 = a trivial pass). Used by the
  /// QoX cost model; calibrated against measured OpStats in tests.
  virtual double CostPerRow() const { return 1.0; }

  /// Expected output/input row ratio (selectivity), for volume estimation.
  virtual double Selectivity() const { return 1.0; }
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Builds a fresh operator instance. Factories are the unit the planner
/// composes: each partition/redundant branch materializes its own clone.
using OperatorFactory = std::function<OperatorPtr()>;

}  // namespace qox

#endif  // QOX_ENGINE_OPERATOR_H_
