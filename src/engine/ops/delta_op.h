// DeltaOp: the Δ transformation of Fig. 3 — change detection against the
// previous landing.
//
// "The data after their landing to the transformation area are compared
// (Δ transformation) against the previous landing (snapshot table) for
// identifying the changed tuples."
//
// DeltaOp is blocking: it moves its input rows into its buffer, hands the
// buffer to the SnapshotStore at Finish(), and emits only inserts and
// updates (optionally tagged with a change-type column) — inserts first,
// then updates, each in first-seen key order. No landed row is copied
// into the output. The de-duplicated landing the store classified goes to
// the run through OperatorContext::stage_landing; the executor commits it
// into the snapshot only after the flow loads successfully, so
// failed/restarted runs see the same delta again (exactly-once semantics;
// asserted by recovery tests).

#ifndef QOX_ENGINE_OPS_DELTA_OP_H_
#define QOX_ENGINE_OPS_DELTA_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/operator.h"
#include "storage/snapshot_store.h"

namespace qox {

class DeltaOp : public Operator {
 public:
  /// When `change_type_column` is non-empty, a string column with values
  /// "insert" / "update" is appended to the output.
  DeltaOp(std::string name, SnapshotStorePtr snapshot,
          std::string change_type_column = "");

  const char* kind() const override { return "delta"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override;
  Status Open(OperatorContext* ctx) override;
  Status Push(RowBatch input, RowBatch* output) override;
  Status Finish(RowBatch* output) override;
  bool IsBlocking() const override { return true; }
  const SnapshotStorePtr& snapshot() const { return snapshot_; }
  double CostPerRow() const override { return 2.2; }
  double Selectivity() const override { return 0.6; }  // typical change rate

 private:
  const std::string name_;
  const SnapshotStorePtr snapshot_;
  const std::string change_type_column_;
  OperatorContext* ctx_ = nullptr;
  std::vector<Row> buffered_;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_DELTA_OP_H_
