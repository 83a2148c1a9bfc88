// SurrogateKeyOp: replaces transactional (natural) keys with warehouse
// surrogate keys.
//
// "a surrogate key assignment that replaces the transactional keys with
// surrogate keys" (Fig. 3). Assignments live in a shared, thread-safe
// SurrogateKeyRegistry so that partitioned branches, redundant instances,
// and successive loads agree on the mapping — a required property for
// warehouse consistency (and asserted by the engine tests).

#ifndef QOX_ENGINE_OPS_SURROGATE_KEY_OP_H_
#define QOX_ENGINE_OPS_SURROGATE_KEY_OP_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/operator.h"

namespace qox {

/// Thread-safe natural-key -> surrogate-key mapping for one target
/// dimension. Surrogates are dense int64s starting at `first_key`. Int64 and
/// timestamp naturals (one equality group: they hash and compare alike) live
/// only in an int64-keyed map, every other natural only in a boxed map, so
/// no key is stored twice.
class SurrogateKeyRegistry {
 public:
  explicit SurrogateKeyRegistry(int64_t first_key = 1)
      : next_key_(first_key) {}

  /// Returns the surrogate for `natural`, assigning the next key on first
  /// sight. NULL natural keys map to a shared "unknown" surrogate of 0.
  int64_t GetOrAssign(const Value& natural);

  /// Batch form: one lock acquisition for the whole batch. `out` receives
  /// one surrogate per input, in order; first sight assigns, exactly as a
  /// sequence of GetOrAssign calls would.
  void GetOrAssignBatch(const std::vector<Value>& naturals,
                        std::vector<int64_t>* out);

  /// Unboxed batch form for int64/timestamp natural keys: one lock, flat
  /// int64 probes, no Value construction. `nulls`, when non-null, flags
  /// entries that map to the unknown surrogate 0. Assignment order — and
  /// therefore the key sequence — matches the boxed forms.
  void GetOrAssignI64Batch(const int64_t* keys, const uint8_t* nulls,
                           size_t n, std::vector<int64_t>* out);

  /// Returns the surrogate if already assigned.
  Result<int64_t> Get(const Value& natural) const;

  size_t size() const;

 private:
  /// Returns the surrogate of a non-NULL natural, assigning the next key
  /// on first sight (mu_ held).
  int64_t GetOrAssignLocked(const Value& natural);
  int64_t GetOrAssignI64Locked(int64_t natural);

  mutable std::mutex mu_;
  /// Int64 and timestamp naturals, keyed by raw payload.
  std::unordered_map<int64_t, int64_t> i64_map_;
  /// Every other natural.
  std::unordered_map<Value, int64_t, ValueHash> boxed_map_;
  int64_t next_key_;
};

using SurrogateKeyRegistryPtr = std::shared_ptr<SurrogateKeyRegistry>;

class SurrogateKeyOp : public Operator {
 public:
  /// Replaces `natural_column` with a surrogate: the output column
  /// `surrogate_column` (int64) is appended and, when `drop_natural`, the
  /// natural column is removed.
  SurrogateKeyOp(std::string name, SurrogateKeyRegistryPtr registry,
                 std::string natural_column, std::string surrogate_column,
                 bool drop_natural = true);

  const char* kind() const override { return "surrogate_key"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override;
  /// Batch surrogate assignment: keys for SELECTED rows only, in selection
  /// order, under one registry lock, so the registry's key sequence follows
  /// row order.
  Status PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) override;
  double CostPerRow() const override { return 1.8; }

  std::vector<std::string> InputColumns() const { return {natural_column_}; }
  const std::string& surrogate_column() const { return surrogate_column_; }

 private:
  const std::string name_;
  const SurrogateKeyRegistryPtr registry_;
  const std::string natural_column_;
  const std::string surrogate_column_;
  const bool drop_natural_;
  size_t natural_index_ = 0;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_SURROGATE_KEY_OP_H_
