// FunctionOp: schema-modifying row functions.
//
// Models the paper's "function operation (for modifying the schema)" in the
// Fig. 3 bottom flow. A FunctionOp applies an ordered list of structured
// column transforms (rename, drop, computed columns, string normalization).
// Transforms are structured data so the optimizer can compute column
// dependencies for rewrite legality.

#ifndef QOX_ENGINE_OPS_FUNCTION_OP_H_
#define QOX_ENGINE_OPS_FUNCTION_OP_H_

#include <string>
#include <vector>

#include "engine/operator.h"

namespace qox {

/// One column transform step.
struct ColumnTransform {
  enum class Kind {
    kRename,    ///< rename column `a` to `out`
    kDrop,      ///< drop column `a`
    kArith,     ///< out = a <arith_op> b (numeric columns)
    kScale,     ///< out = a * literal (numeric column, double literal)
    kConcat,    ///< out = string(a) + separator + string(b)
    kUpper,     ///< uppercase string column `a` in place
    kConstant,  ///< new column `out` with a constant value
    kCoalesce,  ///< out = a if not NULL else literal (in place when out==a)
  };
  enum class ArithOp { kAdd, kSub, kMul, kDiv };

  Kind kind = Kind::kRename;
  std::string a;          ///< first input column
  std::string b;          ///< second input column (kArith, kConcat)
  std::string out;        ///< output column name
  ArithOp arith_op = ArithOp::kAdd;
  double scale = 1.0;     ///< kScale factor
  std::string separator;  ///< kConcat separator
  Value literal;          ///< kConstant / kCoalesce value
  DataType out_type = DataType::kDouble;  ///< type of computed column

  static ColumnTransform Rename(std::string from, std::string to);
  static ColumnTransform Drop(std::string column);
  static ColumnTransform Arith(std::string out, std::string a, ArithOp op,
                               std::string b);
  static ColumnTransform Scale(std::string out, std::string a, double factor);
  static ColumnTransform Concat(std::string out, std::string a, std::string b,
                                std::string separator);
  static ColumnTransform Upper(std::string column);
  static ColumnTransform Constant(std::string out, Value v);
  static ColumnTransform Coalesce(std::string column, Value fallback);

  std::string ToString() const;
};

class FunctionOp : public Operator {
 public:
  FunctionOp(std::string name, std::vector<ColumnTransform> transforms);

  const char* kind() const override { return "function"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override;
  /// Applies the steps column by column. Steps whose inputs are boxed, or
  /// whose result type differs from the declared type of their output
  /// column (coalesce with a mismatched literal, arith/scale/concat writing
  /// into an existing column of another type), compute per cell with
  /// `Value` semantics; a result of another type boxes its column.
  Status PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) override;
  double CostPerRow() const override {
    return 0.5 + 0.4 * static_cast<double>(transforms_.size());
  }

  const std::vector<ColumnTransform>& transforms() const { return transforms_; }

  /// Columns read by any transform (rewrite legality).
  std::vector<std::string> InputColumns() const;
  /// Columns created or removed (rewrite legality: a filter cannot move
  /// above a function that creates the column it reads).
  std::vector<std::string> CreatedColumns() const;
  std::vector<std::string> DroppedColumns() const;

 private:
  // A bound step: resolved indices against the evolving schema.
  struct BoundStep {
    ColumnTransform transform;
    size_t a_index = 0;
    size_t b_index = 0;
    size_t out_index = 0;  // target slot (existing or appended)
    bool out_is_new = false;
    // Declared types at this point of the schema evolution (drive the typed
    // kernels): the inputs, and the target slot once the step has run.
    DataType a_type = DataType::kNull;
    DataType b_type = DataType::kNull;
    DataType out_type = DataType::kNull;
  };

  const std::string name_;
  const std::vector<ColumnTransform> transforms_;
  std::vector<BoundStep> bound_;
  Schema output_schema_;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_FUNCTION_OP_H_
