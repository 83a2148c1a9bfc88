// FilterOp: row filtering on structured predicates.
//
// Predicates are structured (not opaque lambdas) so the optimizer can
// reason about them: dependency analysis for the "move the most restrictive
// operator to the start of the flow" rewrite (Sec. 3.1) needs to know which
// columns a filter touches. The paper's Flt_NN — "rejecting tuples
// containing null values" — is a conjunction of kNotNull predicates.

#ifndef QOX_ENGINE_OPS_FILTER_OP_H_
#define QOX_ENGINE_OPS_FILTER_OP_H_

#include <string>
#include <vector>

#include "engine/operator.h"

namespace qox {

/// One predicate over a named column.
struct Predicate {
  enum class Kind {
    kNotNull,  ///< column IS NOT NULL
    kIsNull,   ///< column IS NULL
    kCompare,  ///< column <op> literal
  };
  enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

  Kind kind = Kind::kNotNull;
  std::string column;
  CmpOp op = CmpOp::kEq;
  Value literal;

  static Predicate NotNull(std::string column) {
    Predicate p;
    p.kind = Kind::kNotNull;
    p.column = std::move(column);
    return p;
  }
  static Predicate IsNull(std::string column) {
    Predicate p;
    p.kind = Kind::kIsNull;
    p.column = std::move(column);
    return p;
  }
  static Predicate Compare(std::string column, CmpOp op, Value literal) {
    Predicate p;
    p.kind = Kind::kCompare;
    p.column = std::move(column);
    p.op = op;
    p.literal = std::move(literal);
    return p;
  }

  /// Evaluates against one cell of the predicate's column.
  bool Matches(const Value& v) const;

  std::string ToString() const;
};

class FilterOp : public Operator {
 public:
  /// Rows must satisfy ALL `conjuncts` to pass. Non-passing rows are
  /// rejected (routed to the context's reject sink and counted).
  /// `estimated_selectivity` is the planner's expectation of the pass rate,
  /// carried for the cost model; the operator itself is exact.
  FilterOp(std::string name, std::vector<Predicate> conjuncts,
           double estimated_selectivity = 0.9);

  const char* kind() const override { return "filter"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override;
  Status Open(OperatorContext* ctx) override;
  /// Selection-vector evaluation: conjuncts run over typed columns (boxed
  /// columns through Predicate::Matches) and non-passing rows leave the
  /// selection, routed to the reject sink in selection order.
  Status PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) override;
  double CostPerRow() const override { return 0.6; }
  double Selectivity() const override { return estimated_selectivity_; }

  const std::vector<Predicate>& conjuncts() const { return conjuncts_; }

  /// Names of the columns the predicates read (for rewrite legality).
  std::vector<std::string> InputColumns() const;

 private:
  const std::string name_;
  const std::vector<Predicate> conjuncts_;
  const double estimated_selectivity_;
  std::vector<size_t> indices_;
  OperatorContext* ctx_ = nullptr;
};

}  // namespace qox

#endif  // QOX_ENGINE_OPS_FILTER_OP_H_
