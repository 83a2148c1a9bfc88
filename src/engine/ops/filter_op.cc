#include "engine/ops/filter_op.h"

namespace qox {
namespace {

// Type-ordering group used by Value::Compare: NULL(0) < bool(1) <
// numeric(2: int64/double/timestamp) < string(3). Cross-group comparisons
// have a constant sign, which the columnar compiler exploits.
int TypeGroup(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kTimestamp:
      return 2;
    case DataType::kString:
      return 3;
  }
  return 0;
}

bool PassesCmp(Predicate::CmpOp op, int c) {
  switch (op) {
    case Predicate::CmpOp::kEq:
      return c == 0;
    case Predicate::CmpOp::kNe:
      return c != 0;
    case Predicate::CmpOp::kLt:
      return c < 0;
    case Predicate::CmpOp::kLe:
      return c <= 0;
    case Predicate::CmpOp::kGt:
      return c > 0;
    case Predicate::CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

}  // namespace

bool Predicate::Matches(const Value& v) const {
  switch (kind) {
    case Kind::kNotNull:
      return !v.is_null();
    case Kind::kIsNull:
      return v.is_null();
    case Kind::kCompare:
      if (v.is_null()) return false;  // SQL-style: NULL fails comparisons
      return PassesCmp(op, v.Compare(literal));
  }
  return false;
}

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kNotNull:
      return column + " IS NOT NULL";
    case Kind::kIsNull:
      return column + " IS NULL";
    case Kind::kCompare: {
      const char* op_text = "=";
      switch (op) {
        case CmpOp::kEq:
          op_text = "=";
          break;
        case CmpOp::kNe:
          op_text = "!=";
          break;
        case CmpOp::kLt:
          op_text = "<";
          break;
        case CmpOp::kLe:
          op_text = "<=";
          break;
        case CmpOp::kGt:
          op_text = ">";
          break;
        case CmpOp::kGe:
          op_text = ">=";
          break;
      }
      return column + " " + op_text + " " + literal.ToString();
    }
  }
  return "?";
}

FilterOp::FilterOp(std::string name, std::vector<Predicate> conjuncts,
                   double estimated_selectivity)
    : name_(std::move(name)),
      conjuncts_(std::move(conjuncts)),
      estimated_selectivity_(estimated_selectivity) {}

Result<Schema> FilterOp::Bind(const Schema& input) {
  indices_.clear();
  indices_.reserve(conjuncts_.size());
  for (const Predicate& p : conjuncts_) {
    QOX_ASSIGN_OR_RETURN(const size_t idx, input.FieldIndex(p.column));
    indices_.push_back(idx);
  }
  return input;  // filters do not change the schema
}

Status FilterOp::Open(OperatorContext* ctx) {
  ctx_ = ctx;
  return Status::OK();
}

Status FilterOp::PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) {
  (void)cctx;  // filtering never fails per row; rejects are not errors

  // Each conjunct compiles to one typed mode against its column. On an
  // unboxed column every non-NULL cell has the declared type, which lets
  // cross-type-group comparisons against the literal collapse to a constant
  // sign, exactly as Value::Compare would produce per row. A boxed column
  // compares through Predicate::Matches.
  struct Compiled {
    enum class Mode {
      kNonNull, kIsNull, kFalse, kI64, kF64, kBool, kStr, kBoxed
    };
    Mode mode = Mode::kNonNull;
    const Predicate* pred = nullptr;
    const Column* col = nullptr;
    Predicate::CmpOp op = Predicate::CmpOp::kEq;
    bool cast_col = false;  // kF64 with an int64/timestamp column
    int64_t lit_i64 = 0;
    double lit_f64 = 0.0;
    int lit_bool = 0;
    const std::string* lit_str = nullptr;
  };
  using Mode = Compiled::Mode;
  std::vector<Compiled> compiled;
  compiled.reserve(conjuncts_.size());
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    const Predicate& p = conjuncts_[i];
    Compiled c;
    c.pred = &p;
    c.col = &batch->column(indices_[i]);
    c.op = p.op;
    const DataType col_type = c.col->type();
    if (p.kind == Predicate::Kind::kNotNull) {
      c.mode = Mode::kNonNull;
    } else if (p.kind == Predicate::Kind::kIsNull) {
      c.mode = Mode::kIsNull;
    } else if (c.col->boxed()) {
      c.mode = Mode::kBoxed;
    } else {
      const DataType lit_type = p.literal.type();
      const int vg = TypeGroup(col_type);
      const int lg = TypeGroup(lit_type);
      if (vg != lg) {
        // NULL cells always fail kCompare, so a constant-true comparison
        // reduces to a NOT NULL check.
        c.mode = PassesCmp(p.op, vg < lg ? -1 : 1) ? Mode::kNonNull
                                                   : Mode::kFalse;
      } else if (col_type == DataType::kBool) {
        c.mode = Mode::kBool;
        c.lit_bool = p.literal.bool_value() ? 1 : 0;
      } else if (col_type == DataType::kString) {
        c.mode = Mode::kStr;
        c.lit_str = &p.literal.string_value();
      } else if (col_type != DataType::kDouble &&
                 lit_type != DataType::kDouble) {
        // Both sides hold int64 payloads (int64/timestamp): exact compare.
        c.mode = Mode::kI64;
        c.lit_i64 = p.literal.int64_value();
      } else {
        c.mode = Mode::kF64;
        c.cast_col = col_type != DataType::kDouble;
        c.lit_f64 = lit_type == DataType::kDouble
                        ? p.literal.double_value()
                        : static_cast<double>(p.literal.int64_value());
      }
    }
    compiled.push_back(c);
  }

  std::vector<uint32_t> kept;
  kept.reserve(batch->selection().size());
  for (const uint32_t r : batch->selection()) {
    bool pass = true;
    for (const Compiled& c : compiled) {
      const bool valid = c.col->IsValid(r);
      int cmp = 0;
      switch (c.mode) {
        case Mode::kNonNull:
          pass = valid;
          break;
        case Mode::kIsNull:
          pass = !valid;
          break;
        case Mode::kFalse:
          pass = false;
          break;
        case Mode::kI64: {
          if (!valid) {
            pass = false;
            break;
          }
          const int64_t v = c.col->Int64At(r);
          cmp = v < c.lit_i64 ? -1 : (v > c.lit_i64 ? 1 : 0);
          pass = PassesCmp(c.op, cmp);
          break;
        }
        case Mode::kF64: {
          if (!valid) {
            pass = false;
            break;
          }
          const double v = c.cast_col
                               ? static_cast<double>(c.col->Int64At(r))
                               : c.col->DoubleAt(r);
          cmp = v < c.lit_f64 ? -1 : (v > c.lit_f64 ? 1 : 0);
          pass = PassesCmp(c.op, cmp);
          break;
        }
        case Mode::kBool: {
          if (!valid) {
            pass = false;
            break;
          }
          cmp = (c.col->BoolAt(r) ? 1 : 0) - c.lit_bool;
          pass = PassesCmp(c.op, cmp);
          break;
        }
        case Mode::kStr: {
          if (!valid) {
            pass = false;
            break;
          }
          const int raw = c.col->StringAt(r).compare(*c.lit_str);
          cmp = raw < 0 ? -1 : (raw > 0 ? 1 : 0);
          pass = PassesCmp(c.op, cmp);
          break;
        }
        case Mode::kBoxed:
          pass = c.pred->Matches(c.col->BoxedAt(r));
          break;
      }
      if (!pass) break;
    }
    if (pass) {
      kept.push_back(r);
    } else if (ctx_ != nullptr) {
      QOX_RETURN_IF_ERROR(ctx_->Reject(batch->RowAt(r)));
    }
  }
  batch->SetSelection(std::move(kept));
  return Status::OK();
}

std::vector<std::string> FilterOp::InputColumns() const {
  std::vector<std::string> cols;
  cols.reserve(conjuncts_.size());
  for (const Predicate& p : conjuncts_) cols.push_back(p.column);
  return cols;
}

}  // namespace qox
