#include "engine/ops/function_op.h"

#include <algorithm>
#include <cctype>

namespace qox {

ColumnTransform ColumnTransform::Rename(std::string from, std::string to) {
  ColumnTransform t;
  t.kind = Kind::kRename;
  t.a = std::move(from);
  t.out = std::move(to);
  return t;
}

ColumnTransform ColumnTransform::Drop(std::string column) {
  ColumnTransform t;
  t.kind = Kind::kDrop;
  t.a = std::move(column);
  return t;
}

ColumnTransform ColumnTransform::Arith(std::string out, std::string a,
                                       ArithOp op, std::string b) {
  ColumnTransform t;
  t.kind = Kind::kArith;
  t.out = std::move(out);
  t.a = std::move(a);
  t.arith_op = op;
  t.b = std::move(b);
  return t;
}

ColumnTransform ColumnTransform::Scale(std::string out, std::string a,
                                       double factor) {
  ColumnTransform t;
  t.kind = Kind::kScale;
  t.out = std::move(out);
  t.a = std::move(a);
  t.scale = factor;
  return t;
}

ColumnTransform ColumnTransform::Concat(std::string out, std::string a,
                                        std::string b, std::string separator) {
  ColumnTransform t;
  t.kind = Kind::kConcat;
  t.out = std::move(out);
  t.a = std::move(a);
  t.b = std::move(b);
  t.separator = std::move(separator);
  t.out_type = DataType::kString;
  return t;
}

ColumnTransform ColumnTransform::Upper(std::string column) {
  ColumnTransform t;
  t.kind = Kind::kUpper;
  t.a = column;
  t.out = std::move(column);
  t.out_type = DataType::kString;
  return t;
}

ColumnTransform ColumnTransform::Constant(std::string out, Value v) {
  ColumnTransform t;
  t.kind = Kind::kConstant;
  t.out = std::move(out);
  t.out_type = v.type();
  t.literal = std::move(v);
  return t;
}

ColumnTransform ColumnTransform::Coalesce(std::string column, Value fallback) {
  ColumnTransform t;
  t.kind = Kind::kCoalesce;
  t.a = column;
  t.out = std::move(column);
  t.literal = std::move(fallback);
  return t;
}

std::string ColumnTransform::ToString() const {
  switch (kind) {
    case Kind::kRename:
      return "rename(" + a + " -> " + out + ")";
    case Kind::kDrop:
      return "drop(" + a + ")";
    case Kind::kArith: {
      const char* op_text = "+";
      switch (arith_op) {
        case ArithOp::kAdd:
          op_text = "+";
          break;
        case ArithOp::kSub:
          op_text = "-";
          break;
        case ArithOp::kMul:
          op_text = "*";
          break;
        case ArithOp::kDiv:
          op_text = "/";
          break;
      }
      return out + " = " + a + " " + op_text + " " + b;
    }
    case Kind::kScale:
      return out + " = " + a + " * " + std::to_string(scale);
    case Kind::kConcat:
      return out + " = concat(" + a + ", " + b + ")";
    case Kind::kUpper:
      return "upper(" + a + ")";
    case Kind::kConstant:
      return out + " = const(" + literal.ToString() + ")";
    case Kind::kCoalesce:
      return "coalesce(" + a + ", " + literal.ToString() + ")";
  }
  return "?";
}

FunctionOp::FunctionOp(std::string name,
                       std::vector<ColumnTransform> transforms)
    : name_(std::move(name)), transforms_(std::move(transforms)) {}

Result<Schema> FunctionOp::Bind(const Schema& input) {
  bound_.clear();
  Schema schema = input;
  for (const ColumnTransform& t : transforms_) {
    BoundStep step;
    step.transform = t;
    switch (t.kind) {
      case ColumnTransform::Kind::kRename: {
        QOX_ASSIGN_OR_RETURN(step.a_index, schema.FieldIndex(t.a));
        QOX_ASSIGN_OR_RETURN(schema, schema.RenameField(t.a, t.out));
        break;
      }
      case ColumnTransform::Kind::kDrop: {
        QOX_ASSIGN_OR_RETURN(step.a_index, schema.FieldIndex(t.a));
        QOX_ASSIGN_OR_RETURN(schema, schema.RemoveField(t.a));
        break;
      }
      case ColumnTransform::Kind::kArith:
      case ColumnTransform::Kind::kConcat:
      case ColumnTransform::Kind::kScale: {
        QOX_ASSIGN_OR_RETURN(step.a_index, schema.FieldIndex(t.a));
        step.a_type = schema.field(step.a_index).type;
        if (t.kind != ColumnTransform::Kind::kScale) {
          QOX_ASSIGN_OR_RETURN(step.b_index, schema.FieldIndex(t.b));
          step.b_type = schema.field(step.b_index).type;
        }
        if (schema.HasField(t.out)) {
          QOX_ASSIGN_OR_RETURN(step.out_index, schema.FieldIndex(t.out));
        } else {
          step.out_is_new = true;
          step.out_index = schema.num_fields();
          const DataType declared = t.kind == ColumnTransform::Kind::kScale
                                        ? DataType::kDouble
                                        : t.out_type;
          QOX_ASSIGN_OR_RETURN(schema,
                               schema.AddField({t.out, declared, true}));
        }
        step.out_type = schema.field(step.out_index).type;
        break;
      }
      case ColumnTransform::Kind::kUpper:
      case ColumnTransform::Kind::kCoalesce: {
        QOX_ASSIGN_OR_RETURN(step.a_index, schema.FieldIndex(t.a));
        step.out_index = step.a_index;
        step.a_type = schema.field(step.a_index).type;
        step.out_type = step.a_type;
        break;
      }
      case ColumnTransform::Kind::kConstant: {
        if (schema.HasField(t.out)) {
          return Status::AlreadyExists("constant column '" + t.out +
                                       "' already exists");
        }
        step.out_is_new = true;
        step.out_index = schema.num_fields();
        step.out_type = t.out_type;
        QOX_ASSIGN_OR_RETURN(schema,
                             schema.AddField({t.out, t.out_type, true}));
        break;
      }
    }
    bound_.push_back(std::move(step));
  }
  output_schema_ = schema;
  return output_schema_;
}

namespace {

Value ApplyArith(const Value& a, const Value& b,
                 ColumnTransform::ArithOp op) {
  if (a.is_null() || b.is_null()) return Value::Null();
  const Result<double> da = a.AsDouble();
  const Result<double> db = b.AsDouble();
  if (!da.ok() || !db.ok()) return Value::Null();
  switch (op) {
    case ColumnTransform::ArithOp::kAdd:
      return Value::Double(da.value() + db.value());
    case ColumnTransform::ArithOp::kSub:
      return Value::Double(da.value() - db.value());
    case ColumnTransform::ArithOp::kMul:
      return Value::Double(da.value() * db.value());
    case ColumnTransform::ArithOp::kDiv:
      return db.value() == 0.0 ? Value::Null()
                               : Value::Double(da.value() / db.value());
  }
  return Value::Null();
}

Value ApplyScale(const Value& a, double factor) {
  if (a.is_null()) return Value::Null();
  const Result<double> da = a.AsDouble();
  return da.ok() ? Value::Double(da.value() * factor) : Value::Null();
}

// How a declared column type reads as a number, mirroring Value::AsDouble
// (bool -> 0/1; int64/timestamp -> cast; string/null -> no numeric view).
enum class NumKind { kI64, kF64, kB8, kNone };

NumKind NumKindOf(DataType t) {
  switch (t) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return NumKind::kI64;
    case DataType::kDouble:
      return NumKind::kF64;
    case DataType::kBool:
      return NumKind::kB8;
    default:
      return NumKind::kNone;
  }
}

double NumAt(const Column& c, NumKind k, size_t r) {
  switch (k) {
    case NumKind::kI64:
      return static_cast<double>(c.Int64At(r));
    case NumKind::kF64:
      return c.DoubleAt(r);
    case NumKind::kB8:
      return c.BoolAt(r) ? 1.0 : 0.0;
    case NumKind::kNone:
      break;
  }
  return 0.0;
}

}  // namespace

Status FunctionOp::PushColumnar(ColumnBatch* batch, ColumnarPushContext* cctx) {
  (void)cctx;  // no step fails on a row
  const size_t n = batch->num_physical_rows();
  const auto place = [batch](const BoundStep& step, Column out) {
    if (step.out_is_new) {
      batch->AppendColumn(std::move(out));
    } else {
      batch->ReplaceColumn(step.out_index, std::move(out));
    }
  };
  for (const BoundStep& step : bound_) {
    const ColumnTransform& t = step.transform;
    switch (t.kind) {
      case ColumnTransform::Kind::kRename:
        break;  // metadata only; the pipeline re-points the schema
      case ColumnTransform::Kind::kDrop:
        batch->EraseColumn(step.a_index);
        break;
      case ColumnTransform::Kind::kArith: {
        const Column& a = batch->column(step.a_index);
        const Column& b = batch->column(step.b_index);
        const NumKind ka = NumKindOf(step.a_type);
        const NumKind kb = NumKindOf(step.b_type);
        Column out(step.out_type);
        out.Reserve(n);
        if (a.boxed() || b.boxed() || step.out_type != DataType::kDouble) {
          for (size_t r = 0; r < n; ++r) {
            out.AppendValue(ApplyArith(a.ValueAt(r), b.ValueAt(r),
                                       t.arith_op));
          }
        } else if (ka == NumKind::kNone || kb == NumKind::kNone) {
          // A non-numeric operand column yields NULL for every row.
          for (size_t r = 0; r < n; ++r) out.AppendNull();
        } else {
          for (size_t r = 0; r < n; ++r) {
            if (!a.IsValid(r) || !b.IsValid(r)) {
              out.AppendNull();
              continue;
            }
            const double da = NumAt(a, ka, r);
            const double db = NumAt(b, kb, r);
            switch (t.arith_op) {
              case ColumnTransform::ArithOp::kAdd:
                out.AppendDouble(da + db);
                break;
              case ColumnTransform::ArithOp::kSub:
                out.AppendDouble(da - db);
                break;
              case ColumnTransform::ArithOp::kMul:
                out.AppendDouble(da * db);
                break;
              case ColumnTransform::ArithOp::kDiv:
                if (db == 0.0) {
                  out.AppendNull();
                } else {
                  out.AppendDouble(da / db);
                }
                break;
            }
          }
        }
        place(step, std::move(out));
        break;
      }
      case ColumnTransform::Kind::kScale: {
        const Column& a = batch->column(step.a_index);
        const NumKind ka = NumKindOf(step.a_type);
        Column out(step.out_type);
        out.Reserve(n);
        if (a.boxed() || step.out_type != DataType::kDouble) {
          for (size_t r = 0; r < n; ++r) {
            out.AppendValue(ApplyScale(a.ValueAt(r), t.scale));
          }
        } else {
          for (size_t r = 0; r < n; ++r) {
            if (ka == NumKind::kNone || !a.IsValid(r)) {
              out.AppendNull();
            } else {
              out.AppendDouble(NumAt(a, ka, r) * t.scale);
            }
          }
        }
        place(step, std::move(out));
        break;
      }
      case ColumnTransform::Kind::kConcat: {
        const Column& a = batch->column(step.a_index);
        const Column& b = batch->column(step.b_index);
        Column out(step.out_type);
        out.Reserve(n);
        // Boxed ToString keeps formatting (double precision, bool words)
        // identical to Value rendering.
        for (size_t r = 0; r < n; ++r) {
          out.AppendValue(Value::String(a.ValueAt(r).ToString() + t.separator +
                                        b.ValueAt(r).ToString()));
        }
        place(step, std::move(out));
        break;
      }
      case ColumnTransform::Kind::kUpper: {
        Column& a = batch->column(step.a_index);
        if (!a.boxed()) {
          // Only string cells are uppercased, and an unboxed column holds
          // them only when declared kString. Dead (unselected) payloads
          // are uppercased too, which is unobservable.
          if (a.type() == DataType::kString) a.UpperInPlaceAscii();
          break;
        }
        Column out(a.type());
        out.Reserve(n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = a.BoxedAt(r);
          if (!v.is_string()) {
            out.AppendValue(v);
            continue;
          }
          std::string upper = v.string_value();
          std::transform(upper.begin(), upper.end(), upper.begin(),
                         [](unsigned char c) {
                           return static_cast<char>(std::toupper(c));
                         });
          out.AppendValue(Value::String(std::move(upper)));
        }
        batch->ReplaceColumn(step.a_index, std::move(out));
        break;
      }
      case ColumnTransform::Kind::kConstant: {
        Column out(step.out_type);
        out.Reserve(n);
        for (size_t r = 0; r < n; ++r) out.AppendValue(t.literal);
        batch->AppendColumn(std::move(out));
        break;
      }
      case ColumnTransform::Kind::kCoalesce: {
        const Column& a = batch->column(step.a_index);
        if (t.literal.is_null() || !a.has_nulls()) break;  // nothing to fill
        Column out(a.type());
        out.Reserve(n);
        for (size_t r = 0; r < n; ++r) {
          if (a.IsValid(r)) {
            out.AppendValue(a.ValueAt(r));
          } else {
            out.AppendValue(t.literal);
          }
        }
        batch->ReplaceColumn(step.a_index, std::move(out));
        break;
      }
    }
  }
  return Status::OK();
}

std::vector<std::string> FunctionOp::InputColumns() const {
  std::vector<std::string> cols;
  for (const ColumnTransform& t : transforms_) {
    if (!t.a.empty()) cols.push_back(t.a);
    if (!t.b.empty()) cols.push_back(t.b);
  }
  return cols;
}

std::vector<std::string> FunctionOp::CreatedColumns() const {
  std::vector<std::string> cols;
  for (const ColumnTransform& t : transforms_) {
    switch (t.kind) {
      case ColumnTransform::Kind::kRename:
      case ColumnTransform::Kind::kArith:
      case ColumnTransform::Kind::kScale:
      case ColumnTransform::Kind::kConcat:
      case ColumnTransform::Kind::kConstant:
        if (!t.out.empty()) cols.push_back(t.out);
        break;
      case ColumnTransform::Kind::kDrop:
      case ColumnTransform::Kind::kUpper:
      case ColumnTransform::Kind::kCoalesce:
        break;
    }
  }
  return cols;
}

std::vector<std::string> FunctionOp::DroppedColumns() const {
  std::vector<std::string> cols;
  for (const ColumnTransform& t : transforms_) {
    if (t.kind == ColumnTransform::Kind::kDrop) cols.push_back(t.a);
    if (t.kind == ColumnTransform::Kind::kRename) cols.push_back(t.a);
  }
  return cols;
}

}  // namespace qox
