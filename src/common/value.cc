#include "common/value.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace qox {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kTimestamp:
      return "timestamp";
  }
  return "unknown";
}

DataType Value::type() const {
  if (std::holds_alternative<std::monostate>(repr_)) return DataType::kNull;
  if (std::holds_alternative<bool>(repr_)) return DataType::kBool;
  if (std::holds_alternative<int64_t>(repr_)) {
    return is_timestamp_ ? DataType::kTimestamp : DataType::kInt64;
  }
  if (std::holds_alternative<double>(repr_)) return DataType::kDouble;
  return DataType::kString;
}

Result<double> Value::AsDouble() const {
  switch (type()) {
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kInt64:
    case DataType::kTimestamp:
      return static_cast<double>(std::get<int64_t>(repr_));
    case DataType::kDouble:
      return double_value();
    default:
      return Status::Invalid("value of type " +
                             std::string(DataTypeName(type())) +
                             " has no numeric view");
  }
}

namespace {

// Rank used for cross-type ordering. NULL < bool < numeric < string.
// int64, double, and timestamp share a rank and compare numerically, so
// mixed numeric columns still order sensibly.
int TypeRank(DataType t) {
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
  return 4;
}

int CompareDouble(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  const int rank = TypeRank(type());
  const int other_rank = TypeRank(other.type());
  if (rank != other_rank) return rank < other_rank ? -1 : 1;
  switch (rank) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes.
    case 1:
      return static_cast<int>(bool_value()) - static_cast<int>(other.bool_value());
    case 2: {
      // Exact path when both are integral; double path otherwise.
      const bool self_int = std::holds_alternative<int64_t>(repr_);
      const bool other_int = std::holds_alternative<int64_t>(other.repr_);
      if (self_int && other_int) {
        const int64_t a = std::get<int64_t>(repr_);
        const int64_t b = std::get<int64_t>(other.repr_);
        if (a < b) return -1;
        if (a > b) return 1;
        return 0;
      }
      return CompareDouble(AsDouble().value(), other.AsDouble().value());
    }
    default:
      return string_value().compare(other.string_value());
  }
}

size_t Value::Hash() const {
  // Mix the type rank so values that can never compare equal rarely collide,
  // but keep int64/double/timestamp hashing numeric-compatible is NOT
  // required: equality across numeric types uses Compare, and hash users
  // (lookup, group) always hash columns of a single declared type.
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case DataType::kBool:
      return std::hash<bool>{}(bool_value()) ^ 0x1;
    case DataType::kInt64:
    case DataType::kTimestamp:
      return std::hash<int64_t>{}(std::get<int64_t>(repr_)) ^ 0x2;
    case DataType::kDouble:
      return std::hash<double>{}(double_value()) ^ 0x2;
    case DataType::kString:
      return std::hash<std::string>{}(string_value()) ^ 0x4;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "";
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
    case DataType::kTimestamp:
      return std::to_string(std::get<int64_t>(repr_));
    case DataType::kDouble: {
      // 15 significant digits, as printf's %.15g; 17 when 15 do not parse
      // back to the same double, so every line file round-trips it.
      const double v = double_value();
      char buf[32];
      char* end = std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 15)
                      .ptr;
      double parsed = 0.0;
      std::from_chars(buf, end, parsed);
      if (parsed != v && !std::isnan(v)) {
        end = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, 17)
                  .ptr;
      }
      return std::string(buf, end);
    }
    case DataType::kString:
      return string_value();
  }
  return "";
}

Result<Value> Value::Parse(const std::string& text, DataType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      if (text == "true" || text == "1") return Value::Bool(true);
      if (text == "false" || text == "0") return Value::Bool(false);
      return Status::Invalid("cannot parse bool from '" + text + "'");
    case DataType::kInt64:
    case DataType::kTimestamp: {
      int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::Invalid("cannot parse int64 from '" + text + "'");
      }
      return type == DataType::kTimestamp ? Value::Timestamp(v)
                                          : Value::Int64(v);
    }
    case DataType::kDouble: {
      // from_chars is several times faster than strtod and rounds the same
      // (correctly); strtod still parses what from_chars rejects (leading
      // '+' or spaces, hex, out-of-range), so the accepted syntax is the
      // same as before.
      double v = 0.0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec == std::errc() && ptr == text.data() + text.size()) {
        return Value::Double(v);
      }
      char* end = nullptr;
      v = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size()) {
        return Status::Invalid("cannot parse double from '" + text + "'");
      }
      return Value::Double(v);
    }
    case DataType::kString:
      return Value::String(text);
  }
  return Status::Invalid("unknown data type");
}

size_t Value::ByteSize() const {
  switch (type()) {
    case DataType::kNull:
      return 1;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return string_value().size() + 8;
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace qox
