#include "common/status.h"

#include <iterator>

namespace qox {

namespace {

/// Every code's canonical name, in enum order: StatusCodeName and
/// ParseStatusCode both read this one list.
constexpr const char* kCodeNames[] = {
    "ok",
    "invalid_argument",
    "not_found",
    "already_exists",
    "out_of_range",
    "failed_precondition",
    "io_error",
    "internal",
    "unimplemented",
    "injected_failure",
    "cancelled",
    "unavailable",
    "deadline_exceeded",
    "corrupted_data",
    "error_budget_exceeded",
    "resource_exhausted",
};
static_assert(std::size(kCodeNames) ==
                  static_cast<size_t>(StatusCode::kResourceExhausted) + 1,
              "every StatusCode needs a name");

}  // namespace

const char* StatusCodeName(StatusCode code) {
  const auto index = static_cast<size_t>(code);
  return index < std::size(kCodeNames) ? kCodeNames[index] : "unknown";
}

std::optional<StatusCode> ParseStatusCode(std::string_view name) {
  for (size_t i = 0; i < std::size(kCodeNames); ++i) {
    if (name == kCodeNames[i]) return static_cast<StatusCode>(i);
  }
  return std::nullopt;
}

bool IsTransient(StatusCode code) {
  return code == StatusCode::kInjectedFailure ||
         code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

bool IsTransient(const Status& status) { return IsTransient(status.code()); }

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace qox
