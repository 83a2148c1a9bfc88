// Status and Result<T>: exception-free error handling for the qox library.
//
// Every fallible operation in the library returns either a Status (no
// payload) or a Result<T> (payload on success). The style follows
// absl::Status / arrow::Result: statuses carry a machine-readable code and
// a human-readable message, and must be checked by the caller.

#ifndef QOX_COMMON_STATUS_H_
#define QOX_COMMON_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace qox {

/// Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kIoError,
  kInternal,
  kUnimplemented,
  /// An injected (simulated) system failure: network, power, resource, ...
  /// Used by the failure-injection machinery; the executor treats it as a
  /// recoverable interruption rather than a bug.
  kInjectedFailure,
  kCancelled,
  /// A transient storage/service fault: the operation may succeed if
  /// retried (dropped connection, throttled backend, torn write). The
  /// retry machinery treats it like an injected failure.
  kUnavailable,
  /// A per-attempt watchdog deadline expired; the attempt was aborted and
  /// may be retried.
  kDeadlineExceeded,
  /// Persisted data failed integrity verification (checksum mismatch).
  /// Retrying the same read cannot help; the caller must fall back to an
  /// older copy or recompute.
  kCorruptedData,
  /// The flow's row-level error budget was exhausted: more rows were
  /// skipped/quarantined than the configured ceiling allows. Permanent —
  /// re-running the identical flow re-quarantines the identical rows, so
  /// the executor must not burn retry attempts on it.
  kErrorBudgetExceeded,
  /// A finite resource ran out: disk full (ENOSPC), a storage quota, or a
  /// ledger/byte cap. Not transient by default — immediately retrying the
  /// identical write hits the identical full disk — but unlike kIoError
  /// the condition is expected to clear with time or operator action, so
  /// the engine's ResourcePolicy may reclassify it (pause-and-retry) or
  /// degrade around it (shed-to-quarantine) instead of failing the flow.
  kResourceExhausted,
};

/// Returns the canonical lowercase name of a status code ("ok", "io_error").
const char* StatusCodeName(StatusCode code);

/// The code whose StatusCodeName is `name`; nullopt for an unknown name.
std::optional<StatusCode> ParseStatusCode(std::string_view name);

/// A success-or-error outcome with no payload.
///
/// Statuses are cheap to copy in the OK case (empty message). Use the
/// factory functions (Status::OK(), Status::Invalid(...), ...) rather than
/// the constructor.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status InjectedFailure(std::string msg) {
    return Status(StatusCode::kInjectedFailure, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status CorruptedData(std::string msg) {
    return Status(StatusCode::kCorruptedData, std::move(msg));
  }
  static Status ErrorBudgetExceeded(std::string msg) {
    return Status(StatusCode::kErrorBudgetExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True if this status is an injected simulated failure (the recoverable
  /// interruption class used by the failure-injection experiments).
  bool IsInjectedFailure() const {
    return code_ == StatusCode::kInjectedFailure;
  }

  /// True if persisted data failed integrity verification.
  bool IsCorruptedData() const { return code_ == StatusCode::kCorruptedData; }

  /// "OK" or "<code_name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Transient-vs-permanent classification for the retry machinery. Transient
/// failures (injected system failures, unavailable storage, expired attempt
/// deadlines) are worth retrying — possibly after a backoff. Everything
/// else (bad input, permanent I/O errors, corrupted data, cancellation) is
/// permanent: retrying the identical operation cannot succeed, so the
/// executor fails fast instead of burning its attempt budget.
bool IsTransient(StatusCode code);
bool IsTransient(const Status& status);

/// A value-or-error outcome. Holds a T on success, a non-OK Status on error.
///
/// Typical use:
///   Result<Schema> r = ParseSchema(text);
///   if (!r.ok()) return r.status();
///   const Schema& s = r.value();
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status (error). Constructing a
  /// Result from an OK status is a programming error and is converted to an
  /// internal error so it cannot masquerade as success.
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    if (std::get<Status>(state_).ok()) {
      state_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  /// Status of the outcome; Status::OK() when a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(state_);
  }

  /// The held value. Precondition: ok().
  const T& value() const& { return std::get<T>(state_); }
  T& value() & { return std::get<T>(state_); }
  T&& value() && { return std::get<T>(std::move(state_)); }

  /// Moves the value out. Precondition: ok().
  T TakeValue() { return std::get<T>(std::move(state_)); }

  /// Returns the value, or `fallback` when in error state.
  T ValueOr(T fallback) const {
    if (ok()) return value();
    return fallback;
  }

 private:
  std::variant<T, Status> state_;
};

}  // namespace qox

/// Propagates a non-OK Status from an expression to the caller.
#define QOX_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::qox::Status _qox_status = (expr);             \
    if (!_qox_status.ok()) return _qox_status;      \
  } while (false)

/// Evaluates a Result<T> expression; on success binds the value to `lhs`,
/// on error returns the status to the caller.
#define QOX_ASSIGN_OR_RETURN(lhs, expr)            \
  QOX_ASSIGN_OR_RETURN_IMPL(                       \
      QOX_STATUS_CONCAT(_qox_result_, __LINE__), lhs, expr)

#define QOX_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr)  \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).TakeValue()

#define QOX_STATUS_CONCAT_IMPL(a, b) a##b
#define QOX_STATUS_CONCAT(a, b) QOX_STATUS_CONCAT_IMPL(a, b)

#endif  // QOX_COMMON_STATUS_H_
