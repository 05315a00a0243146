#ifndef XQDB_COMMON_STATUS_H_
#define XQDB_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace xqdb {

/// Machine-readable error classification. XQuery dynamic/type errors carry
/// their W3C error codes so callers (and the paper's pitfall tests) can
/// assert on them precisely.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // Malformed input to an API call.
  kNotFound,          // Missing table, column, index, namespace, ...
  kAlreadyExists,     // Duplicate table/index name.
  kParseError,        // XML / XQuery / SQL / pattern syntax error.
  kTypeError,         // XQuery static or dynamic type error (XPTY0004, ...).
  kCastError,         // Failed cast (FORG0001, FOCA0002, ...).
  kDynamicError,      // Other XQuery dynamic error (XQDY0025, FORG0006, ...).
  kUnsupported,       // Valid in the standard, outside our subset.
  kResourceExhausted, // A fixed engine bound was reached (name pool full).
  kInternal,          // Invariant violation; a bug in xqdb itself.
};

/// Returns a stable human-readable name, e.g. "TypeError".
std::string_view StatusCodeToString(StatusCode code);

/// Arrow/RocksDB-style status object. Functions that can fail return Status
/// (or Result<T>); exceptions are never thrown across module boundaries.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status CastError(std::string msg) {
    return Status(StatusCode::kCastError, std::move(msg));
  }
  static Status DynamicError(std::string msg) {
    return Status(StatusCode::kDynamicError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "TypeError: XPTY0004: ..." or "OK".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression); on failure returns it from the
/// enclosing function.
#define XQDB_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::xqdb::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                    \
  } while (false)

}  // namespace xqdb

#endif  // XQDB_COMMON_STATUS_H_
