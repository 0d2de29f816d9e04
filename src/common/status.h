// Status: the error-reporting vocabulary of the library.
//
// The library does not use C++ exceptions. Every fallible operation returns
// either a Status or a Result<T> (see common/result.h). The idiom follows
// RocksDB / Abseil: a small set of canonical codes plus a human-readable
// message describing the specific failure.

#ifndef VIST_COMMON_STATUS_H_
#define VIST_COMMON_STATUS_H_

#include <string>
#include <string_view>

namespace vist {

// Canonical error codes. Keep this list short; the message carries detail.
enum class StatusCode {
  kOk = 0,
  kNotFound = 1,         // a key / file / symbol does not exist
  kCorruption = 2,       // on-disk data failed a validity check
  kInvalidArgument = 3,  // caller passed something malformed
  kIOError = 4,          // the OS rejected a file operation
  kNotSupported = 5,     // a documented limitation was hit
  kScopeOverflow = 6,    // dynamic labeling exhausted even borrowed scopes
  kParseError = 7,       // XML or path-expression text is malformed
  kDeadlineExceeded = 8,  // the caller's deadline passed before completion
};

/// A cheap, copyable success-or-error value. `Status::OK()` carries no
/// allocation; error statuses carry a code and a message.
///
/// [[nodiscard]]: silently dropping a Status is how I/O errors disappear,
/// so every function returning one must have its result checked (enforced
/// as an error for src/ targets; see docs/STATIC_ANALYSIS.md). The rare
/// site where discarding is genuinely correct calls IgnoreError(), below,
/// with its reason — never a bare (void) cast.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(StatusCode::kCorruption, msg);
  }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(StatusCode::kIOError, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(StatusCode::kNotSupported, msg);
  }
  static Status ScopeOverflow(std::string_view msg) {
    return Status(StatusCode::kScopeOverflow, msg);
  }
  static Status ParseError(std::string_view msg) {
    return Status(StatusCode::kParseError, msg);
  }
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(StatusCode::kDeadlineExceeded, msg);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsScopeOverflow() const { return code_ == StatusCode::kScopeOverflow; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>"; for logs and test failures.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string_view msg)
      : code_(code), message_(msg) {}

  StatusCode code_;
  std::string message_;
};

/// The one sanctioned way to discard a Status: a named, greppable sink for
/// sites where no handling is possible or useful (e.g. best-effort cleanup
/// on a path that is already reporting a different error). `why` says why
/// the error is unactionable at the call site; there is no overload
/// without it, so every discard states its reason.
inline void IgnoreError(const Status&, std::string_view /*why*/) {}

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK. The workhorse of error propagation.
#define VIST_RETURN_IF_ERROR(expr)                 \
  do {                                             \
    ::vist::Status _vist_status = (expr);          \
    if (!_vist_status.ok()) return _vist_status;   \
  } while (0)

}  // namespace vist

#endif  // VIST_COMMON_STATUS_H_
