// Status / Result<T>: exception-free recoverable error handling, in the
// style of absl::Status / arrow::Result.

#ifndef TYCOS_COMMON_STATUS_H_
#define TYCOS_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace tycos {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kOutOfRange,
  kInternal,
  // Refused or cut-short work that may succeed when tried again later: an
  // admission gate shedding load, a server shutting down, a durable unit
  // overrunning its watchdog slice (src/jobs/). The caller decides when
  // to try again; for a durable job, that is its next resume.
  kUnavailable,
};

// Returns a human-readable name for `code` ("OK", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

// A Status is either OK or carries an error code plus message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> is either a value or an error Status.
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    TYCOS_CHECK(!status_.ok());  // A Result error must carry a real error.
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    TYCOS_CHECK(ok());
    return *value_;
  }
  T& value() & {
    TYCOS_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    TYCOS_CHECK(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK when value_ is set.
};

}  // namespace tycos

#endif  // TYCOS_COMMON_STATUS_H_
