// Typed operation status for the submission API.
//
// Replaces the string-only error channel: every failed query carries a
// machine-readable code plus a human-readable message, so clients can
// distinguish a saturated server (retry later) from a malformed query
// (fix and resubmit) from a planner rejection (pick another strategy)
// without parsing prose.  Codes are stable wire values (encoded as u16
// in result frames); append new codes, never renumber.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace adr {

enum class StatusCode : std::uint16_t {
  kOk = 0,
  /// Malformed request: unknown map/aggregation name, bad range, bad
  /// machine shape.  Resubmitting unchanged will fail again.
  kInvalidArgument = 1,
  /// A named entity (dataset, ticket) does not exist.
  kNotFound = 2,
  /// The server/scheduler is saturated and refused the work; retry
  /// after the hint (WireResult::retry_after_ms).
  kBusy = 3,
  /// The query planning service rejected the query (no plan exists for
  /// the request under the given strategy/memory budget).
  kPlanRejected = 4,
  /// Planning succeeded but the execution service failed.
  kExecFailed = 5,
  /// Transport-level failure (connection dropped mid-query).
  kUnavailable = 6,
  /// Anything the server could not classify.
  kInternal = 7,
  /// A storage-layer read or write failed mid-query (disk fault, short
  /// read, injected fault).  Retrying an idempotent query may succeed —
  /// declustered farms survive transient per-disk failures.
  kIoError = 8,
  /// The query's Qos deadline passed before a result could be produced:
  /// the scheduler shed it from the queue, or the server refused it
  /// because even the retry hint overshoots the deadline.  Never
  /// retryable — the deadline is just as expired on the next attempt.
  kDeadlineExceeded = 9,
};

/// Client-side retry classification: kBusy is always retryable (the
/// server refused before doing work); kIoError and kUnavailable are
/// retryable only for idempotent queries (range aggregations re-execute
/// from scratch — a retry after a transport loss cannot double-apply).
/// Everything else fails the same way again.
bool is_retryable(StatusCode code, bool idempotent);

/// Short stable identifier, e.g. "ok", "busy", "plan-rejected".
const char* to_string(StatusCode code);

/// A status code plus context message.  Default-constructed is OK.
struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }

  static Status make_ok() { return Status{}; }
  static Status make(StatusCode code, std::string message) {
    return Status{code, std::move(message)};
  }

  /// "ok" or "<code>: <message>" for logs.
  std::string to_string() const;
};

/// Exception carrying a StatusCode through throwing call sites, so the
/// service boundary (QuerySubmissionService / AdrServer) can surface the
/// intended code instead of guessing from the exception type.
class StatusError : public std::runtime_error {
 public:
  StatusError(StatusCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  StatusCode code() const { return code_; }
  Status to_status() const { return Status::make(code_, what()); }

 private:
  StatusCode code_;
};

/// Classifies a caught exception into a Status: StatusError keeps its
/// code, std::invalid_argument maps to kInvalidArgument, std::out_of_range
/// to kNotFound, anything else to kExecFailed.
Status status_from_exception(const std::exception& e);

}  // namespace adr
