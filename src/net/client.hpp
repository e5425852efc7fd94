// ADR socket client (the paper's "sequential client").
//
// Connects to an AdrServer (or an AdrRouter, which speaks the same
// protocol) and submits range queries synchronously: each submit()
// sends one query frame and blocks for the result frame.
//
// Admission control lives on both ends of the socket.  The server
// refuses work it cannot take (busy frames carrying a retry-after
// hint); the client answers those refusals — and transport losses on
// idempotent queries — under its RetryPolicy: bounded retries with
// exponential backoff plus seeded jitter, honoring the server's hint.
// Every submit runs that one loop; the default policy makes a single
// attempt.  The router fails over between backends with the same
// policy, backoff formula and connection (net/socket_io.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "core/query.hpp"
#include "net/socket_io.hpp"
#include "net/wire.hpp"

namespace adr::net {

/// Retry and admission-control policy, shared by AdrClient and the
/// router's failover ladder.
///
/// The default (max_attempts == 1) makes exactly one attempt: a busy
/// frame or a transport failure comes back to the caller as the result.
struct RetryPolicy {
  /// Total submit attempts per query (first try included).  1 = no
  /// retries.
  int max_attempts = 1;
  /// Backoff before the first retry; doubles (backoff_multiplier) per
  /// subsequent retry up to max_backoff.
  std::chrono::milliseconds initial_backoff{10};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds max_backoff{2000};
  /// Uniform jitter fraction applied to each backoff: the sleep is
  /// drawn from [backoff*(1-jitter), backoff*(1+jitter)] with a seeded
  /// RNG, so a fleet of clients refused together does not retry in
  /// lockstep — and a fixed seed replays the same schedule.
  double jitter = 0.2;
  /// Sleep at least the server's retry_after_ms hint on busy refusals.
  bool honor_retry_after = true;
  /// Whether this client's queries may be safely re-executed after a
  /// transport loss (result possibly computed but never delivered).
  /// Range aggregations rebuilt from scratch are; queries folding into
  /// existing output products are not.  Gates retry on kIoError /
  /// kUnavailable — kBusy is always retryable (the server refused
  /// before doing work).  Failures at connect() time are likewise
  /// always retryable: no bytes ever reached a server, so the query
  /// provably never executed, idempotent or not.
  bool idempotent = true;
  /// Seed for the jitter RNG (deterministic backoff schedules in tests).
  std::uint64_t seed = 0;

  /// Sleep before retry number `retry` (1-based):
  /// initial_backoff * backoff_multiplier^(retry-1), capped at
  /// max_backoff, scaled by a jitter factor drawn from `jitter_state`
  /// (a splitmix64 stream the caller owns), and stretched to the
  /// server's `hint_ms` when honor_retry_after is set.
  std::chrono::milliseconds backoff(int retry, std::uint32_t hint_ms,
                                    std::uint64_t& jitter_state) const;
};

class AdrClient {
 public:
  /// Tries once to connect to 127.0.0.1:`port` and never throws: a
  /// client may be constructed before its server finishes binding, and
  /// submit() connects (or reconnects) as needed.
  explicit AdrClient(std::uint16_t port, RetryPolicy policy = {});

  AdrClient(const AdrClient&) = delete;
  AdrClient& operator=(const AdrClient&) = delete;

  /// Sends the query with its Qos (deadline, priority and drop-on-expiry)
  /// and waits for the result,
  /// under the retry policy.  A server-side failure comes back with its
  /// typed code and message.  A saturated server answers kBusy
  /// (server_busy()) and closes the connection; the next submit
  /// reconnects.  Busy refusals, connect failures and (for idempotent
  /// policies) transport losses are retried with backoff, but no retry
  /// starts that could not finish before the Qos deadline.  When
  /// the budget runs out the result carries the last failure — a
  /// transport failure is kUnavailable ("connect failed before send" or
  /// "connection lost before result") — and result.attempts counts the
  /// attempts made.  Throws WireError only for a malformed reply.
  WireResult submit(const Query& query, const Qos& qos = {});

  /// Asks the live server for its observability snapshot:
  /// metrics_json is the obs registry rendered as JSON; trace_json is
  /// the Chrome trace_event export when `include_trace` is set and the
  /// server has tracing enabled (empty otherwise); history_json is the
  /// telemetry sampler's time-series ring when `include_history` is set
  /// (`history_samples` caps how many trailing samples come
  /// back, 0 = all).  The connection stays open — queries and stats
  /// requests interleave freely.  One attempt, no retries: throws
  /// std::runtime_error when the server is unreachable and StatusError
  /// when it refuses (busy).
  WireStatsReply stats(bool include_trace = false, bool include_history = false,
                       std::uint32_t history_samples = 0);

  bool connected() const;

 private:
  RetryPolicy policy_;
  std::uint64_t jitter_state_;

  /// Serialises threads that share this client's one connection.
  mutable std::mutex io_mutex_;
  FrameConnection conn_;
};

}  // namespace adr::net
