// ADR socket client (the paper's "sequential client").
//
// Connects to an AdrServer and submits range queries synchronously:
// each submit() sends one query frame and blocks for the result frame.
//
// Admission control lives on both ends of the socket.  The server
// refuses work it cannot take (busy frames carrying a retry-after
// hint); the client, when constructed with a RetryPolicy, answers those
// refusals — and transport losses on idempotent queries — with bounded
// automatic retries under exponential backoff plus seeded jitter,
// honoring the server's hint.  A bounded in-client pending queue
// (submit_async / try_submit_async) pushes the same discipline up to
// the application: callers feel backpressure at the client instead of
// flooding the socket.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/query.hpp"
#include "net/wire.hpp"

namespace adr::net {

/// Client-side retry and admission-control policy.
///
/// The default (max_attempts == 1) disables retries entirely and
/// preserves the legacy single-shot semantics: transport failures throw
/// and busy frames are returned to the caller as-is.
struct RetryPolicy {
  /// Total submit attempts per query (first try included).  1 = no
  /// retries (legacy behavior).
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
  /// Capacity of the in-client pending queue used by submit_async();
  /// submissions beyond it block (or fail, for try_submit_async) until
  /// the sender drains.
  std::size_t max_pending = 32;
};

class AdrClient {
 public:
  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit AdrClient(std::uint16_t port);

  /// Connects with a retry policy.  When the policy allows retries
  /// (max_attempts > 1) an initial connect failure does not throw — the
  /// first submit() attempts the connection under the retry loop, so a
  /// client may be constructed before its server finishes binding.
  AdrClient(std::uint16_t port, RetryPolicy policy);

  ~AdrClient();

  AdrClient(const AdrClient&) = delete;
  AdrClient& operator=(const AdrClient&) = delete;

  /// Sends the query (with its execution options) and waits
  /// for the result.  With the default single-shot policy: throws
  /// WireError / std::runtime_error on protocol or transport failure; a
  /// server-side query failure comes back as a WireResult whose status
  /// carries the typed code and message; a saturated server answers
  /// with kBusy (check server_busy()) and closes the connection —
  /// connected() turns false; reconnect and retry after
  /// result.retry_after_ms.
  ///
  /// With a retrying policy: busy refusals and (for idempotent
  /// policies) transport losses are retried automatically with
  /// exponential backoff, reconnecting as needed; the returned result
  /// records how many attempts ran (result.attempts).  When every
  /// attempt fails the result carries the last failure's status
  /// (kUnavailable for transport loss) instead of throwing, and the
  /// `client.gave_up` counter ticks.
  WireResult submit(const Query& query, const ExecOptions& options = {});

  /// Qos-taking overload: `qos` (deadline, priority, drop-on-expiry)
  /// rides in the query's exec options across the wire (query frames carry
  /// it as deadline-remaining ms) and additionally caps the retry loop —
  /// no retry is attempted that could not complete before the deadline,
  /// and kDeadlineExceeded answers are never retried.
  WireResult submit(const Query& query, const Qos& qos,
                    const ExecOptions& options = {});

  /// Enqueues a query on the bounded in-client pending queue and
  /// returns a future for its result; a background sender thread drains
  /// the queue through the same retry loop as submit().  Blocks while
  /// the queue holds max_pending entries (client-side admission
  /// control: backpressure reaches the caller before the socket).
  std::future<WireResult> submit_async(const Query& query,
                                       const ExecOptions& options = {});

  /// Qos-taking overload of submit_async (see submit(query, qos, ...)).
  /// The deadline keeps counting down while the query waits in the
  /// client's pending queue — a backlogged client sheds at send time.
  std::future<WireResult> submit_async(const Query& query, const Qos& qos,
                                       const ExecOptions& options = {});

  /// Non-blocking submit_async: returns nullopt instead of blocking
  /// when the pending queue is full.
  std::optional<std::future<WireResult>> try_submit_async(
      const Query& query, const ExecOptions& options = {});

  /// Qos-taking overload of try_submit_async.
  std::optional<std::future<WireResult>> try_submit_async(
      const Query& query, const Qos& qos, const ExecOptions& options = {});

  /// Queries currently waiting in the pending queue (not yet handed to
  /// the socket).
  std::size_t pending() const;

  /// Asks the live server for its observability snapshot:
  /// metrics_json is the obs registry rendered as JSON; trace_json is
  /// the Chrome trace_event export when `include_trace` is set and the
  /// server has tracing enabled (empty otherwise); history_json is the
  /// telemetry sampler's time-series ring when `include_history` is set
  /// (`history_samples` caps how many trailing samples come
  /// back, 0 = all).  The connection stays open — queries and stats
  /// requests interleave freely.
  WireStatsReply stats(bool include_trace = false, bool include_history = false,
                       std::uint32_t history_samples = 0);

  bool connected() const;

  const RetryPolicy& policy() const { return policy_; }

 private:
  struct Pending {
    Query query;
    ExecOptions options;
    std::promise<WireResult> promise;
  };

  /// One connect attempt; returns false (leaving fd_ == -1) on failure.
  bool connect_locked();
  /// The retry loop.  Caller holds io_mutex_.
  WireResult submit_locked(const Query& query, const ExecOptions& options);
  /// One send+receive attempt.  Returns nullopt on transport failure;
  /// `sent` reports whether any query bytes may have reached the server
  /// (false = the failure happened at connect time, so the query
  /// provably never executed and a retry is safe even for
  /// non-idempotent policies).
  std::optional<WireResult> attempt_locked(const Query& query,
                                           const ExecOptions& options,
                                           bool& sent);
  /// Backoff for retry number `retry` (1-based), stretched to the
  /// server's hint when one was given.
  std::chrono::milliseconds backoff_delay(int retry, std::uint32_t hint_ms);
  void sender_loop();
  void start_sender_locked();

  std::uint16_t port_;
  RetryPolicy policy_;
  std::uint64_t jitter_state_;

  /// Guards fd_ and all socket I/O: the synchronous API and the async
  /// sender thread share one connection.
  mutable std::mutex io_mutex_;
  int fd_ = -1;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool sender_started_ = false;
  std::thread sender_;
};

}  // namespace adr::net
