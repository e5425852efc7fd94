#include "net/client.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "obs/metrics.hpp"

namespace adr::net {
namespace {

// Cumulative process-wide series (metric catalog: docs/observability.md).
struct ClientMetrics {
  obs::Counter& retries;
  obs::Counter& gave_up;
};

ClientMetrics& client_metrics() {
  static ClientMetrics m{obs::metrics().counter("client.retries"),
                         obs::metrics().counter("client.gave_up")};
  return m;
}

}  // namespace

std::chrono::milliseconds RetryPolicy::backoff(int retry, std::uint32_t hint_ms,
                                               std::uint64_t& jitter_state) const {
  double ms = static_cast<double>(initial_backoff.count());
  for (int i = 1; i < retry; ++i) ms *= backoff_multiplier;
  ms = std::min(ms, static_cast<double>(max_backoff.count()));
  if (jitter > 0.0) {
    ms *= 1.0 - jitter + 2.0 * jitter * splitmix_unit(jitter_state);
  }
  if (honor_retry_after && hint_ms > 0) {
    // The server told us when the backlog should have drained; retrying
    // earlier than that just gets refused again.
    ms = std::max(ms, static_cast<double>(hint_ms));
  }
  return std::chrono::milliseconds(
      std::max<std::int64_t>(0, static_cast<std::int64_t>(ms)));
}

AdrClient::AdrClient(std::uint16_t port, RetryPolicy policy)
    : policy_(policy),
      // Mix the port in so two same-seed clients on different servers
      // still draw distinct jitter streams.
      jitter_state_(policy.seed * 0x9e3779b97f4a7c15ull + port + 1),
      conn_(port) {
  conn_.connect();
}

bool AdrClient::connected() const {
  std::lock_guard lock(io_mutex_);
  return conn_.connected();
}

WireResult AdrClient::submit(const Query& query, const Qos& qos) {
  std::lock_guard lock(io_mutex_);
  const int max_attempts = std::max(1, policy_.max_attempts);
  WireResult last;
  for (int attempt = 1;; ++attempt) {
    // Encoded per attempt: the frame carries the deadline as remaining
    // milliseconds, which shrink across retries.
    std::vector<std::byte> reply;
    const FrameConnection::Outcome outcome =
        conn_.exchange(encode_query(query, qos), reply);
    const bool sent = outcome != FrameConnection::Outcome::kConnectFailed;
    if (outcome == FrameConnection::Outcome::kOk) {
      last = decode_result(reply);
      // The server closes a connection after refusing it busy; drop our
      // side too so the next attempt reconnects.
      if (last.server_busy()) conn_.close();
    } else {
      last = WireResult{};
      last.status = Status::make(StatusCode::kUnavailable,
                                 sent ? "connection lost before result"
                                      : "connect failed before send");
    }
    last.attempts = static_cast<std::uint32_t>(attempt);
    if (last.ok() || attempt >= max_attempts) break;
    // A connect-stage failure never reached a server, so the query
    // provably never executed: retryable even for non-idempotent
    // policies (the server may simply not be listening yet).
    if (!is_retryable(last.status.code, policy_.idempotent || !sent)) return last;
    const auto delay = policy_.backoff(attempt, last.retry_after_ms, jitter_state_);
    // Deadline cap: a retry that cannot start (let alone finish) before
    // the query's Qos deadline would only burn a server slot to learn
    // kDeadlineExceeded — stop here and return the last real failure.
    if (qos.has_deadline() && std::chrono::steady_clock::now() + delay >= qos.deadline) {
      ADR_DEBUG("client: deadline reached, not retrying ("
                << last.status.to_string() << ")");
      break;
    }
    ADR_DEBUG("client: retrying (" << last.status.to_string() << ") in "
                                   << delay.count() << "ms, attempt "
                                   << attempt + 1 << "/" << max_attempts);
    client_metrics().retries.add();
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  if (!last.ok()) client_metrics().gave_up.add();
  return last;
}

WireStatsReply AdrClient::stats(bool include_trace, bool include_history,
                                std::uint32_t history_samples) {
  std::lock_guard lock(io_mutex_);
  WireStatsRequest req;
  req.include_trace = include_trace;
  req.include_history = include_history;
  req.history_samples = history_samples;
  std::vector<std::byte> payload;
  switch (conn_.exchange(encode_stats_request(req), payload)) {
    case FrameConnection::Outcome::kOk:
      break;
    case FrameConnection::Outcome::kConnectFailed:
      throw std::runtime_error("AdrClient: not connected");
    case FrameConnection::Outcome::kLostAfterSend:
      throw std::runtime_error("AdrClient: connection closed before stats reply");
  }
  if (is_result_frame(payload)) {
    // A server at its connection cap answers every new connection with a
    // busy result frame and closes — surface the typed status (and its
    // retry-after hint) instead of a "not a stats reply" decode error.
    const WireResult result = decode_result_head(payload);
    conn_.close();
    std::string msg = result.status.message.empty() ? std::string(kServerBusyError)
                                                    : result.status.message;
    if (result.retry_after_ms > 0) {
      msg += " (retry after " + std::to_string(result.retry_after_ms) + "ms)";
    }
    throw StatusError(result.status.code == StatusCode::kOk ? StatusCode::kUnavailable
                                                            : result.status.code,
                      msg);
  }
  return decode_stats_reply(payload);
}

}  // namespace adr::net
