#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "net/http_exposition.hpp"
#include "net/wire.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace adr::net {
namespace {

// Cumulative process-wide series (metric catalog: docs/observability.md;
// the connection series come from the FrameLoop under the same prefix).
struct ServerMetrics {
  obs::Counter& queries_served;
  obs::Counter& queries_refused;
  obs::Counter& deadline_refusals;
  obs::Counter& stats_requests;
};

ServerMetrics& server_metrics() {
  static ServerMetrics m{obs::metrics().counter("server.queries_served"),
                         obs::metrics().counter("server.queries_refused"),
                         obs::metrics().counter("server.deadline_refusals"),
                         obs::metrics().counter("server.stats_requests")};
  return m;
}

}  // namespace

AdrServer::AdrServer(Repository& repository, std::uint16_t port,
                     const ComputeCosts& costs, const RuntimeConfig& runtime)
    : repository_((runtime.check(), &repository)),
      costs_(costs),
      telemetry_(runtime.telemetry),
      scheduler_(repository, runtime.max_pending),
      scheduler_workers_(static_cast<int>(runtime.scheduler_workers)),
      loop_("server", port, static_cast<int>(runtime.max_connections),
            FrameLoop::Handler{
                [this](FrameLoop::Slot slot, std::vector<std::byte> payload) {
                  on_frame(slot, std::move(payload));
                },
                [this]() {
                  WireResult busy;
                  busy.status = Status::make(StatusCode::kBusy, kServerBusyError);
                  busy.retry_after_ms = retry_after_hint_ms();
                  return encode_result(busy);
                }}) {
  if (telemetry_.http_port >= 0) {
    http_ = std::make_unique<HttpExpositionServer>(
        static_cast<std::uint16_t>(telemetry_.http_port));
  }
}

AdrServer::~AdrServer() { stop(); }

std::uint16_t AdrServer::http_port() const { return http_ ? http_->port() : 0; }

void AdrServer::start() {
  if (running_.exchange(true)) return;
  // Continuous telemetry for the server's lifetime: the sampler feeds
  // the /history endpoints (wire and HTTP); both are refcounted /
  // idempotent, so stacked servers in one process compose.
  if (telemetry_.sampler) {
    obs::TelemetrySampler::Options opts;
    opts.period = telemetry_.sample_period;
    opts.capacity = telemetry_.sample_capacity;
    obs::sampler().start(opts);
  }
  if (http_) http_->start();
  // Completion routing: the worker that finished a query hands its
  // ticket to the loop, which takes the outcome, encodes the result and
  // writes it — the loop alone touches sockets.
  scheduler_.set_completion_callback([this](std::uint64_t ticket) {
    loop_.post([this, ticket]() { finish_ticket(ticket); });
  });
  scheduler_.start(scheduler_workers_);
  loop_.start();
}

void AdrServer::stop() {
  const bool was_running = running_.exchange(false);
  // Drains in-flight replies, closes every connection and the listen
  // socket (even when start() never ran), then joins the loop.
  loop_.stop();
  if (http_) http_->stop();
  // Release the sampler ref taken in start() exactly once (stop() runs
  // again from the destructor).
  if (was_running && telemetry_.sampler) obs::sampler().stop();
  scheduler_.stop();
}

std::uint32_t AdrServer::retry_after_hint_ms() const {
  // First consumer of the live metrics: the refused client should come
  // back roughly when the backlog it would sit behind has drained.
  const std::int64_t depth =
      obs::metrics().gauge("scheduler.queue_depth").value() +
      obs::metrics().gauge("scheduler.in_flight").value();
  // Prefer the *windowed* submit-latency mean (last few sampler ring
  // samples): the cumulative mean never forgets a morning burst, so
  // hints computed from it keep overestimating long after the burst
  // subsides.  Fall back to cumulative when the ring is too short.
  double mean_s =
      obs::windowed_histogram_mean(obs::sampler().history(8), "submit.latency_s")
          .value_or(0.0);
  if (mean_s <= 0.0) {
    mean_s = obs::metrics().histogram("submit.latency_s").snapshot().mean();
  }
  if (mean_s <= 0.0) mean_s = 0.05;  // nothing measured yet: polite default
  const double eta_s =
      (static_cast<double>(std::max<std::int64_t>(depth, 0)) /
           static_cast<double>(std::max(1, scheduler_workers_)) +
       1.0) *
      mean_s;
  return static_cast<std::uint32_t>(std::clamp(eta_s * 1000.0, 25.0, 10000.0));
}

// ------------------------------------------------------- the handler

void AdrServer::on_frame(FrameLoop::Slot slot, std::vector<std::byte> payload) {
  if (is_stats_request(payload)) {
    // Stats endpoint: answer in-band and keep the connection open, so a
    // monitoring client can poll the same socket it queries on.
    WireStatsReply reply;
    try {
      const WireStatsRequest req = decode_stats_request(payload);
      reply.metrics_json = obs::metrics().snapshot().to_json();
      if (req.include_trace && obs::tracer().enabled()) {
        reply.trace_json = obs::tracer().chrome_json();
      }
      if (req.include_history) {
        // Empty ring (sampler idle) still renders valid JSON with zero
        // samples — clients need no special case.
        reply.history_json = obs::sampler().history_json(req.history_samples);
      }
    } catch (const std::exception& e) {
      ADR_WARN("server: stats request failed: " << e.what());
      loop_.reply(slot, {}, FrameLoop::Then::kAbort);
      return;
    }
    server_metrics().stats_requests.add();
    loop_.reply(slot, encode_stats_reply(reply));
    return;
  }
  WireResult result;
  try {
    // The Qos decoded from the frame travels with the query through the
    // scheduler to execution.
    const WireQuery wq = decode_query_frame(payload);
    const Qos& qos = wq.qos;
    // Deadline-aware admission: a drop-on-expiry query whose deadline
    // already passed gets the typed refusal immediately — queueing it
    // only to shed it later wastes a scheduler slot.  The connection
    // survives: the client is behaving, its clock just ran out.
    if (qos.drop_on_expiry && qos.expired()) {
      ++deadline_refusals_;
      server_metrics().deadline_refusals.add();
      result.status = Status::make(StatusCode::kDeadlineExceeded,
                                   "deadline expired before admission");
      send_result(slot, result, FrameLoop::Then::kKeepOpen);
      return;
    }
    // The connection id is the scheduler's FIFO lane.
    const std::uint64_t ticket =
        scheduler_.try_enqueue(wq.query, costs_, slot.conn, ExecOptions{.qos = qos});
    if (ticket != 0) {
      // finish_ticket() runs on this thread, so the route is in place
      // even for a query that completes at once.
      routes_.emplace(ticket, slot);
      return;
    }
    // Scheduler saturated: protocol-level refusal, then close.
    ++queries_refused_;
    server_metrics().queries_refused.add();
    ADR_WARN("server: scheduler full, refusing query on connection " << slot.conn);
    const std::uint32_t hint_ms = retry_after_hint_ms();
    // A busy + retry-after answer is a lie when the hint overshoots the
    // query's remaining deadline budget: the retry would only arrive to
    // be refused again.  Tell the client the truth — kDeadlineExceeded,
    // which its RetryPolicy never retries.
    if (qos.drop_on_expiry && qos.has_deadline() &&
        std::chrono::milliseconds(hint_ms) >= qos.remaining()) {
      ++deadline_refusals_;
      server_metrics().deadline_refusals.add();
      result.status = Status::make(StatusCode::kDeadlineExceeded,
                                   "saturated: a retry would miss the deadline");
    } else {
      result.status = Status::make(StatusCode::kBusy, kServerBusyError);
      result.retry_after_ms = hint_ms;
    }
    send_result(slot, result, FrameLoop::Then::kClose);
    return;
  } catch (const std::exception& e) {
    result.status = status_from_exception(e);
    ADR_WARN("server: query failed: " << e.what());
  }
  // Malformed frame: an error result, and the connection survives.
  send_result(slot, result, FrameLoop::Then::kKeepOpen);
}

void AdrServer::finish_ticket(std::uint64_t ticket) {
  const auto route = routes_.find(ticket);
  if (route == routes_.end()) return;
  const FrameLoop::Slot slot = route->second;
  routes_.erase(route);
  std::optional<QuerySubmissionService::Outcome> outcome = scheduler_.try_take(ticket);
  WireResult result;
  if (outcome && outcome->ok()) {
    result = to_wire_result(outcome->result);
  } else {
    result.status = outcome ? std::move(outcome->status)
                            : Status::make(StatusCode::kInternal, "query outcome lost");
    ADR_WARN("server: query failed: " << result.status.to_string());
  }
  send_result(slot, result, FrameLoop::Then::kKeepOpen, ticket);
}

void AdrServer::send_result(FrameLoop::Slot slot, const WireResult& result,
                            FrameLoop::Then then, std::uint64_t ticket) {
  // Injected reply drop: the query executed, but the result frame never
  // leaves the server — the client sees the connection close mid-query
  // (kUnavailable) and must decide whether to retry.
  if (fault::faults().fires("net.reply_drop")) {
    ADR_WARN("server: dropping reply on connection " << slot.conn
                                                     << " (injected fault)");
    loop_.reply(slot, {}, FrameLoop::Then::kAbort);
    return;
  }
  const bool tracing = obs::tracer().enabled();
  const std::uint64_t reply_ts = tracing ? obs::tracer().now_us() : 0;
  std::vector<std::byte> frame = encode_result(result);
  if (tracing && ticket != 0) {
    // Last span of the query lifecycle: serializing the result frame.
    obs::TraceEvent ev;
    ev.name = "reply";
    ev.query = ticket;
    ev.ts_us = reply_ts;
    ev.dur_us = obs::tracer().now_us() - reply_ts;
    ev.tid = static_cast<std::uint32_t>(ticket);
    obs::tracer().record(ev);
  }
  std::function<void()> on_queued;
  if (result.ok()) {
    // Counted once the frame is buffered for the peer, before it can be
    // read: a client that holds a result always sees it counted.
    on_queued = [this]() {
      ++served_;
      server_metrics().queries_served.add();
    };
  }
  loop_.reply(slot, std::move(frame), then, std::move(on_queued));
}

}  // namespace adr::net
