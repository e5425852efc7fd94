// ADR front-end socket server.
//
// "The front-end interacts with client applications and relays the range
// queries to the back-end... The socket interface is used for sequential
// clients." (paper sections 1-2)
//
// AdrServer listens on a loopback TCP port through the FrameLoop
// (net/frame_loop.hpp) it shares with AdrRouter: one event-loop thread
// owns every client socket, and AdrServer supplies only the handler.
// Each query frame goes to the server's QuerySubmissionService worker
// pool (the paper's query submission service), so execution concurrency
// is bounded by scheduler slots, not by a thread per connection.  The
// worker that finishes a query posts its ticket back to the loop, which
// encodes and writes the result.  docs/serving.md walks through the
// architecture, back-pressure path, fd life cycle and stop drain.
//
// Back-pressure is protocol-level: past `max_connections`, or when the
// scheduler's pending queue is full, the server replies with a
// WireResult{kBusy, "server busy"} frame — carrying a retry-after hint
// derived from the live queue-depth gauge and measured submit latency —
// and then closes, so clients can distinguish refusal from crash and
// know when retrying is worth it.
//
// Observability: every connection and query updates the process-wide
// obs::metrics() registry (server.* series; catalog in
// docs/observability.md), and a stats-request frame (wire protocol v3)
// on any connection answers with the registry snapshot as JSON plus,
// optionally, the query-lifecycle trace — see AdrClient::stats() and
// the adr_stats CLI tool.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/frontend.hpp"
#include "core/planner/cost_model.hpp"
#include "net/frame_loop.hpp"

namespace adr::net {

struct WireResult;
class HttpExpositionServer;

/// Continuous-telemetry knobs (now adr::TelemetryOptions, defined in
/// core/runtime_config.hpp so RuntimeConfig can carry it; this alias
/// keeps the historical adr::net name compiling).
using TelemetryOptions = adr::TelemetryOptions;

class AdrServer {
 public:
  /// Binds to 127.0.0.1:`port` (0 = pick an ephemeral port).  `costs`
  /// are the compute charges applied to every submitted query.
  /// `max_connections` bounds concurrently served clients;
  /// `scheduler_workers` bounds concurrently *executing* queries and
  /// `max_pending` bounds accepted-but-unfinished queries (beyond it,
  /// submits are refused with a "server busy" frame).
  AdrServer(Repository& repository, std::uint16_t port,
            const ComputeCosts& costs = {}, int max_connections = 64,
            int scheduler_workers = 4, std::size_t max_pending = 256,
            const TelemetryOptions& telemetry = {});

  /// RuntimeConfig overload: one validated struct carries the
  /// connection cap, scheduler shape, gang policy, telemetry knobs and
  /// the adaptive controller's band (core/runtime_config.hpp).  With
  /// runtime.adaptive.enabled the server owns an AdaptiveController
  /// that moves the repository's executor-pool cap and the scheduler's
  /// gang window from live sampler signals for the server's lifetime.
  AdrServer(Repository& repository, std::uint16_t port, const ComputeCosts& costs,
            const RuntimeConfig& runtime);
  ~AdrServer();

  AdrServer(const AdrServer&) = delete;
  AdrServer& operator=(const AdrServer&) = delete;

  /// Starts the event loop on a background thread.
  void start();

  /// Graceful drain: stops accepting, lets in-flight queries finish and
  /// flushes their result frames (bounded per-connection drain
  /// deadlines, so a peer that never reads cannot hold stop() hostage),
  /// then joins the loop thread and the scheduler workers.
  void stop();

  /// The bound port (valid after construction).
  std::uint16_t port() const { return loop_.port(); }

  /// The HTTP exposition port, or 0 when TelemetryOptions::http_port
  /// disabled it (valid after construction).
  std::uint16_t http_port() const;

  std::uint64_t queries_served() const { return served_.load(); }

  /// Connections currently being served.  Lock-free: the loop maintains
  /// an atomic count, so this never waits on connection I/O.
  std::size_t active_connections() const { return loop_.active_connections(); }

  /// Connections refused because max_connections was reached (each got a
  /// "server busy" frame before the close).
  std::uint64_t connections_refused() const { return loop_.connections_refused(); }

  /// Queries refused because the scheduler's pending queue was full.
  std::uint64_t queries_refused() const { return queries_refused_.load(); }

  /// Queries refused at admission because their Qos deadline had already
  /// expired, or a saturated-path retry hint overshot it (each got a
  /// typed kDeadlineExceeded frame).
  std::uint64_t deadline_refusals() const { return deadline_refusals_.load(); }

  /// The adaptive controller, or nullptr when the server was built
  /// without one (legacy constructors / runtime.adaptive.enabled off).
  const AdaptiveController* adaptive() const { return adaptive_.get(); }

 private:
  /// FrameLoop handler (loop thread): stats inline, queries to the
  /// scheduler, refusals with the retry-after hint.
  void on_frame(FrameLoop::Slot slot, std::vector<std::byte> payload);
  /// Posts a result frame for `slot`; every result passes the
  /// `net.reply_drop` fault point here.  `ticket` tags the trace span.
  void send_result(FrameLoop::Slot slot, const WireResult& result,
                   FrameLoop::Then then, std::uint64_t ticket = 0);
  /// Loop thread, posted by the scheduler's completion hook: turns the
  /// finished ticket's outcome into its reply.
  void finish_ticket(std::uint64_t ticket);

  /// Retry-after estimate for busy refusals: the queue the caller would
  /// sit behind (live scheduler depth gauges) times the measured mean
  /// submit latency, per worker.
  std::uint32_t retry_after_hint_ms() const;

  Repository* repository_;
  ComputeCosts costs_;
  TelemetryOptions telemetry_;
  /// Constructed eagerly (the bind can throw; callers learn at
  /// construction, not at start()); serving begins in start().
  std::unique_ptr<HttpExpositionServer> http_;
  /// Routes every query; bounded by scheduler slots, shared by all
  /// connections.
  QuerySubmissionService scheduler_;
  /// Feedback controller over the executor pool + gang window; non-null
  /// only for the RuntimeConfig constructor with adaptive.enabled.
  std::unique_ptr<AdaptiveController> adaptive_;
  const int scheduler_workers_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> queries_refused_{0};
  std::atomic<std::uint64_t> deadline_refusals_{0};

  /// In-flight ticket -> the request slot its result answers (loop
  /// thread only).
  std::unordered_map<std::uint64_t, FrameLoop::Slot> routes_;

  /// The listen socket and every client connection.  Declared last: it
  /// binds after the members its handler uses exist.
  FrameLoop loop_;
};

}  // namespace adr::net
