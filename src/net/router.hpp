// adr_router: the sharded serving tier's front end.
//
// One router process owns the client connections (the FrameLoop it
// shares with AdrServer, net/frame_loop.hpp) and routes each query by
// *dataset signature* — consistent hashing over a ring of N independent
// AdrServer backends — so a dataset's queries keep landing on the same
// backend and its chunk/marginal caches stay hot.  This is the paper's
// distributed-memory story reborn at the serving tier: partition by
// key, fan out, combine (cf. the MapReduce marginal lines in
// PAPERS.md), with the partition function chosen for minimal remap
// under membership change (common/hash_ring.hpp).
//
// Data path: the loop hands each complete client frame to the router's
// handler, which answers stats requests in-loop with the router's own
// metrics snapshot and hands query frames — as raw bytes, never
// re-encoded — to a small pool of forwarder threads, one frame per
// connection at a time.  A forwarder decodes only enough to compute the
// signature, resolves the ordered backend candidates from the ring (the
// first `replication` are the replica set, rotated per query so a hot
// dataset fans out), and relays the frame over a cached FrameConnection
// (net/socket_io.hpp) — the blocking connection AdrClient uses too.  The
// backend's result frame travels back verbatim, so routed results are
// byte-identical to direct ones.
//
// Failure model (docs/sharding.md): a dead backend is just
// kUnavailable on an idempotent query.  Transport losses and
// kUnavailable/kIoError/kBusy answers fail over to the next candidate
// under the shared RetryPolicy, sleeping RetryPolicy::backoff between
// attempts exactly as AdrClient does; consecutive failures mark a backend
// down (skipped by routing), a background prober — speaking the wire
// stats protocol — drives half-open recovery.  Only when every
// candidate inside the attempt budget fails does the client see a
// synthesized kUnavailable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash_ring.hpp"
#include "net/client.hpp"
#include "net/frame_loop.hpp"
#include "net/socket_io.hpp"

namespace adr::net {

/// Health state machine for one backend, pure and time-explicit so the
/// transitions are unit-testable without sleeping: every method takes
/// `now`.  Not internally locked — the router guards each instance
/// with its backend's mutex.
///
///   kUp --(mark_down_after consecutive failures)--> kDown
///   kDown --(half_open_after elapsed)--> kHalfOpen
///   kHalfOpen: admit() grants exactly one trial;
///     success --> kUp, failure --> kDown (timer restarts)
class BackendHealth {
 public:
  enum class State { kUp, kDown, kHalfOpen };

  using Clock = std::chrono::steady_clock;

  BackendHealth(int mark_down_after, std::chrono::milliseconds half_open_after)
      : mark_down_after_(mark_down_after), half_open_after_(half_open_after) {}

  State state(Clock::time_point now) const {
    if (!down_) return State::kUp;
    return now >= down_since_ + half_open_after_ ? State::kHalfOpen
                                                 : State::kDown;
  }

  /// May a request be sent now?  Up: always.  Down: no.  Half-open:
  /// exactly one caller gets a trial until its verdict lands.
  bool admit(Clock::time_point now) {
    switch (state(now)) {
      case State::kUp:
        return true;
      case State::kDown:
        return false;
      case State::kHalfOpen:
        if (trial_in_flight_) return false;
        trial_in_flight_ = true;
        return true;
    }
    return false;
  }

  void record_success(Clock::time_point) {
    down_ = false;
    trial_in_flight_ = false;
    consecutive_failures_ = 0;
  }

  void record_failure(Clock::time_point now) {
    trial_in_flight_ = false;
    if (down_) {
      down_since_ = now;  // failed half-open trial: restart the timer
      return;
    }
    if (++consecutive_failures_ >= mark_down_after_) {
      down_ = true;
      down_since_ = now;
    }
  }

  int consecutive_failures() const { return consecutive_failures_; }

  /// True in kDown *and* kHalfOpen (marked down until a trial succeeds).
  bool marked_down() const { return down_; }

 private:
  const int mark_down_after_;
  const std::chrono::milliseconds half_open_after_;
  int consecutive_failures_ = 0;
  bool down_ = false;
  bool trial_in_flight_ = false;
  Clock::time_point down_since_{};
};

struct RouterConfig {
  /// Loopback ports of the AdrServer backends (the ring nodes).
  std::vector<std::uint16_t> backend_ports;
  /// Client connections served at once; excess connects get an orderly
  /// busy result frame, exactly like AdrServer's cap.
  int max_connections = 256;
  /// Forwarder threads relaying query frames to backends.
  int forwarders = 4;
  /// Virtual nodes per backend on the ring.
  int vnodes_per_backend = 64;
  /// Replica fan-out width: a dataset's queries rotate over the first
  /// `replication` ring candidates instead of pinning to one backend,
  /// trading cache affinity for hot-dataset spread.  Clamped to the
  /// backend count.
  int replication = 1;
  /// Failover budget and backoff for one routed query (attempts span
  /// candidates: attempt k goes to candidate k mod live-candidates).
  /// kBusy honors the backend's retry-after hint exactly like
  /// AdrClient.  idempotent gates failover after a transport loss
  /// mid-query — see docs/robustness.md.
  RetryPolicy retry{.max_attempts = 3,
                    .initial_backoff = std::chrono::milliseconds(5)};
  /// Consecutive failures before a backend is marked down.
  int mark_down_after = 3;
  /// Down time before a half-open trial is allowed.
  std::chrono::milliseconds half_open_after{500};
  /// Background health-probe cadence (stats request per backend);
  /// <= 0 disables probing — health then moves only with traffic.
  std::chrono::milliseconds probe_interval{200};
  /// Per-backend-connection socket receive timeout: a backend that
  /// stops answering (without dying) is treated as a transport loss
  /// after this long instead of hanging a forwarder forever.
  std::chrono::milliseconds backend_recv_timeout{30'000};
};

/// The router front end.  The constructor binds 127.0.0.1:`port` (0 =
/// ephemeral; port() reports the bound one); start() runs the event
/// loop, the forwarder pool and the prober; stop() drains and joins.
class AdrRouter {
 public:
  explicit AdrRouter(RouterConfig config, std::uint16_t port = 0);
  ~AdrRouter();

  AdrRouter(const AdrRouter&) = delete;
  AdrRouter& operator=(const AdrRouter&) = delete;

  void start();
  void stop();

  std::uint16_t port() const { return loop_.port(); }

  /// Health snapshot of one backend (kDown for unknown ports).
  BackendHealth::State backend_state(std::uint16_t backend_port) const;

  /// Ordered failover candidates for a query signature (introspection
  /// for tests: the full distinct ring order, replica set first).
  std::vector<std::uint16_t> candidates_for(std::uint64_t signature) const;

 private:
  struct Backend;

  /// One query frame on its way to a backend.
  struct Job {
    FrameLoop::Slot slot;
    std::vector<std::byte> frame;  // raw query frame from the client
  };

  /// FrameLoop handler (loop thread): stats inline, query frames into
  /// their connection's lane.
  void on_frame(FrameLoop::Slot slot, std::vector<std::byte> frame);

  void forwarder_loop(int index);
  /// Routes one query frame over the forwarder's connections (one per
  /// backend, indexed like backends_); returns the raw result frame to
  /// send.
  std::vector<std::byte> route(const std::vector<std::byte>& frame,
                               std::vector<FrameConnection>& conns,
                               std::uint64_t& jitter_state);

  void prober_loop();
  bool probe(Backend& backend);

  Backend* backend_of(std::uint16_t backend_port) const;
  void note_result(Backend& backend, bool success);

  RouterConfig config_;
  HashRing ring_;
  /// Fixed at construction: membership changes are a restart (the ring
  /// minimizes remap across restarts, not within one process).
  std::vector<std::unique_ptr<Backend>> backends_;

  std::atomic<bool> running_{false};

  /// Loop -> forwarders.  A connection's query frames queue in its lane
  /// and only the lane's head is at a forwarder, so one connection's
  /// queries never race each other.
  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::unordered_map<std::uint64_t, std::deque<Job>> lanes_;
  /// Connections whose lane head waits for a forwarder.
  std::deque<std::uint64_t> ready_;

  /// Per-query rotation over the replica set (hot-dataset fan-out).
  std::atomic<std::uint64_t> rotation_{0};

  /// The listen socket and every client connection.  Declared after the
  /// members its handler uses; the threads that post to it follow.
  FrameLoop loop_;
  std::vector<std::thread> forwarders_;
  std::thread prober_;
};

/// Signature a query is routed by: a mix of every dataset id it
/// touches, so all queries over one dataset family share a backend
/// (and its caches), while distinct datasets spread over the ring.
std::uint64_t dataset_signature(const Query& query);

}  // namespace adr::net
