#include "net/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "net/socket_io.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace adr::net {
namespace {

using Clock = std::chrono::steady_clock;

// Cumulative process-wide series (metric catalog: docs/observability.md;
// the connection series come from the FrameLoop under the same prefix).
struct RouterMetrics {
  obs::Counter& queries;
  obs::Counter& forwarded;
  obs::Counter& failovers;
  obs::Counter& retries;
  obs::Counter& exhausted;
  obs::Counter& stats_requests;
  obs::Counter& probes;
  obs::Counter& probe_failures;
  obs::Gauge& backends_down;
};

RouterMetrics& router_metrics() {
  static RouterMetrics m{obs::metrics().counter("router.queries"),
                         obs::metrics().counter("router.forwarded"),
                         obs::metrics().counter("router.failovers"),
                         obs::metrics().counter("router.retries"),
                         obs::metrics().counter("router.exhausted"),
                         obs::metrics().counter("router.stats_requests"),
                         obs::metrics().counter("router.probes"),
                         obs::metrics().counter("router.probe_failures"),
                         obs::metrics().gauge("router.backends_down")};
  return m;
}

std::vector<std::byte> unavailable_frame(const std::string& message) {
  WireResult r;
  r.status = Status::make(StatusCode::kUnavailable, message);
  return encode_result(r);
}

}  // namespace

std::uint64_t dataset_signature(const Query& query) {
  std::uint64_t s = mix64(0x51a7ed5ull + query.input_dataset);
  for (const std::uint32_t extra : query.extra_input_datasets) {
    s = mix64(s ^ mix64(extra + 1));
  }
  return mix64(s ^ mix64(query.output_dataset + 0x7fffull));
}

// Per-backend routing state.  `mutex` guards `health`; the metric
// references are internally thread-safe.
struct AdrRouter::Backend {
  std::uint16_t port;
  std::size_t index;  // position in backends_ and in each forwarder's connections
  mutable std::mutex mutex;
  BackendHealth health;
  obs::Counter& queries;
  obs::Gauge& up_gauge;

  Backend(std::uint16_t p, std::size_t i, const RouterConfig& config)
      : port(p),
        index(i),
        health(config.mark_down_after, config.half_open_after),
        queries(obs::metrics().counter("router.backend." + std::to_string(p) +
                                       ".queries")),
        up_gauge(obs::metrics().gauge("router.backend." + std::to_string(p) +
                                      ".up")) {
    up_gauge.set(1);
  }
};

AdrRouter::AdrRouter(RouterConfig config, std::uint16_t port)
    : config_(std::move(config)),
      ring_(config_.vnodes_per_backend),
      loop_("router", port, config_.max_connections,
            FrameLoop::Handler{
                [this](FrameLoop::Slot slot, std::vector<std::byte> frame) {
                  on_frame(slot, std::move(frame));
                },
                []() {
                  WireResult busy;
                  busy.status = Status::make(StatusCode::kBusy, kServerBusyError);
                  busy.retry_after_ms = 100;
                  return encode_result(busy);
                }}) {
  if (config_.backend_ports.empty()) {
    throw std::invalid_argument("AdrRouter: no backends configured");
  }
  if (config_.max_connections < 1) {
    throw std::invalid_argument("AdrRouter: max_connections must be >= 1");
  }
  if (config_.forwarders < 1) {
    throw std::invalid_argument("AdrRouter: forwarders must be >= 1");
  }
  for (const std::uint16_t p : config_.backend_ports) {
    if (ring_.contains(p)) {
      throw std::invalid_argument("AdrRouter: duplicate backend port");
    }
    ring_.add_node(p);
    backends_.push_back(std::make_unique<Backend>(p, backends_.size(), config_));
  }
}

AdrRouter::~AdrRouter() { stop(); }

void AdrRouter::start() {
  if (running_.exchange(true)) return;
  for (int i = 0; i < config_.forwarders; ++i) {
    forwarders_.emplace_back([this, i]() { forwarder_loop(i); });
  }
  if (config_.probe_interval.count() > 0) {
    prober_ = std::thread([this]() { prober_loop(); });
  }
  loop_.start();
}

void AdrRouter::stop() {
  // The forwarders keep relaying while the loop drains, so in-flight
  // replies reach their clients; this also closes the listen socket
  // when start() never ran.
  loop_.stop();
  {
    std::lock_guard lock(job_mutex_);
    if (!running_.exchange(false)) return;
  }
  job_cv_.notify_all();
  for (std::thread& t : forwarders_) t.join();
  forwarders_.clear();
  if (prober_.joinable()) prober_.join();
}

AdrRouter::Backend* AdrRouter::backend_of(std::uint16_t backend_port) const {
  for (const auto& b : backends_) {
    if (b->port == backend_port) return b.get();
  }
  return nullptr;
}

BackendHealth::State AdrRouter::backend_state(std::uint16_t backend_port) const {
  const Backend* b = backend_of(backend_port);
  if (b == nullptr) return BackendHealth::State::kDown;
  std::lock_guard lock(b->mutex);
  return b->health.state(Clock::now());
}

std::vector<std::uint16_t> AdrRouter::candidates_for(
    std::uint64_t signature) const {
  std::vector<std::uint16_t> out;
  for (const std::uint64_t node : ring_.replicas(signature, backends_.size())) {
    out.push_back(static_cast<std::uint16_t>(node));
  }
  return out;
}

void AdrRouter::note_result(Backend& backend, bool success) {
  std::lock_guard lock(backend.mutex);
  const bool was_down = backend.health.marked_down();
  if (success) {
    backend.health.record_success(Clock::now());
  } else {
    backend.health.record_failure(Clock::now());
  }
  const bool is_down = backend.health.marked_down();
  if (was_down != is_down) {
    router_metrics().backends_down.add(is_down ? 1 : -1);
    backend.up_gauge.set(is_down ? 0 : 1);
    if (is_down) {
      ADR_WARN("router: backend " << backend.port << " marked down");
    } else {
      ADR_INFO("router: backend " << backend.port << " recovered");
    }
  }
}

// ------------------------------------------------------- the handler

void AdrRouter::on_frame(FrameLoop::Slot slot, std::vector<std::byte> frame) {
  if (is_stats_request(frame)) {
    // Answered in-loop: the router's own metrics snapshot, which is
    // where router.* health and failover series live.
    router_metrics().stats_requests.add();
    WireStatsReply reply;
    reply.metrics_json = obs::metrics().snapshot().to_json();
    loop_.reply(slot, encode_stats_reply(reply));
    return;
  }
  {
    std::lock_guard lock(job_mutex_);
    std::deque<Job>& lane = lanes_[slot.conn];
    lane.push_back(Job{slot, std::move(frame)});
    if (lane.size() > 1) return;  // waits behind the connection's head
    ready_.push_back(slot.conn);
  }
  job_cv_.notify_one();
}

// ------------------------------------------------------- forwarders

void AdrRouter::forwarder_loop(int index) {
  // Per-forwarder jitter stream: deterministic under a fixed policy
  // seed, distinct across forwarders.
  std::uint64_t jitter_state =
      config_.retry.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(index) + 1;
  std::vector<FrameConnection> conns;
  conns.reserve(backends_.size());
  for (const auto& b : backends_) conns.emplace_back(b->port, config_.backend_recv_timeout);
  std::unique_lock lock(job_mutex_);
  for (;;) {
    job_cv_.wait(lock, [this]() { return !running_.load() || !ready_.empty(); });
    if (!running_.load()) break;
    const std::uint64_t conn = ready_.front();
    ready_.pop_front();
    Job& head = lanes_[conn].front();
    const FrameLoop::Slot slot = head.slot;
    const std::vector<std::byte> frame = std::move(head.frame);
    lock.unlock();
    loop_.reply(slot, route(frame, conns, jitter_state));
    lock.lock();
    // The head is answered: the connection's next frame, if any, is up.
    std::deque<Job>& lane = lanes_[conn];
    lane.pop_front();
    if (lane.empty()) {
      lanes_.erase(conn);
    } else {
      ready_.push_back(conn);
    }
  }
}

std::vector<std::byte> AdrRouter::route(const std::vector<std::byte>& frame,
                                        std::vector<FrameConnection>& conns,
                                        std::uint64_t& jitter_state) {
  router_metrics().queries.add();
  std::uint64_t signature = 0;
  try {
    signature = dataset_signature(decode_query_frame(frame).query);
  } catch (const std::exception& e) {
    WireResult r;
    r.status = Status::make(StatusCode::kInvalidArgument,
                            std::string("router: bad query frame: ") + e.what());
    return encode_result(r);
  }

  // Ordered failover candidates: the replica set (first `replication`
  // ring nodes, rotated per query so a hot dataset fans out), then the
  // rest of the ring in order.
  const std::vector<std::uint16_t> ring_order = candidates_for(signature);
  const std::size_t n = ring_order.size();
  const std::size_t width = static_cast<std::size_t>(
      std::clamp<int>(config_.replication, 1, static_cast<int>(n)));
  const std::size_t offset = rotation_.fetch_add(1) % width;
  std::vector<std::uint16_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < width; ++i) {
    order.push_back(ring_order[(offset + i) % width]);
  }
  for (std::size_t i = width; i < n; ++i) order.push_back(ring_order[i]);

  const int max_attempts = std::max(1, config_.retry.max_attempts);
  std::vector<std::byte> last_reply;
  std::size_t position = 0;  // next candidate to try
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // Prefer the next candidate routing admits (skipping marked-down
    // backends); when *every* backend is inadmissible, force the
    // positional one — total mark-down must degrade to trying, not to
    // refusing without a connect.
    Backend* target = nullptr;
    const auto now = Clock::now();
    for (std::size_t probe = 0; probe < n; ++probe) {
      Backend* b = backend_of(order[(position + probe) % n]);
      if (b == nullptr) continue;
      std::lock_guard lock(b->mutex);
      if (b->health.admit(now)) {
        target = b;
        position = (position + probe) % n;
        break;
      }
    }
    if (target == nullptr) target = backend_of(order[position % n]);
    if (target == nullptr) break;  // unreachable: ports come from backends_

    router_metrics().forwarded.add();
    target->queries.add();
    FrameConnection& conn = conns[target->index];
    std::vector<std::byte> reply;
    const FrameConnection::Outcome outcome = conn.exchange(frame, reply);

    if (outcome == FrameConnection::Outcome::kOk) {
      note_result(*target, true);
      // Inspect the typed status for failover-able failures; the frame
      // itself is returned verbatim on success, so only its head is
      // decoded (the output chunks are never copied).
      WireResult decoded;
      try {
        decoded = decode_result_head(reply);
      } catch (const std::exception&) {
        return reply;  // undecodable: pass through, client will complain
      }
      if (decoded.ok()) return reply;
      // A busy backend closes its side after the refusal frame; drop the
      // connection so the next exchange reconnects cleanly.
      if (decoded.server_busy()) conn.close();
      last_reply = std::move(reply);
      if (attempt >= max_attempts ||
          !is_retryable(decoded.status.code, config_.retry.idempotent)) {
        return last_reply;
      }
      // Busy or transient: back off (honoring the backend's hint) and
      // fail over to the next candidate.
      router_metrics().retries.add();
      const auto delay =
          config_.retry.backoff(attempt, decoded.retry_after_ms, jitter_state);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    } else {
      note_result(*target, false);
      if (outcome == FrameConnection::Outcome::kLostAfterSend &&
          !config_.retry.idempotent) {
        // The backend may have executed the query; re-sending could
        // apply it twice.  Mirror AdrClient: surface the loss.
        return unavailable_frame("connection lost before result");
      }
    }
    if (position + 1 < n || n > 1) {
      router_metrics().failovers.add();
      position = (position + 1) % n;
    }
  }
  router_metrics().exhausted.add();
  if (!last_reply.empty()) return last_reply;
  return unavailable_frame("all backends unavailable");
}

// ------------------------------------------------------- health probes

bool AdrRouter::probe(Backend& backend) {
  FrameConnection conn(backend.port, std::min(config_.backend_recv_timeout,
                                               std::chrono::milliseconds(2000)));
  std::vector<std::byte> payload;
  // A plain snapshot request: the cheapest liveness round trip.
  if (conn.exchange(encode_stats_request({}), payload) != FrameConnection::Outcome::kOk) {
    return false;
  }
  // A backend at its connection cap refuses with a busy result: alive,
  // just saturated — that is a healthy answer.
  if (is_result_frame(payload)) return true;
  try {
    (void)decode_stats_reply(payload);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void AdrRouter::prober_loop() {
  while (running_.load()) {
    for (const auto& b : backends_) {
      if (!running_.load()) return;
      bool relevant;
      {
        std::lock_guard lock(b->mutex);
        const auto s = b->health.state(Clock::now());
        // Up backends get liveness checks; down ones get recovery
        // trials once half-open.  In kDown the probe would be refused
        // by admit() semantics anyway — skip the socket work.
        relevant = s != BackendHealth::State::kDown;
      }
      if (!relevant) continue;
      router_metrics().probes.add();
      const bool ok = probe(*b);
      if (!ok) router_metrics().probe_failures.add();
      note_result(*b, ok);
    }
    // Sleep in slices so stop() is prompt.
    auto left = config_.probe_interval;
    while (left.count() > 0 && running_.load()) {
      const auto slice = std::min(left, std::chrono::milliseconds(20));
      std::this_thread::sleep_for(slice);
      left -= slice;
    }
  }
}

}  // namespace adr::net
