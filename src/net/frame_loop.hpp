// FrameLoop: the one connection-owning event loop behind AdrServer and
// AdrRouter.
//
// One thread, on the shared Poller, owns the loopback listen socket and
// every accepted connection: accept with backoff, the connection cap, a
// FrameReader/FrameWriter per connection, back-pressure, flushing, the
// closing -> lingering -> closed life cycle and the stop() drain.  The
// owner supplies only a handler — "frame in, reply out later" — and its
// metric prefix.  docs/serving.md describes the handler contract,
// back-pressure, fd life cycle and stop drain.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/poller.hpp"

namespace adr::obs {
class Counter;
class Gauge;
}  // namespace adr::obs

namespace adr::net {

class FrameLoop {
 public:
  /// One request frame's place on its connection: replies are matched
  /// to it and written in `seq` order.
  struct Slot {
    std::uint64_t conn = 0;  // unique per loop, never 0
    std::uint64_t seq = 0;
  };

  /// What a reply does to its connection once it is the next to go out.
  enum class Then {
    kKeepOpen,  // keep serving
    kClose,     // last frame: flush it, then close (busy refusals)
    kAbort,     // discard the frame and close at once (a lost reply)
  };

  struct Handler {
    /// Loop thread: one complete request frame.  Every call must be
    /// answered by exactly one reply(slot, ...), from any thread.
    std::function<void(Slot, std::vector<std::byte>)> on_frame;
    /// Loop thread: the frame a connection refused at the cap receives.
    std::function<std::vector<std::byte>()> busy_frame;
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and listens; throws
  /// std::runtime_error on failure.  `prefix` names the metric series
  /// and log lines ("server", "router").  Serving begins in start().
  FrameLoop(std::string prefix, std::uint16_t port, int max_connections,
            Handler handler);
  ~FrameLoop();

  FrameLoop(const FrameLoop&) = delete;
  FrameLoop& operator=(const FrameLoop&) = delete;

  /// Starts the loop thread.
  void start();

  /// Graceful drain, then join: stops accepting, lets every connection's
  /// outstanding replies go out, and closes each connection within a
  /// bounded budget once its last reply is queued.  Closes the listen
  /// socket even when start() never ran.  Idempotent.
  void stop();

  /// Thread-safe: runs `task` on the loop thread soon after.  Owners
  /// use it to finish work there, such as turning a worker's completion
  /// into a reply.  Tasks posted after the loop exited are dropped.
  void post(std::function<void()> task);

  /// Thread-safe: answers `slot` (off the loop thread, through post()).
  /// Replies for connections that have closed are discarded.
  /// `on_queued` runs on the loop thread once the frame is actually
  /// buffered for the peer (it never runs for kAbort, a closed
  /// connection or a refused write).
  void reply(Slot slot, std::vector<std::byte> frame, Then then = Then::kKeepOpen,
             std::function<void()> on_queued = {});

  std::uint16_t port() const { return port_; }

  /// Connections currently served (refused ones never count).
  std::size_t active_connections() const { return active_.load(); }

  /// Connections refused at the cap (each got the busy frame first).
  std::uint64_t connections_refused() const { return refused_.load(); }

 private:
  using Clock = std::chrono::steady_clock;
  struct Conn;
  struct Posted {
    Slot slot;
    std::vector<std::byte> frame;
    Then then = Then::kKeepOpen;
    std::function<void()> on_queued;
  };

  void run();
  void wake();
  void accept();
  void accept_error();
  void admit(int fd, bool refuse);
  void readable(Conn& conn);
  void dispatch(Conn& conn);
  /// Runs posted tasks, then delivers every queued reply in slot order.
  void run_posted();
  /// Writes `p` (its turn has come); false when the connection closed.
  bool deliver(Conn& conn, Posted& p);
  /// False when the connection closed.
  bool flush(Conn& conn);
  bool finish_close(Conn& conn);
  void close(Conn& conn);
  void update_interest(Conn& conn);
  void arm_deadline(Conn& conn, Clock::duration budget);
  void begin_stop_drain();
  void expire_deadlines();
  int timeout_ms() const;

  const std::string prefix_;
  const std::size_t max_connections_;
  Handler handler_;
  // Cumulative process-wide series under the owner's prefix (catalog:
  // docs/observability.md).
  obs::Counter& accepted_metric_;
  obs::Counter& refused_metric_;
  obs::Counter& accept_errors_metric_;
  obs::Counter& wakeups_metric_;
  obs::Counter& partial_metric_;
  obs::Gauge& active_metric_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Wakeup channel: eventfd on Linux (rd == wr), self-pipe elsewhere.
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> exited_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> refused_{0};

  /// Tasks posted by any thread, awaiting the loop.
  std::mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_;

  // Loop-thread state.
  Poller poller_;
  std::vector<Posted> replies_;  // awaiting delivery
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  /// Min-heap of (deadline, conn id); entries are validated lazily
  /// against Conn::deadline, so re-arming never needs heap surgery.
  std::vector<std::pair<Clock::time_point, std::uint64_t>> deadlines_;
  std::uint64_t next_conn_id_ = 2;  // 0 and 1 tag the listen and wake fds
  bool accept_registered_ = false;
  /// False when the wake fd could not be registered: the loop then
  /// degrades to bounded polling so replies and stop() still progress.
  bool wake_registered_ = false;
  bool accept_paused_ = false;
  Clock::time_point accept_resume_{};
  int accept_error_streak_ = 0;
  bool stopping_ = false;

  std::thread thread_;  // runs run(); declared after all it touches
};

}  // namespace adr::net
