#include "net/frame_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef ADR_HAVE_EPOLL
#include <sys/eventfd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <map>
#include <stdexcept>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "net/socket_io.hpp"
#include "obs/metrics.hpp"

namespace adr::net {
namespace {

using Clock = std::chrono::steady_clock;

// Poller tags: connection ids start above the two fixed slots.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

/// Frames one connection may have outstanding (handed to the handler,
/// not yet answered) before the loop stops reading its socket.
constexpr std::uint64_t kMaxOutstandingPerConn = 8;
/// Unflushed outbound bytes beyond which a connection's reads pause.
constexpr std::size_t kMaxQueuedWriteBytes = 16u << 20;
/// Flush + linger budget for a connection being closed (busy refusals,
/// last-word replies, failed writes): a peer that never reads its last
/// frame is cut off after this.
constexpr auto kCloseDrainBudget = std::chrono::milliseconds(200);
/// stop() drain: the budget a connection gets to flush once its last
/// outstanding reply is queued.
constexpr auto kStopFlushBudget = std::chrono::milliseconds(500);
/// Accept-error backoff: doubles per consecutive failure up to the cap
/// (the EMFILE/ENFILE accept storm must not busy-spin the loop).
constexpr auto kAcceptBackoffBase = std::chrono::milliseconds(1);
constexpr auto kAcceptBackoffMax = std::chrono::milliseconds(200);

bool deadline_heap_greater(const std::pair<Clock::time_point, std::uint64_t>& a,
                           const std::pair<Clock::time_point, std::uint64_t>& b) {
  return a.first > b.first;
}

/// The loop a thread runs, if any: reply() on the loop thread queues
/// directly, with no lock and no wakeup.
thread_local const FrameLoop* tl_loop = nullptr;

}  // namespace

// Per-connection state, owned exclusively by the loop thread.
//
// Life cycle: serving -> closing (no more inbound frames; outstanding
// replies still flush) -> lingering (SHUT_WR sent, inbound bytes
// discarded so the kernel cannot RST the final frame away) -> closed.
// Every closing/lingering connection carries a deadline so a peer that
// neither reads nor closes is cut off in bounded time.
struct FrameLoop::Conn {
  std::uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  FrameWriter writer;
  std::uint64_t next_seq = 0;    // slot of the next frame handed out
  std::uint64_t next_reply = 0;  // slot whose reply goes out next
  /// Replies posted ahead of an earlier request's, parked until their turn.
  std::map<std::uint64_t, Posted> early;
  bool counted = false;  // served, not refused: counts toward the cap
  bool closing = false;
  bool lingering = false;
  bool reading = true;   // poller read interest
  bool writing = false;  // poller write interest
  Clock::time_point deadline{};  // epoch() = none

  std::uint64_t outstanding() const { return next_seq - next_reply; }
  /// The pipelining rule: may more frames be read and handed out?
  bool has_room() const {
    return outstanding() < kMaxOutstandingPerConn &&
           writer.queued_bytes() < kMaxQueuedWriteBytes;
  }
};

FrameLoop::FrameLoop(std::string prefix, std::uint16_t port, int max_connections,
                     Handler handler)
    : prefix_(std::move(prefix)),
      max_connections_(static_cast<std::size_t>(std::max(max_connections, 0))),
      handler_(std::move(handler)),
      accepted_metric_(obs::metrics().counter(prefix_ + ".connections_accepted")),
      refused_metric_(obs::metrics().counter(prefix_ + ".connections_refused")),
      accept_errors_metric_(obs::metrics().counter(prefix_ + ".accept_errors")),
      wakeups_metric_(obs::metrics().counter(prefix_ + ".epoll_wakeups")),
      partial_metric_(obs::metrics().counter(prefix_ + ".frames_partial")),
      active_metric_(obs::metrics().gauge(prefix_ + ".active_connections")) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error(prefix_ + ": socket() failed");
  const auto fail = [this](const char* what) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(prefix_ + ": " + what + " failed");
  };
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind()");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("getsockname()");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 1024) != 0) fail("listen()");
  set_nonblocking(listen_fd_);
#ifdef ADR_HAVE_EPOLL
  wake_rd_ = wake_wr_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_rd_ < 0) fail("eventfd()");
#else
  int fds[2];
  if (::pipe(fds) != 0) fail("pipe()");
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
#endif
}

FrameLoop::~FrameLoop() {
  stop();
  ::close(wake_rd_);
  if (wake_wr_ != wake_rd_) ::close(wake_wr_);
}

void FrameLoop::start() {
  if (thread_.joinable() || stop_requested_.load()) return;
  thread_ = std::thread([this]() { run(); });
}

void FrameLoop::stop() {
  stop_requested_.store(true);
  wake();
  if (thread_.joinable()) thread_.join();
  // Never started (or the loop already closed it during its drain).
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void FrameLoop::post(std::function<void()> task) {
  if (exited_.load()) return;
  {
    std::lock_guard lock(tasks_mutex_);
    tasks_.push_back(std::move(task));
  }
  wake();
}

void FrameLoop::reply(Slot slot, std::vector<std::byte> frame, Then then,
                      std::function<void()> on_queued) {
  Posted p{slot, std::move(frame), then, std::move(on_queued)};
  if (tl_loop == this) {
    replies_.push_back(std::move(p));
    return;
  }
  post([this, p = std::move(p)]() mutable { replies_.push_back(std::move(p)); });
}

void FrameLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(wake_wr_, &one, sizeof(one));
}

// ------------------------------------------------------- the loop

void FrameLoop::run() {
  tl_loop = this;
  // The listen socket registers through the accept-backoff resume path
  // below, which also retries a failed registration.
  accept_paused_ = true;
  accept_resume_ = Clock::now();
  wake_registered_ = poller_.add(wake_rd_, kWakeTag, /*rd=*/true, /*wr=*/false);

  std::vector<Poller::Ready> events;
  for (;;) {
    if (!stopping_ && stop_requested_.load()) begin_stop_drain();
    if (stopping_ && conns_.empty()) break;

    // Accept backoff expired (or first pass): watch the listen socket.
    if (accept_paused_ && !stopping_ && Clock::now() >= accept_resume_) {
      accept_paused_ = false;
      accept_registered_ = poller_.add(listen_fd_, kListenTag, true, false);
      if (!accept_registered_) accept_error();  // re-arm the backoff
    }

    poller_.wait(events, timeout_ms());
    wakeups_metric_.add();

    for (const Poller::Ready& ev : events) {
      if (ev.tag == kWakeTag) {
        std::uint64_t buf;
        while (::read(wake_rd_, &buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (ev.tag == kListenTag) {
        accept();
        continue;
      }
      // The connection may have been closed by an earlier event in this
      // batch; look it up fresh per half.
      if (ev.readable) {
        auto it = conns_.find(ev.tag);
        if (it != conns_.end()) readable(*it->second);
      }
      if (ev.writable) {
        auto it = conns_.find(ev.tag);
        if (it != conns_.end()) flush(*it->second);
      }
    }

    run_posted();
    expire_deadlines();
  }
  exited_.store(true);
  std::lock_guard lock(tasks_mutex_);
  tasks_.clear();
  replies_.clear();
  tl_loop = nullptr;
}

void FrameLoop::begin_stop_drain() {
  stopping_ = true;
  if (accept_registered_) {
    poller_.del(listen_fd_);
    accept_registered_ = false;
  }
  // Close the listen socket now so new connects are refused while the
  // drain runs.
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = *(it++)->second;  // flush() below may erase conn, only conn
    conn.closing = true;
    // Connections with outstanding replies drain through deliver(): the
    // last one arms their deadline.
    if (conn.outstanding() == 0) {
      if (conn.deadline == Clock::time_point{}) arm_deadline(conn, kStopFlushBudget);
      flush(conn);  // may close and erase conn
    }
  }
}

int FrameLoop::timeout_ms() const {
  Clock::time_point next{};
  if (accept_paused_) next = accept_resume_;
  if (!deadlines_.empty()) {
    const auto top = deadlines_.front().first;
    if (next == Clock::time_point{} || top < next) next = top;
  }
  // Without a working wake fd, bound every wait so tasks posted by
  // other threads still run promptly.
  const int cap = wake_registered_ ? 60'000 : 10;
  if (next == Clock::time_point{}) return wake_registered_ ? -1 : cap;
  const auto delta =
      std::chrono::duration_cast<std::chrono::milliseconds>(next - Clock::now());
  return static_cast<int>(std::clamp<long long>(delta.count() + 1, 0, cap));
}

void FrameLoop::arm_deadline(Conn& conn, Clock::duration budget) {
  conn.deadline = Clock::now() + budget;
  deadlines_.emplace_back(conn.deadline, conn.id);
  std::push_heap(deadlines_.begin(), deadlines_.end(), deadline_heap_greater);
}

void FrameLoop::expire_deadlines() {
  const auto now = Clock::now();
  while (!deadlines_.empty() && deadlines_.front().first <= now) {
    std::pop_heap(deadlines_.begin(), deadlines_.end(), deadline_heap_greater);
    const auto [when, id] = deadlines_.back();
    deadlines_.pop_back();
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;         // already closed
    Conn& conn = *it->second;
    if (conn.deadline != when) continue;      // re-armed since
    ADR_DEBUG(prefix_ << ": drain deadline hit, closing fd=" << conn.fd);
    close(conn);
  }
}

// ------------------------------------------------------- accepting

void FrameLoop::accept() {
  for (;;) {
    if (stopping_) return;
    // Injected accept failure (EMFILE-style storm): the pending
    // connection stays in the backlog; the loop must back off, not spin.
    if (fault::faults().fires("net.accept")) {
      accept_error();
      return;
    }
#ifdef ADR_HAVE_EPOLL
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
#endif
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        accept_error_streak_ = 0;
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      accept_error();
      return;
    }
#ifndef ADR_HAVE_EPOLL
    set_nonblocking(fd);
    // Match the accept4(SOCK_CLOEXEC) path: forked children must not
    // inherit client sockets.
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
#endif
    set_tcp_nodelay(fd);
    accept_error_streak_ = 0;
    admit(fd, /*refuse=*/active_.load() >= max_connections_);
  }
}

void FrameLoop::accept_error() {
  accept_errors_metric_.add();
  ++accept_error_streak_;
  auto backoff = kAcceptBackoffBase * (1 << std::min(accept_error_streak_ - 1, 8));
  if (backoff > kAcceptBackoffMax) backoff = kAcceptBackoffMax;
  ADR_WARN(prefix_ << ": accept failed (streak " << accept_error_streak_
                   << "), backing off " << backoff.count() << "ms");
  if (accept_registered_) {
    poller_.del(listen_fd_);
    accept_registered_ = false;
  }
  accept_paused_ = true;
  accept_resume_ = Clock::now() + backoff;
}

void FrameLoop::admit(int fd, bool refuse) {
  if (refuse) {
    // Count before the frame goes out: the busy frame is the client-
    // visible refusal signal, so the counter must already reflect it by
    // the time the client decodes it.
    ++refused_;
    refused_metric_.add();
    ADR_WARN(prefix_ << ": refused connection, " << active_.load() << " active");
  }
  auto owned = std::make_unique<Conn>();
  Conn& conn = *owned;
  conn.id = next_conn_id_++;
  conn.fd = fd;
  conn.counted = !refuse;
  if (!poller_.add(fd, conn.id, /*rd=*/true, /*wr=*/false)) {
    // Unregistered fds never receive events; dropping here is the only
    // alternative to a silent leak (a refused peer just sees a reset).
    ::close(fd);
    return;
  }
  conns_.emplace(conn.id, std::move(owned));
  if (!refuse) {
    active_.fetch_add(1);
    accepted_metric_.add();
    active_metric_.add(1);
    ADR_DEBUG(prefix_ << ": accepted fd=" << fd << " live=" << active_.load());
    return;
  }
  conn.closing = true;
  conn.writer.enqueue(handler_.busy_frame());
  arm_deadline(conn, kCloseDrainBudget);
  flush(conn);
}

// ------------------------------------------------------- reading

void FrameLoop::readable(Conn& conn) {
  if (conn.closing || conn.lingering) {
    // No more frames will be served; discard inbound bytes (so the
    // kernel cannot answer them with an RST that destroys our final
    // frame) and watch for the peer's close.
    char sink[4096];
    for (;;) {
      const ssize_t r = ::recv(conn.fd, sink, sizeof(sink), 0);
      if (r > 0 || (r < 0 && errno == EINTR)) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close(conn);  // orderly close or transport error
      return;
    }
  }
  if (conn.reader.pump(conn.fd) != FrameReader::IoStatus::kOpen) {
    // Orderly close or transport error: either way the connection is
    // done; replies still outstanding are dropped when they arrive.
    close(conn);
    return;
  }
  if (conn.reader.mid_frame()) partial_metric_.add();
  dispatch(conn);
}

void FrameLoop::dispatch(Conn& conn) {
  std::vector<std::byte> frame;
  while (!conn.closing && conn.has_room() && conn.reader.next(frame)) {
    // A transport failure at the moment a frame is lifted off the
    // connection (the event-loop twin of the blocking read_frame() site).
    if (fault::faults().fires("net.read_frame")) {
      close(conn);
      return;
    }
    handler_.on_frame(Slot{conn.id, conn.next_seq++}, std::move(frame));
  }
  update_interest(conn);
}

// ------------------------------------------------------- replying

void FrameLoop::run_posted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard lock(tasks_mutex_);
    tasks.swap(tasks_);
  }
  for (std::function<void()>& task : tasks) task();
  // Delivering frees capacity and hands out buffered frames, whose
  // handlers may reply at once: keep going until no reply is left.
  while (!replies_.empty()) {
    std::vector<Posted> batch;
    batch.swap(replies_);
    for (Posted& p : batch) {
      auto it = conns_.find(p.slot.conn);
      if (it == conns_.end()) continue;  // peer gone; reply dropped
      Conn& conn = *it->second;
      if (p.slot.seq != conn.next_reply) {
        conn.early.emplace(p.slot.seq, std::move(p));
        continue;
      }
      bool open = deliver(conn, p);
      while (open) {
        auto next = conn.early.find(conn.next_reply);
        if (next == conn.early.end()) break;
        Posted parked = std::move(next->second);
        conn.early.erase(next);
        open = deliver(conn, parked);
      }
      // Capacity freed: frames the reader buffered meanwhile can go now.
      if (open && !conn.closing) dispatch(conn);
    }
  }
}

bool FrameLoop::deliver(Conn& conn, Posted& p) {
  ++conn.next_reply;
  if (p.then == Then::kAbort) {
    close(conn);
    return false;
  }
  const bool queued = conn.writer.enqueue(p.frame);
  if (queued && p.on_queued) p.on_queued();
  if (!queued || p.then == Then::kClose) {
    // A refused write (flush what was buffered, then die) or the
    // owner's last word on this connection.
    conn.closing = true;
    arm_deadline(conn, kCloseDrainBudget);
  } else if (conn.closing && conn.outstanding() == 0 &&
             conn.deadline == Clock::time_point{}) {
    // stop() drain: the last outstanding reply is out; bound its flush.
    arm_deadline(conn, kStopFlushBudget);
  }
  return flush(conn);
}

bool FrameLoop::flush(Conn& conn) {
  if (!conn.writer.idle() &&
      conn.writer.flush(conn.fd) == FrameWriter::IoStatus::kError) {
    close(conn);
    return false;
  }
  update_interest(conn);
  if (conn.closing && conn.writer.idle() && conn.outstanding() == 0) {
    return finish_close(conn);
  }
  return true;
}

void FrameLoop::update_interest(Conn& conn) {
  // Closing/lingering connections keep reading to observe the peer's
  // close; serving connections pause reads while the handler or the
  // outbound buffer is saturated (TCP back-pressure reaches the peer).
  const bool want_read = conn.closing || conn.lingering || conn.has_room();
  const bool want_write = !conn.writer.idle();
  if (want_read != conn.reading || want_write != conn.writing) {
    conn.reading = want_read;
    conn.writing = want_write;
    poller_.mod(conn.fd, conn.id, want_read, want_write);
  }
}

bool FrameLoop::finish_close(Conn& conn) {
  if (conn.lingering) return true;  // already draining; the deadline closes it
  if (!conn.counted || conn.reader.mid_frame() || conn.reader.frames_ready() > 0) {
    // The peer has bytes in flight we never consumed (a refused client's
    // query, a half-delivered frame).  Half-close and discard its input
    // until it closes or the deadline lands — closing outright would let
    // the kernel RST our final frame away before the peer reads it.
    ::shutdown(conn.fd, SHUT_WR);
    conn.lingering = true;
    arm_deadline(conn, kCloseDrainBudget);
    update_interest(conn);
    return true;
  }
  close(conn);
  return false;
}

void FrameLoop::close(Conn& conn) {
  poller_.del(conn.fd);
  ::close(conn.fd);
  if (conn.counted) {
    active_.fetch_sub(1);
    active_metric_.add(-1);
    ADR_DEBUG(prefix_ << ": connection fd=" << conn.fd << " done, live=" << active_.load());
  }
  conns_.erase(conn.id);  // destroys conn — nothing after this line
}

}  // namespace adr::net
