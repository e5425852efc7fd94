// Readiness-notification façade shared by the event-driven front ends.
//
// epoll on Linux, poll(2) elsewhere; level-triggered in both variants.
// Each registered fd carries a caller tag returned with its events, so
// the owning loop (FrameLoop) dispatches on stable 64-bit ids instead
// of raw fds.
//
// Not thread-safe: a Poller belongs to exactly one event-loop thread.
#pragma once

#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#define ADR_HAVE_EPOLL 1
#endif

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"

namespace adr::net {

class Poller {
 public:
  struct Ready {
    std::uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
  };

  Poller() {
#ifdef ADR_HAVE_EPOLL
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) throw std::runtime_error("Poller: epoll_create1() failed");
#endif
  }

  ~Poller() {
#ifdef ADR_HAVE_EPOLL
    if (ep_ >= 0) ::close(ep_);
#endif
  }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Returns false if the fd could not be registered (ENOMEM/ENOSPC);
  /// the caller must not expect events for it.
  [[nodiscard]] bool add(int fd, std::uint64_t tag, bool rd, bool wr) {
#ifdef ADR_HAVE_EPOLL
    epoll_event ev{};
    ev.events = events_of(rd, wr);
    ev.data.u64 = tag;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ADR_WARN("poller: EPOLL_CTL_ADD failed for fd=" << fd << ": "
                                                      << std::strerror(errno));
      return false;
    }
#else
    entries_[fd] = Entry{tag, rd, wr};
#endif
    return true;
  }

  void mod(int fd, std::uint64_t tag, bool rd, bool wr) {
#ifdef ADR_HAVE_EPOLL
    epoll_event ev{};
    ev.events = events_of(rd, wr);
    ev.data.u64 = tag;
    if (::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) != 0) {
      ADR_WARN("poller: EPOLL_CTL_MOD failed for fd=" << fd << ": "
                                                      << std::strerror(errno));
    }
#else
    entries_[fd] = Entry{tag, rd, wr};
#endif
  }

  void del(int fd) {
#ifdef ADR_HAVE_EPOLL
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
#else
    entries_.erase(fd);
#endif
  }

  /// Blocks up to timeout_ms (-1 = indefinitely) and fills `out`.
  void wait(std::vector<Ready>& out, int timeout_ms) {
    out.clear();
#ifdef ADR_HAVE_EPOLL
    epoll_event events[256];
    const int n = ::epoll_wait(ep_, events, 256, timeout_ms);
    for (int i = 0; i < n; ++i) {
      Ready r;
      r.tag = events[i].data.u64;
      // Errors and hangups surface as readability: the owner's read
      // path observes the close/error and tears the connection down.
      r.readable = (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
      r.writable = (events[i].events & (EPOLLOUT | EPOLLERR)) != 0;
      out.push_back(r);
    }
#else
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> tags;
    fds.reserve(entries_.size());
    for (const auto& [fd, e] : entries_) {
      pollfd p{};
      p.fd = fd;
      if (e.rd) p.events |= POLLIN;
      if (e.wr) p.events |= POLLOUT;
      fds.push_back(p);
      tags.push_back(e.tag);
    }
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Ready r;
      r.tag = tags[i];
      r.readable = (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0;
      r.writable = (fds[i].revents & (POLLOUT | POLLERR)) != 0;
      out.push_back(r);
    }
#endif
  }

 private:
#ifdef ADR_HAVE_EPOLL
  static std::uint32_t events_of(bool rd, bool wr) {
    std::uint32_t e = 0;
    if (rd) e |= EPOLLIN;
    if (wr) e |= EPOLLOUT;
    return e;
  }
  int ep_ = -1;
#else
  struct Entry {
    std::uint64_t tag = 0;
    bool rd = false;
    bool wr = false;
  };
  std::unordered_map<int, Entry> entries_;
#endif
};

}  // namespace adr::net
