#include "net/socket_io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.hpp"

namespace adr::net {

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

namespace {

bool read_exact(int fd, std::byte* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r == 0) return false;  // peer closed
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_exact(int fd, const std::byte* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

/// Sends header + payload as ONE syscall (one TCP segment when they
/// fit).  Two back-to-back send()s would put a lone 4-byte segment on
/// the wire and leave the payload parked behind Nagle waiting for the
/// peer's delayed ACK — a ~40ms stall per frame on loopback.
bool write_two(int fd, const std::byte* head, std::size_t head_n,
               const std::byte* body, std::size_t body_n) {
  const std::size_t total = head_n + body_n;
  std::size_t sent = 0;
  while (sent < total) {
    iovec iov[2];
    int iovcnt = 0;
    if (sent < head_n) {
      iov[iovcnt].iov_base = const_cast<std::byte*>(head + sent);
      iov[iovcnt].iov_len = head_n - sent;
      ++iovcnt;
      if (body_n > 0) {
        iov[iovcnt].iov_base = const_cast<std::byte*>(body);
        iov[iovcnt].iov_len = body_n;
        ++iovcnt;
      }
    } else {
      iov[iovcnt].iov_base = const_cast<std::byte*>(body + (sent - head_n));
      iov[iovcnt].iov_len = body_n - (sent - head_n);
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

void append_header(std::vector<std::byte>& out, std::uint32_t length) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((length >> (8 * i)) & 0xff));
  }
}

}  // namespace

bool read_frame(int fd, std::vector<std::byte>& payload) {
  // Injected receive failure: indistinguishable from the peer resetting
  // the connection before the frame arrived.
  if (fault::faults().fires("net.read_frame")) return false;
  std::byte header[4];
  if (!read_exact(fd, header, 4)) return false;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[i])) << (8 * i);
  }
  if (length > kMaxFrameBytes) return false;
  payload.resize(length);
  return length == 0 || read_exact(fd, payload.data(), length);
}

bool write_frame(int fd, const std::vector<std::byte>& payload) {
  // Injected send failure before any bytes leave: a clean reset.
  if (fault::faults().fires("net.write_frame")) return false;
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::byte header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::byte>((length >> (8 * i)) & 0xff);
  }
  if (payload.empty()) return write_exact(fd, header, 4);
  // Injected short write: the header and half the payload reach the
  // peer, then the connection "dies".  The receiver's read_exact on the
  // remainder blocks until our side closes, then fails — exercising the
  // torn-frame path without a real network.
  if (fault::faults().fires("net.short_write")) {
    write_two(fd, header, 4, payload.data(), payload.size() / 2);
    return false;
  }
  return write_two(fd, header, 4, payload.data(), payload.size());
}

// ------------------------------------------------------- FrameConnection

bool FrameConnection::connect() {
  if (fd_ >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  if (recv_timeout_.count() > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(recv_timeout_.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((recv_timeout_.count() % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  set_tcp_nodelay(fd);
  fd_ = fd;
  return true;
}

void FrameConnection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

FrameConnection::Outcome FrameConnection::exchange(const std::vector<std::byte>& frame,
                                                   std::vector<std::byte>& reply) {
  const bool reused = fd_ >= 0;
  if (!connect()) return Outcome::kConnectFailed;
  if (!write_frame(fd_, frame)) {
    close();
    if (!reused) return Outcome::kLostAfterSend;
    if (!connect()) return Outcome::kConnectFailed;
    if (!write_frame(fd_, frame)) {
      close();
      return Outcome::kLostAfterSend;
    }
  }
  if (!read_frame(fd_, reply)) {
    close();
    return Outcome::kLostAfterSend;
  }
  return Outcome::kOk;
}

// ------------------------------------------------------- FrameReader

bool FrameReader::feed(std::span<const std::byte> data) {
  if (poisoned_) return false;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (!in_payload_) {
      // Accumulate the 4-byte length header, possibly across feeds.
      while (header_bytes_ < 4 && pos < data.size()) {
        header_[header_bytes_++] = data[pos++];
      }
      if (header_bytes_ < 4) return true;
      std::uint32_t length = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(header_[i]))
                  << (8 * i);
      }
      if (length > max_frame_bytes_) {
        poisoned_ = true;
        return false;
      }
      header_bytes_ = 0;
      in_payload_ = true;
      partial_.resize(length);
      partial_filled_ = 0;
      if (length == 0) {
        ready_.push_back({});
        in_payload_ = false;
        continue;
      }
    }
    const std::size_t want = partial_.size() - partial_filled_;
    const std::size_t take = std::min(want, data.size() - pos);
    std::memcpy(partial_.data() + partial_filled_, data.data() + pos, take);
    partial_filled_ += take;
    pos += take;
    if (partial_filled_ == partial_.size()) {
      ready_.push_back(std::move(partial_));
      partial_ = {};
      partial_filled_ = 0;
      in_payload_ = false;
    }
  }
  return true;
}

bool FrameReader::next(std::vector<std::byte>& payload) {
  if (ready_.empty()) return false;
  payload = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

FrameReader::IoStatus FrameReader::pump(int fd) {
  if (poisoned_) return IoStatus::kError;
  std::byte buf[16 * 1024];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) return IoStatus::kClosed;
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOpen;
      return IoStatus::kError;
    }
    if (!feed({buf, static_cast<std::size_t>(r)})) return IoStatus::kError;
    // A short read means the socket buffer is drained; stop instead of
    // paying one more syscall just to learn EAGAIN.
    if (static_cast<std::size_t>(r) < sizeof(buf)) return IoStatus::kOpen;
  }
}

// ------------------------------------------------------- FrameWriter

bool FrameWriter::enqueue(const std::vector<std::byte>& payload) {
  if (poisoned_) return false;
  // Same injected-failure semantics as write_frame(): refuse before
  // buffering a byte, or buffer a torn frame and poison the stream.
  if (fault::faults().fires("net.write_frame")) return false;
  append_header(buffer_, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty() && fault::faults().fires("net.short_write")) {
    buffer_.insert(buffer_.end(), payload.begin(),
                   payload.begin() + static_cast<std::ptrdiff_t>(payload.size() / 2));
    poisoned_ = true;
    return false;
  }
  buffer_.insert(buffer_.end(), payload.begin(), payload.end());
  return true;
}

FrameWriter::IoStatus FrameWriter::flush(int fd) {
  while (offset_ < buffer_.size()) {
    const ssize_t r = ::send(fd, buffer_.data() + offset_, buffer_.size() - offset_,
                             MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOpen;
      return IoStatus::kError;
    }
    offset_ += static_cast<std::size_t>(r);
  }
  buffer_.clear();
  offset_ = 0;
  // A poisoned backlog (injected short write) fails once the torn
  // frame is on the wire, so the owner drops the connection and the
  // peer observes the truncation.
  return poisoned_ ? IoStatus::kError : IoStatus::kOpen;
}

}  // namespace adr::net
