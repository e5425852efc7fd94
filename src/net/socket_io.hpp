// Length-prefixed frame I/O over a stream socket.
//
// Every protocol message travels as `u32 length | payload` (little
// endian).  Frames are capped to keep a malformed peer from driving an
// unbounded allocation.
//
// Two layers share the format:
//
//  - read_frame()/write_frame(): the blocking helpers — one call, one
//    whole frame, the calling thread sleeps in recv/send until it is
//    done.  FrameConnection wraps them into the request/reply exchange
//    AdrClient and the router's forwarders and prober all use.
//  - FrameReader/FrameWriter: the incremental, non-blocking layer the
//    FrameLoop behind AdrServer and AdrRouter is built on.  A FrameReader
//    accumulates whatever bytes the socket happens to deliver and hands
//    out completed frames; a FrameWriter buffers whole outbound frames
//    and flushes as much as the socket accepts.  Neither ever blocks,
//    so one event-loop thread can own thousands of connections.
//
// Fault points (docs/robustness.md): the blocking helpers evaluate
// `net.read_frame` / `net.write_frame` / `net.short_write` per call;
// FrameWriter::enqueue evaluates the two write points with identical
// semantics (the read-side point fires in FrameLoop when a completed
// frame is lifted off a connection — see frame_loop.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace adr::net {

/// Largest accepted frame (1 GiB).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// Disables Nagle on a connected TCP socket.  The framed
/// request/response protocol is exactly the write-write-read shape
/// Nagle punishes: without this, a request frame can sit behind the
/// peer's delayed ACK for ~40ms.  Every serving-path socket (client,
/// server accept, router relay) sets it.
void set_tcp_nodelay(int fd);

/// Sets O_NONBLOCK on any fd (listen sockets, wake pipes, accepted
/// sockets where accept4 is unavailable).
void set_nonblocking(int fd);

/// Reads one frame; returns false on orderly close or error.
bool read_frame(int fd, std::vector<std::byte>& payload);

/// Writes one frame; returns false on error.
bool write_frame(int fd, const std::vector<std::byte>& payload);

/// One blocking request/reply connection to 127.0.0.1:`port`, opened on
/// demand.  Sockets are CLOEXEC with TCP_NODELAY, and a nonzero
/// `recv_timeout` bounds every wait for a reply (a peer that stops
/// answering without dying reads as a lost connection).  Not internally
/// locked: the owner serialises exchanges.
class FrameConnection {
 public:
  explicit FrameConnection(std::uint16_t port,
                           std::chrono::milliseconds recv_timeout = {})
      : port_(port), recv_timeout_(recv_timeout) {}
  ~FrameConnection() { close(); }

  FrameConnection(FrameConnection&& other) noexcept
      : port_(other.port_), recv_timeout_(other.recv_timeout_), fd_(other.fd_) {
    other.fd_ = -1;
  }
  FrameConnection(const FrameConnection&) = delete;
  FrameConnection& operator=(const FrameConnection&) = delete;
  FrameConnection& operator=(FrameConnection&&) = delete;

  /// Connects unless already open; false when the connect fails.
  bool connect();
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Where an exchange ended.  The split decides whether a request may
  /// be resent: kConnectFailed means no byte ever reached the peer, so
  /// the request provably never ran; after kLostAfterSend it may have.
  enum class Outcome { kOk, kConnectFailed, kLostAfterSend };

  /// Sends `frame` and reads one reply frame into `reply`, connecting
  /// first if needed.  A send that fails on a connection kept from an
  /// earlier exchange reconnects once, since the peer may have restarted
  /// since then; nothing reached the new connection yet.  Any loss
  /// closes the connection, so the next exchange reconnects.
  Outcome exchange(const std::vector<std::byte>& frame, std::vector<std::byte>& reply);

 private:
  std::uint16_t port_;
  std::chrono::milliseconds recv_timeout_;
  int fd_ = -1;
};

/// Incremental frame reassembly for non-blocking sockets.
///
/// Feed it stream bytes in whatever sized slices arrive — a byte at a
/// time, several frames at once, cuts straddling the header/payload
/// boundary — and pop completed frames with next().  A length field
/// over the cap poisons the reader (the stream can never resynchronize
/// after a frame it refuses to buffer), mirroring read_frame's
/// oversized-frame rejection.
class FrameReader {
 public:
  explicit FrameReader(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Consumes `data`, completing as many frames as it contains.
  /// Returns false once the stream is poisoned (oversized length);
  /// further bytes are ignored.
  bool feed(std::span<const std::byte> data);

  /// Pops the oldest completed frame into `payload`; false when none
  /// is ready.
  bool next(std::vector<std::byte>& payload);

  /// Completed frames waiting to be popped.
  std::size_t frames_ready() const { return ready_.size(); }

  /// True while a partially delivered frame (header or payload bytes)
  /// is buffered.
  bool mid_frame() const { return header_bytes_ > 0 || in_payload_; }

  /// True after an oversized length field; the connection should be
  /// dropped.
  bool poisoned() const { return poisoned_; }

  /// Non-blocking socket pump: recv()s until the socket would block,
  /// closes, or errors, feeding everything into the reassembler.
  enum class IoStatus {
    kOpen,    // drained what was available; connection still live
    kClosed,  // orderly peer close
    kError,   // transport error or poisoned stream
  };
  IoStatus pump(int fd);

 private:
  const std::uint32_t max_frame_bytes_;
  std::byte header_[4] = {};
  std::size_t header_bytes_ = 0;  // header bytes accumulated so far
  bool in_payload_ = false;
  std::vector<std::byte> partial_;     // payload under construction
  std::size_t partial_filled_ = 0;     // bytes of partial_ received
  std::deque<std::vector<std::byte>> ready_;
  bool poisoned_ = false;
};

/// Incremental frame writer for non-blocking sockets.
///
/// enqueue() buffers a whole `u32 length | payload` frame; flush()
/// pushes as much of the backlog as the socket accepts and never
/// blocks.  The owner keeps the fd registered for writability while
/// !idle().
class FrameWriter {
 public:
  /// Queues one frame.  Evaluates the `net.write_frame` (refuse before
  /// any byte is buffered) and `net.short_write` (buffer the header
  /// plus half the payload, then poison the stream so the peer sees a
  /// torn frame once it flushes) fault points exactly like
  /// write_frame().  Returns false when a fault fired or the writer is
  /// already poisoned — the connection should be flushed and dropped.
  bool enqueue(const std::vector<std::byte>& payload);

  enum class IoStatus {
    kOpen,   // flushed all it could (possibly everything); fd still good
    kError,  // transport error, or a poisoned backlog fully flushed
  };
  /// Sends buffered bytes until the backlog drains or the socket would
  /// block.
  IoStatus flush(int fd);

  /// Nothing buffered.
  bool idle() const { return buffer_.size() == offset_; }

  /// Bytes buffered and not yet accepted by the socket.
  std::size_t queued_bytes() const { return buffer_.size() - offset_; }

 private:
  std::vector<std::byte> buffer_;
  std::size_t offset_ = 0;  // bytes of buffer_ already sent
  bool poisoned_ = false;   // injected short write: fail after flushing
};

}  // namespace adr::net
