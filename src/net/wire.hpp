// Wire format for the client/front-end socket protocol.
//
// The paper's front end relays queries from sequential clients over a
// socket interface and returns output products the same way.  This is a
// little-endian, length-prefixed binary encoding of Query and of a
// client-facing result (summary + delivered output chunks).
//
// Frame layout on the socket (see server.hpp / client.hpp):
//   u32 payload_length | payload
// where payload is an encode_query(), encode_result(),
// encode_stats_request() or encode_stats_reply() body.
//
// Protocol version: v7 is the only one encoded or decoded; a frame of
// any other version is a WireError (v1-v6 differ field by field).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "core/query.hpp"

namespace adr::net {

/// Thrown on malformed frames.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Error string of a protocol-level refusal: the server is saturated
/// (connection cap or scheduler queue full) and declined the work with
/// an orderly result frame instead of a bare close, so clients can tell
/// refusal from crash.
inline constexpr const char* kServerBusyError = "server busy";

/// The client-facing view of a query result.
struct WireResult {
  /// Typed outcome: code + message, both carried on the wire.
  Status status;

  bool ok() const { return status.ok(); }
  /// Failure message (empty when ok).
  const std::string& error() const { return status.message; }

  StrategyKind strategy = StrategyKind::kFRA;
  int tiles = 0;
  std::uint64_t ghost_chunks = 0;
  std::uint64_t chunk_reads = 0;
  double total_s = 0.0;
  std::uint64_t bytes_communicated = 0;
  /// Server-side chunk-cache traffic for this query.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// On a "server busy" refusal: the server's estimate of when retrying
  /// is worth it, derived from its live queue-depth gauge and measured
  /// submit latency (0 = no hint).
  std::uint32_t retry_after_ms = 0;
  /// How many submit attempts the client made before this result came
  /// back (1 = first try).  Client-side bookkeeping filled in by
  /// AdrClient's retry loop — never serialized on the wire.
  std::uint32_t attempts = 1;
  std::vector<Chunk> outputs;

  /// True when the server refused the query because it is saturated;
  /// retry after retry_after_ms (possibly on a new connection — the
  /// server closes the refused connection after this frame).
  bool server_busy() const { return status.code == StatusCode::kBusy; }
};

/// Builds the client view from a repository result.
WireResult to_wire_result(const QueryResult& result);

/// A decoded query frame: the query plus the execution options it asked
/// for.
struct WireQuery {
  Query query;
  ExecOptions options;
};

std::vector<std::byte> encode_query(const Query& query,
                                    const ExecOptions& options = {});
WireQuery decode_query_frame(std::span<const std::byte> payload);

std::vector<std::byte> encode_result(const WireResult& result);
WireResult decode_result(std::span<const std::byte> payload);

/// Stats endpoint: a client asks the live server for its metrics
/// snapshot; the reply carries the obs registry rendered as JSON and,
/// when requested and tracing is enabled server-side, the query-
/// lifecycle ring exported as Chrome trace_event JSON.
struct WireStatsRequest {
  bool include_trace = false;
  /// Also return the telemetry sampler's ring as JSON (see
  /// obs/sampler.hpp).  history_samples caps how many trailing samples
  /// the reply carries (0 = the whole ring).
  bool include_history = false;
  std::uint32_t history_samples = 0;
};

struct WireStatsReply {
  std::string metrics_json;
  std::string trace_json;    // empty unless requested and tracer enabled
  std::string history_json;  // empty unless requested and sampler running
};

/// True when `payload` starts like a stats-request frame (how the
/// server dispatches without trial decoding).
bool is_stats_request(std::span<const std::byte> payload);

/// True when `payload` starts like a result frame.  Lets a client that
/// expected some other reply (e.g. a stats reply) recognize an
/// out-of-band result — a server at its connection cap answers
/// *everything* with a busy WireResult — and decode the typed status
/// instead of failing on an opaque tag mismatch.
bool is_result_frame(std::span<const std::byte> payload);

std::vector<std::byte> encode_stats_request(const WireStatsRequest& request);
WireStatsRequest decode_stats_request(std::span<const std::byte> payload);

std::vector<std::byte> encode_stats_reply(const WireStatsReply& reply);
WireStatsReply decode_stats_reply(std::span<const std::byte> payload);

// ---- primitive stream helpers (exposed for tests) ----

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);
  void bytes(std::span<const std::byte> b);
  void rect(const Rect& r);

  std::vector<std::byte> take() { return std::move(buffer_); }

 private:
  std::vector<std::byte> buffer_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  std::vector<std::byte> bytes();
  Rect rect();

  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace adr::net
