#include "net/wire.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

namespace adr::net {
namespace {

constexpr std::uint8_t kQueryTag = 0x51;        // 'Q'
constexpr std::uint8_t kResultTag = 0x52;       // 'R'
constexpr std::uint8_t kStatsRequestTag = 0x53; // 'S'
constexpr std::uint8_t kStatsReplyTag = 0x54;   // 'T'
// The one protocol version encoded and decoded (see wire.hpp).
constexpr std::uint8_t kVersion = 7;

// Exec-option flag bits (query frames).
constexpr std::uint8_t kOptInitFromOutput = 1u << 0;
constexpr std::uint8_t kOptPipelineTiles = 1u << 1;
constexpr std::uint8_t kOptRecordTrace = 1u << 2;

// Qos flag bits (query frames).
constexpr std::uint8_t kQosHasDeadline = 1u << 0;
constexpr std::uint8_t kQosDropOnExpiry = 1u << 1;

void check_version(Reader& r) {
  if (r.u8() != kVersion) throw WireError("wire: unsupported protocol version");
}

}  // namespace

void Writer::u8(std::uint8_t v) { buffer_.push_back(static_cast<std::byte>(v)); }

void Writer::u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::byte>(v & 0xff));
  buffer_.push_back(static_cast<std::byte>((v >> 8) & 0xff));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  for (char c : s) buffer_.push_back(static_cast<std::byte>(c));
}

void Writer::bytes(std::span<const std::byte> b) {
  u64(b.size());
  buffer_.insert(buffer_.end(), b.begin(), b.end());
}

void Writer::rect(const Rect& r) {
  u8(static_cast<std::uint8_t>(r.dims()));
  for (int i = 0; i < r.dims(); ++i) f64(r.lo()[i]);
  for (int i = 0; i < r.dims(); ++i) f64(r.hi()[i]);
}

void Reader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw WireError("wire: truncated frame");
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint8_t>(data_[pos_]);
  v = static_cast<std::uint16_t>(
      v | (static_cast<std::uint16_t>(static_cast<std::uint8_t>(data_[pos_ + 1])) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::byte> Reader::bytes() {
  const std::uint64_t n = u64();
  need(n);
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Rect Reader::rect() {
  const int dims = u8();
  if (dims < 0 || dims > kMaxDims) throw WireError("wire: bad rect dims");
  if (dims == 0) return Rect();
  Point lo(dims), hi(dims);
  for (int i = 0; i < dims; ++i) lo[i] = f64();
  for (int i = 0; i < dims; ++i) hi[i] = f64();
  return Rect(lo, hi);
}

std::vector<std::byte> encode_query(const Query& query, const ExecOptions& options) {
  Writer w;
  w.u8(kQueryTag);
  w.u8(kVersion);
  w.u32(query.input_dataset);
  w.u32(static_cast<std::uint32_t>(query.extra_input_datasets.size()));
  for (std::uint32_t id : query.extra_input_datasets) w.u32(id);
  w.u32(query.output_dataset);
  w.rect(query.range);
  w.str(query.map_function);
  w.str(query.aggregation);
  w.u8(static_cast<std::uint8_t>(query.strategy));
  w.u8(static_cast<std::uint8_t>(query.tiling_order));
  w.u8(static_cast<std::uint8_t>(query.delivery));
  w.u64(query.seed);
  // The exec options travel with the query (output_sink is a local
  // callback and cannot cross the wire; write_output follows from
  // query.delivery on the serving side).
  std::uint8_t flags = 0;
  if (options.init_from_output) flags |= kOptInitFromOutput;
  if (options.pipeline_tiles) flags |= kOptPipelineTiles;
  if (options.record_trace) flags |= kOptRecordTrace;
  w.u8(flags);
  w.f64(options.comm_cpu_bytes_per_sec);
  // The Qos contract.  Deadlines are steady-clock points local to
  // each host, so the wire carries *remaining* milliseconds — client
  // and server clocks never need to agree.  remaining() clamps to 0:
  // an already-expired deadline arrives as "0 ms left", which the
  // server's admission check refuses immediately.
  std::uint8_t qos_flags = 0;
  if (options.qos.has_deadline()) qos_flags |= kQosHasDeadline;
  if (options.qos.drop_on_expiry) qos_flags |= kQosDropOnExpiry;
  w.u8(qos_flags);
  w.u8(static_cast<std::uint8_t>(options.qos.priority));
  std::uint32_t remaining_ms = 0;
  if (options.qos.has_deadline()) {
    const auto rem = options.qos.remaining();
    remaining_ms = static_cast<std::uint32_t>(std::min<std::chrono::milliseconds::rep>(
        rem.count(), std::numeric_limits<std::uint32_t>::max()));
  }
  w.u32(remaining_ms);
  return w.take();
}

WireQuery decode_query_frame(std::span<const std::byte> payload) {
  Reader r(payload);
  if (r.u8() != kQueryTag) throw WireError("wire: not a query frame");
  check_version(r);
  WireQuery wq;
  Query& q = wq.query;
  q.input_dataset = r.u32();
  const std::uint32_t extras = r.u32();
  if (extras > 1024) throw WireError("wire: implausible extra-input count");
  for (std::uint32_t i = 0; i < extras; ++i) q.extra_input_datasets.push_back(r.u32());
  q.output_dataset = r.u32();
  q.range = r.rect();
  q.map_function = r.str();
  q.aggregation = r.str();
  q.strategy = static_cast<StrategyKind>(r.u8());
  q.tiling_order = static_cast<TilingOrder>(r.u8());
  q.delivery = static_cast<OutputDelivery>(r.u8());
  q.seed = r.u64();
  const std::uint8_t flags = r.u8();
  wq.options.init_from_output = (flags & kOptInitFromOutput) != 0;
  wq.options.pipeline_tiles = (flags & kOptPipelineTiles) != 0;
  wq.options.record_trace = (flags & kOptRecordTrace) != 0;
  wq.options.comm_cpu_bytes_per_sec = r.f64();
  const std::uint8_t qos_flags = r.u8();
  const std::uint8_t priority = r.u8();
  const std::uint32_t remaining_ms = r.u32();
  wq.options.qos.drop_on_expiry = (qos_flags & kQosDropOnExpiry) != 0;
  wq.options.qos.priority =
      priority <= static_cast<std::uint8_t>(QosPriority::kInteractive)
          ? static_cast<QosPriority>(priority)
          : QosPriority::kNormal;
  if ((qos_flags & kQosHasDeadline) != 0) {
    // Rebuild an absolute deadline on the receiver's steady clock.
    wq.options.qos.deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(remaining_ms);
  }
  if (!r.done()) throw WireError("wire: trailing bytes after query");
  return wq;
}

WireResult to_wire_result(const QueryResult& result) {
  WireResult w;
  w.strategy = result.strategy;
  w.tiles = result.tiles;
  w.ghost_chunks = result.ghost_chunks;
  w.chunk_reads = result.chunk_reads;
  w.total_s = result.stats.total_s;
  w.bytes_communicated = result.stats.total_bytes_sent();
  w.cache_hits = result.cache_hits;
  w.cache_misses = result.cache_misses;
  w.outputs = result.outputs;
  return w;
}

std::vector<std::byte> encode_result(const WireResult& result) {
  Writer w;
  w.u8(kResultTag);
  w.u8(kVersion);
  w.u8(result.ok() ? 1 : 0);
  w.str(result.status.message);
  w.u8(static_cast<std::uint8_t>(result.strategy));
  w.u32(static_cast<std::uint32_t>(result.tiles));
  w.u64(result.ghost_chunks);
  w.u64(result.chunk_reads);
  w.f64(result.total_s);
  w.u64(result.bytes_communicated);
  w.u64(result.cache_hits);
  w.u64(result.cache_misses);
  w.u32(result.retry_after_ms);
  w.u16(static_cast<std::uint16_t>(result.status.code));
  w.u32(static_cast<std::uint32_t>(result.outputs.size()));
  for (const Chunk& chunk : result.outputs) {
    w.u32(chunk.meta().id.dataset);
    w.u32(chunk.meta().id.index);
    w.u64(chunk.meta().bytes);
    w.rect(chunk.meta().mbr);
    w.bytes(chunk.payload());
  }
  return w.take();
}

WireResult decode_result(std::span<const std::byte> payload) {
  Reader r(payload);
  if (r.u8() != kResultTag) throw WireError("wire: not a result frame");
  check_version(r);
  WireResult out;
  const bool ok = r.u8() != 0;
  std::string error = r.str();
  out.strategy = static_cast<StrategyKind>(r.u8());
  out.tiles = static_cast<int>(r.u32());
  out.ghost_chunks = r.u64();
  out.chunk_reads = r.u64();
  out.total_s = r.f64();
  out.bytes_communicated = r.u64();
  out.cache_hits = r.u64();
  out.cache_misses = r.u64();
  out.retry_after_ms = r.u32();
  const auto code = static_cast<StatusCode>(r.u16());
  // The ok flag stays authoritative: a failure frame whose code byte
  // says kOk still decodes to a failure.
  out.status = ok ? Status::make_ok()
                  : Status::make(code == StatusCode::kOk ? StatusCode::kInternal : code,
                                 std::move(error));
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    ChunkMeta meta;
    meta.id.dataset = r.u32();
    meta.id.index = r.u32();
    meta.bytes = r.u64();
    meta.mbr = r.rect();
    out.outputs.emplace_back(meta, r.bytes());
  }
  if (!r.done()) throw WireError("wire: trailing bytes after result");
  return out;
}

bool is_stats_request(std::span<const std::byte> payload) {
  return !payload.empty() &&
         static_cast<std::uint8_t>(payload[0]) == kStatsRequestTag;
}

bool is_result_frame(std::span<const std::byte> payload) {
  return !payload.empty() && static_cast<std::uint8_t>(payload[0]) == kResultTag;
}

std::vector<std::byte> encode_stats_request(const WireStatsRequest& request) {
  Writer w;
  w.u8(kStatsRequestTag);
  w.u8(kVersion);
  w.u8(request.include_trace ? 1 : 0);
  w.u8(request.include_history ? 1 : 0);
  w.u32(request.history_samples);
  return w.take();
}

WireStatsRequest decode_stats_request(std::span<const std::byte> payload) {
  Reader r(payload);
  if (r.u8() != kStatsRequestTag) throw WireError("wire: not a stats request");
  check_version(r);
  WireStatsRequest req;
  req.include_trace = r.u8() != 0;
  req.include_history = r.u8() != 0;
  req.history_samples = r.u32();
  if (!r.done()) throw WireError("wire: trailing bytes after stats request");
  return req;
}

std::vector<std::byte> encode_stats_reply(const WireStatsReply& reply) {
  Writer w;
  w.u8(kStatsReplyTag);
  w.u8(kVersion);
  w.str(reply.metrics_json);
  w.str(reply.trace_json);
  w.str(reply.history_json);
  return w.take();
}

WireStatsReply decode_stats_reply(std::span<const std::byte> payload) {
  Reader r(payload);
  if (r.u8() != kStatsReplyTag) throw WireError("wire: not a stats reply");
  check_version(r);
  WireStatsReply reply;
  reply.metrics_json = r.str();
  reply.trace_json = r.str();
  reply.history_json = r.str();
  if (!r.done()) throw WireError("wire: trailing bytes after stats reply");
  return reply;
}

}  // namespace adr::net
