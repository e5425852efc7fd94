#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket_io.hpp"
#include "net/wire.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"

namespace adr::net {
namespace {

// ------------------------------------------------------------- wire

TEST(Wire, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-3.25);
  w.str("hello adr");
  std::vector<std::byte> blob = {std::byte{1}, std::byte{2}, std::byte{3}};
  w.bytes(blob);
  w.rect(Rect(Point{1.0, -2.0, 3.0}, Point{4.0, 5.0, 6.0}));

  const auto buffer = w.take();
  Reader r(buffer);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), -3.25);
  EXPECT_EQ(r.str(), "hello adr");
  EXPECT_EQ(r.bytes(), blob);
  const Rect rect = r.rect();
  EXPECT_EQ(rect.dims(), 3);
  EXPECT_DOUBLE_EQ(rect.lo()[1], -2.0);
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedFrameThrows) {
  Writer w;
  w.u64(42);
  auto buffer = w.take();
  buffer.pop_back();
  Reader r(buffer);
  EXPECT_THROW(r.u64(), WireError);
}

TEST(Wire, QueryRoundTrip) {
  Query q;
  q.input_dataset = 3;
  q.extra_input_datasets = {7, 9};
  q.output_dataset = 4;
  q.range = Rect(Point{-180.0, -90.0, 0.0}, Point{180.0, 90.0, 10.0});
  q.map_function = "identity";
  q.aggregation = "sum-count-max";
  q.strategy = StrategyKind::kSRA;
  q.tiling_order = TilingOrder::kRowMajor;
  q.delivery = OutputDelivery::kReturnToClient;
  q.seed = 12345;

  const Query back = decode_query_frame(encode_query(q)).query;
  EXPECT_EQ(back.input_dataset, 3u);
  EXPECT_EQ(back.extra_input_datasets, (std::vector<std::uint32_t>{7, 9}));
  EXPECT_EQ(back.output_dataset, 4u);
  EXPECT_EQ(back.range, q.range);
  EXPECT_EQ(back.map_function, "identity");
  EXPECT_EQ(back.aggregation, "sum-count-max");
  EXPECT_EQ(back.strategy, StrategyKind::kSRA);
  EXPECT_EQ(back.tiling_order, TilingOrder::kRowMajor);
  EXPECT_EQ(back.delivery, OutputDelivery::kReturnToClient);
  EXPECT_EQ(back.seed, 12345u);
}

TEST(Wire, ResultRoundTripWithChunks) {
  WireResult result;
  result.strategy = StrategyKind::kDA;
  result.tiles = 5;
  result.ghost_chunks = 99;
  result.chunk_reads = 1234;
  result.total_s = 17.5;
  result.bytes_communicated = 1ull << 40;
  ChunkMeta meta;
  meta.id = {2, 6};
  meta.bytes = 8;
  meta.mbr = Rect::cube(2, 0.0, 1.0);
  std::vector<std::byte> payload(8, std::byte{0x5a});
  result.outputs.emplace_back(meta, payload);

  const WireResult back = decode_result(encode_result(result));
  EXPECT_TRUE(back.ok());
  EXPECT_EQ(back.status.code, StatusCode::kOk);
  EXPECT_EQ(back.strategy, StrategyKind::kDA);
  EXPECT_EQ(back.tiles, 5);
  EXPECT_EQ(back.ghost_chunks, 99u);
  EXPECT_EQ(back.bytes_communicated, 1ull << 40);
  ASSERT_EQ(back.outputs.size(), 1u);
  EXPECT_EQ(back.outputs[0].meta().id, (ChunkId{2, 6}));
  EXPECT_EQ(back.outputs[0].payload(), payload);
}

TEST(Wire, ErrorResultRoundTrip) {
  WireResult result;
  result.status = Status::make(StatusCode::kExecFailed, "unknown aggregation");
  const WireResult back = decode_result(encode_result(result));
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status.code, StatusCode::kExecFailed);
  EXPECT_EQ(back.error(), "unknown aggregation");
}

TEST(Wire, StatusCodesRoundTripV4) {
  // Every typed failure code survives the wire unchanged (v4 result
  // frames append the raw 16-bit code after the v3 retry hint).
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound, StatusCode::kBusy,
        StatusCode::kPlanRejected, StatusCode::kExecFailed,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    WireResult result;
    result.status = Status::make(code, "details");
    const WireResult back = decode_result(encode_result(result));
    EXPECT_FALSE(back.ok());
    EXPECT_EQ(back.status.code, code);
    EXPECT_EQ(back.error(), "details");
  }
}

TEST(Wire, RetryAfterHintRoundTrips) {
  WireResult result;
  result.status = Status::make(StatusCode::kBusy, kServerBusyError);
  result.retry_after_ms = 750;
  const WireResult back = decode_result(encode_result(result));
  EXPECT_TRUE(back.server_busy());
  EXPECT_EQ(back.retry_after_ms, 750u);
}

TEST(Wire, ExecOptionsTravelWithQueryFrame) {
  Query q;
  q.input_dataset = 1;
  q.output_dataset = 2;
  q.range = Rect::cube(2, 0.0, 1.0);
  // Flip every flag away from its default (and set a nonzero comm-CPU
  // rate) so the round trip can't pass by accident.
  ExecOptions options;
  options.init_from_output = false;
  options.pipeline_tiles = false;
  options.record_trace = true;
  options.comm_cpu_bytes_per_sec = 1.5e9;
  const WireQuery back = decode_query_frame(encode_query(q, options));
  EXPECT_EQ(back.query.input_dataset, 1u);
  EXPECT_FALSE(back.options.init_from_output);
  EXPECT_FALSE(back.options.pipeline_tiles);
  EXPECT_TRUE(back.options.record_trace);
  EXPECT_DOUBLE_EQ(back.options.comm_cpu_bytes_per_sec, 1.5e9);

  // Omitted options decode back to the defaults.
  const ExecOptions defaults;
  const WireQuery plain = decode_query_frame(encode_query(q));
  EXPECT_EQ(plain.options.init_from_output, defaults.init_from_output);
  EXPECT_EQ(plain.options.pipeline_tiles, defaults.pipeline_tiles);
  EXPECT_EQ(plain.options.record_trace, defaults.record_trace);
  EXPECT_DOUBLE_EQ(plain.options.comm_cpu_bytes_per_sec,
                   defaults.comm_cpu_bytes_per_sec);
}

TEST(Wire, V5FrameOfEveryKindRejected) {
  // Only v6 decodes: a frame of each kind, stamped with the previous
  // version, is refused by its own decoder rather than half-parsed.
  WireStatsReply reply;
  reply.metrics_json = "{}";
  Query q;
  q.range = Rect::cube(2, 0.0, 1.0);
  std::vector<std::byte> query = encode_query(q);
  std::vector<std::byte> result = encode_result(WireResult{});
  std::vector<std::byte> request = encode_stats_request({});
  std::vector<std::byte> stats = encode_stats_reply(reply);
  for (std::vector<std::byte>* frame : {&query, &result, &request, &stats}) {
    (*frame)[1] = std::byte{5};  // byte 0 is the kind tag, byte 1 the version
  }
  EXPECT_THROW(decode_query_frame(query), WireError);
  EXPECT_THROW(decode_result(result), WireError);
  EXPECT_THROW(decode_stats_request(request), WireError);
  EXPECT_THROW(decode_stats_reply(stats), WireError);
}

TEST(Wire, UnsupportedVersionRejected) {
  Writer w;
  w.u8(0x52);
  w.u8(1);  // v1 predates the cache counters; no longer decodable
  EXPECT_THROW(decode_result(w.take()), WireError);
}

TEST(Wire, StatsFramesRoundTrip) {
  WireStatsRequest req;
  req.include_trace = true;
  const auto req_frame = encode_stats_request(req);
  EXPECT_TRUE(is_stats_request(req_frame));
  EXPECT_TRUE(decode_stats_request(req_frame).include_trace);
  EXPECT_FALSE(decode_stats_request(encode_stats_request({})).include_trace);

  WireStatsReply reply;
  reply.metrics_json = "{\"counters\":{}}";
  reply.trace_json = "{\"traceEvents\":[]}";
  const WireStatsReply back = decode_stats_reply(encode_stats_reply(reply));
  EXPECT_EQ(back.metrics_json, reply.metrics_json);
  EXPECT_EQ(back.trace_json, reply.trace_json);
}

TEST(Wire, StatsFrameRejectedByOtherDecoders) {
  const auto frame = encode_stats_request({});
  EXPECT_THROW(decode_query_frame(frame), WireError);
  EXPECT_THROW(decode_result(frame), WireError);
  Query q;
  q.range = Rect::cube(2, 0.0, 1.0);
  EXPECT_FALSE(is_stats_request(encode_query(q)));
}

TEST(Wire, QueryFrameRejectedAsResult) {
  Query q;
  q.range = Rect::cube(2, 0.0, 1.0);
  EXPECT_THROW(decode_result(encode_query(q)), WireError);
  WireResult result;
  EXPECT_THROW(decode_query_frame(encode_result(result)), WireError);
}

// ----------------------------------------------------- client/server

struct ServerFixture {
  Repository repo;
  std::uint32_t in = 0;
  std::uint32_t out = 0;
  AdrServer server;

  /// `cache_bytes_per_node` sizes the cross-query chunk cache; 0
  /// disables it (fault tests disable it so every fetch exercises the
  /// storage.fetch point instead of being served warm).  The marginal
  /// cache follows the same knob: a repeated query it serves from
  /// cached partials would skip the storage path entirely.
  explicit ServerFixture(std::uint64_t cache_bytes_per_node = 64ull << 20)
      : repo([cache_bytes_per_node] {
          RepositoryConfig cfg;
          cfg.backend = RepositoryConfig::Backend::kThreads;
          cfg.num_nodes = 2;
          cfg.memory_per_node = 1 << 20;
          cfg.chunk_cache_bytes_per_node = cache_bytes_per_node;
          cfg.marginal_cache_bytes = cache_bytes_per_node;
          return cfg;
        }()),
        server(repo, /*port=*/0) {
    const Rect domain = Rect::cube(2, 0.0, 1.0);
    std::vector<Chunk> inputs;
    for (int iy = 0; iy < 4; ++iy) {
      for (int ix = 0; ix < 4; ++ix) {
        ChunkMeta meta;
        meta.mbr = adr::testing::cell(domain, 4, ix, iy);
        std::vector<std::uint64_t> vals = {static_cast<std::uint64_t>(iy * 4 + ix)};
        std::vector<std::byte> payload(sizeof(std::uint64_t));
        std::memcpy(payload.data(), vals.data(), payload.size());
        inputs.emplace_back(meta, std::move(payload));
      }
    }
    std::vector<Chunk> outputs;
    for (int iy = 0; iy < 2; ++iy) {
      for (int ix = 0; ix < 2; ++ix) {
        ChunkMeta meta;
        meta.mbr = adr::testing::cell(domain, 2, ix, iy);
        outputs.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
      }
    }
    in = repo.create_dataset("in", domain, std::move(inputs));
    out = repo.create_dataset("out", domain, std::move(outputs));
    server.start();
  }

  Query basic_query() const {
    Query q;
    q.input_dataset = in;
    q.output_dataset = out;
    q.range = Rect::cube(2, 0.0, 1.0);
    q.aggregation = "sum-count-max";
    q.delivery = OutputDelivery::kReturnToClient;
    return q;
  }
};

TEST(ClientServer, QueryOverLoopback) {
  ServerFixture fx;
  AdrClient client(fx.server.port());
  const WireResult result = client.submit(fx.basic_query());
  ASSERT_TRUE(result.ok()) << result.error();
  ASSERT_EQ(result.outputs.size(), 4u);
  std::uint64_t sum = 0;
  for (const Chunk& c : result.outputs) sum += c.as<std::uint64_t>()[0];
  EXPECT_EQ(sum, 120u);  // sum of 0..15
  EXPECT_EQ(fx.server.queries_served(), 1u);
}

TEST(ClientServer, MultipleQueriesOnOneConnection) {
  ServerFixture fx;
  AdrClient client(fx.server.port());
  for (StrategyKind s : {StrategyKind::kFRA, StrategyKind::kSRA, StrategyKind::kDA}) {
    Query q = fx.basic_query();
    q.strategy = s;
    const WireResult result = client.submit(q);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(result.strategy, s);
  }
  EXPECT_EQ(fx.server.queries_served(), 3u);
}

TEST(ClientServer, SequentialClients) {
  ServerFixture fx;
  for (int c = 0; c < 3; ++c) {
    AdrClient client(fx.server.port());
    const WireResult result = client.submit(fx.basic_query());
    EXPECT_TRUE(result.ok());
  }
  EXPECT_EQ(fx.server.queries_served(), 3u);
}

TEST(ClientServer, ServerSideErrorReturnedToClient) {
  ServerFixture fx;
  AdrClient client(fx.server.port());
  Query q = fx.basic_query();
  q.aggregation = "no-such-op";
  const WireResult result = client.submit(q);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unknown aggregation"), std::string::npos);
  // The connection survives an error; a good query still works.
  EXPECT_TRUE(client.submit(fx.basic_query()).ok());
}

TEST(ClientServer, StopUnblocksAndRefusesNewClients) {
  ServerFixture fx;
  const std::uint16_t port = fx.server.port();
  fx.server.stop();
  EXPECT_THROW(AdrClient{port}, std::runtime_error);
}

TEST(ClientServer, StatsEndpointReturnsLiveMetrics) {
  ServerFixture fx;
  AdrClient client(fx.server.port());
  ASSERT_TRUE(client.submit(fx.basic_query()).ok());

  const WireStatsReply stats = client.stats();
  ASSERT_NO_THROW(obs::parse_json(stats.metrics_json));
  EXPECT_TRUE(stats.trace_json.empty());  // not requested

  // The serving stack's series are present and alive: metrics are
  // process-cumulative, so after one query on this connection the
  // submit histogram and server counters must be nonzero.
  const std::string& json = stats.metrics_json;
  EXPECT_NE(json.find("\"server.queries_served\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"server.connections_accepted\":"), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.completed\":"), std::string::npos);
  EXPECT_NE(json.find("\"submit.latency_s\""), std::string::npos);
  EXPECT_NE(json.find("\"executor_pool.leases\":"), std::string::npos);
  EXPECT_NE(json.find("\"chunk_cache.hits\":"), std::string::npos);
  EXPECT_EQ(json.find("\"submit.latency_s\":{\"count\":0"), std::string::npos)
      << "submit latency histogram should have samples: " << json;

  // Queries and stats requests interleave on one connection.
  EXPECT_TRUE(client.submit(fx.basic_query()).ok());
  EXPECT_TRUE(client.connected());
}

TEST(ClientServer, StatsIncludesTraceWhenEnabled) {
  obs::tracer().enable(4096);
  {
    ServerFixture fx;
    AdrClient client(fx.server.port());
    ASSERT_TRUE(client.submit(fx.basic_query()).ok());

    const WireStatsReply stats = client.stats(/*include_trace=*/true);
    ASSERT_NO_THROW(obs::parse_json(stats.metrics_json));
    ASSERT_FALSE(stats.trace_json.empty());
    ASSERT_NO_THROW(obs::parse_json(stats.trace_json));
    EXPECT_NE(stats.trace_json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(stats.trace_json.find("\"name\":\"queued\""), std::string::npos);
    EXPECT_NE(stats.trace_json.find("\"name\":\"planned\""), std::string::npos);
    EXPECT_NE(stats.trace_json.find("\"name\":\"reply\""), std::string::npos);
  }
  obs::tracer().disable();
  obs::tracer().clear();
}

TEST(ClientServer, BusyRefusalCarriesRetryAfterHint) {
  ServerFixture fx;
  AdrServer tight(fx.repo, /*port=*/0, ComputeCosts{}, {.max_connections = 1});
  tight.start();

  AdrClient first(tight.port());
  // A served query guarantees the first connection is registered before
  // the second one arrives (connect() alone can race the accept loop).
  ASSERT_TRUE(first.submit(fx.basic_query()).ok());

  AdrClient second(tight.port());
  const WireResult refusal = second.submit(fx.basic_query());
  ASSERT_TRUE(refusal.server_busy());
  EXPECT_GE(refusal.retry_after_ms, 25u);
  EXPECT_LE(refusal.retry_after_ms, 10000u);
  EXPECT_FALSE(second.connected());  // busy refusal closes the connection
  tight.stop();
}

TEST(ClientServer, ConnectToClosedPortFails) {
  // An ephemeral port that nothing listens on.
  Repository repo([] {
    RepositoryConfig cfg;
    cfg.num_nodes = 1;
    return cfg;
  }());
  AdrServer probe(repo, 0);
  const std::uint16_t dead_port = probe.port();
  probe.stop();  // release without ever starting
  EXPECT_THROW(AdrClient{dead_port}, std::runtime_error);
}

// --------------------------------------------- fault-injected serving
//
// Deterministic replacements for the old sleep-and-hope retry loops:
// the fault registry drops replies / fails fetches on purpose, and the
// retrying client must absorb every injected failure.  The
// FaultServing.* suite is a ThreadSanitizer target (see
// .github/workflows/ci.yml).

std::uint64_t output_sum(const WireResult& result) {
  std::uint64_t sum = 0;
  for (const Chunk& c : result.outputs) sum += c.as<std::uint64_t>()[0];
  return sum;
}

/// Output payloads keyed by chunk id — delivery order varies with node
/// scheduling, so byte-identity is asserted per chunk, not positionally.
std::map<std::uint32_t, std::vector<std::byte>> outputs_by_id(
    const WireResult& result) {
  std::map<std::uint32_t, std::vector<std::byte>> bytes;
  for (const Chunk& c : result.outputs) bytes[c.meta().id.index] = c.payload();
  return bytes;
}

TEST(FaultServing, ClientRetriesDroppedReplyAndSucceeds) {
  ServerFixture fx;
  fault::ScopedFaultPlan plan(/*seed=*/31);
  fault::FaultSpec drop;
  drop.trigger = fault::Trigger::kOneShot;  // exactly the first reply dies
  plan.arm("net.reply_drop", drop);

  const std::uint64_t retries_before =
      obs::metrics().counter("client.retries").value();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = std::chrono::milliseconds(2);
  policy.seed = 1;
  AdrClient client(fx.server.port(), policy);
  const WireResult result = client.submit(fx.basic_query());
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.attempts, 2u);  // one drop, one clean resubmission
  EXPECT_EQ(output_sum(result), 120u);
  EXPECT_EQ(fault::faults().stats("net.reply_drop").fires, 1u);
  EXPECT_GE(obs::metrics().counter("client.retries").value(),
            retries_before + 1);
}

TEST(FaultServing, NonIdempotentPolicyDoesNotRetryTransportLoss) {
  ServerFixture fx;
  fault::ScopedFaultPlan plan(/*seed=*/32);
  fault::FaultSpec drop;
  drop.trigger = fault::Trigger::kOneShot;
  plan.arm("net.reply_drop", drop);

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.idempotent = false;  // a re-execution could double-apply
  policy.seed = 1;
  AdrClient client(fx.server.port(), policy);
  const WireResult result = client.submit(fx.basic_query());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code, StatusCode::kUnavailable);
  EXPECT_EQ(result.attempts, 1u);
}

TEST(FaultServing, BusyRefusalIsRetriedAfterServerHint) {
  ServerFixture fx;
  AdrServer tight(fx.repo, /*port=*/0, ComputeCosts{}, {.max_connections = 1});
  tight.start();

  AdrClient holder(tight.port());
  ASSERT_TRUE(holder.submit(fx.basic_query()).ok());  // slot registered

  // The retrying client's own backoff is a token 1ms with no jitter, so
  // any wait beyond that is the server's retry_after hint (>= 25ms by
  // the hint clamp) being honored.
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.jitter = 0.0;
  policy.seed = 2;
  AdrClient second(tight.port(), policy);
  const std::uint64_t gave_up_before =
      obs::metrics().counter("client.gave_up").value();
  const auto start = std::chrono::steady_clock::now();
  const WireResult result = second.submit(fx.basic_query());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The holder never releases its slot, so both attempts are refused —
  // but the retry slept through the hint first.
  EXPECT_TRUE(result.server_busy());
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
  EXPECT_GE(obs::metrics().counter("client.gave_up").value(),
            gave_up_before + 1);
  tight.stop();
}

TEST(FaultServing, AsyncQueueDrainsThroughRetries) {
  ServerFixture fx;
  fault::ScopedFaultPlan plan(/*seed=*/33);
  fault::FaultSpec drop;
  drop.trigger = fault::Trigger::kEveryNth;
  drop.every_nth = 3;
  drop.max_fires = 2;
  plan.arm("net.reply_drop", drop);

  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = std::chrono::milliseconds(2);
  policy.max_pending = 4;
  policy.seed = 3;
  AdrClient client(fx.server.port(), policy);
  std::vector<std::future<WireResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(client.submit_async(fx.basic_query()));
  }
  for (auto& f : futures) {
    const WireResult result = f.get();
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(output_sum(result), 120u);
  }
  EXPECT_EQ(client.pending(), 0u);
}

TEST(FaultServing, PendingQueueIsBounded) {
  // No server behind this port: the sender thread gets stuck retrying
  // the first query (long backoff), so the queue demonstrably fills.
  Repository repo([] {
    RepositoryConfig cfg;
    cfg.num_nodes = 1;
    return cfg;
  }());
  AdrServer probe(repo, 0);
  const std::uint16_t dead_port = probe.port();
  probe.stop();

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(400);
  policy.max_backoff = std::chrono::milliseconds(400);
  policy.jitter = 0.0;
  policy.max_pending = 1;
  policy.seed = 4;
  AdrClient client(dead_port, policy);

  Query q;  // never reaches a server; content is irrelevant
  q.range = Rect::cube(2, 0.0, 1.0);
  auto first = client.submit_async(q);
  // Wait for the sender to take the first item into its backoff sleep.
  for (int i = 0; i < 200 && client.pending() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(client.pending(), 0u);
  auto second = client.submit_async(q);  // fills the single slot
  EXPECT_EQ(client.pending(), 1u);
  // Queue full: the non-blocking submit refuses instead of queueing.
  EXPECT_FALSE(client.try_submit_async(q).has_value());

  const WireResult r1 = first.get();
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status.code, StatusCode::kUnavailable);
  EXPECT_EQ(r1.attempts, 3u);  // every attempt failed to connect
  // The second future resolves too — either exhausted the same way or
  // failed by the destructor's drain; no future may dangle.
  const WireResult r2 = second.get();
  EXPECT_FALSE(r2.ok());
}

TEST(FaultServing, EightClientsSurviveSeededFaultPlanByteIdentically) {
  // The acceptance bar: under a seeded plan injecting storage fetch
  // errors and dropped replies, 8 concurrent retrying clients all
  // succeed with results byte-identical to a fault-free run — and the
  // whole experiment replays identically under the same seed.
  ServerFixture fx(/*cache_bytes_per_node=*/0);  // every fetch hits disk

  // Golden run before any fault is armed.
  std::map<std::uint32_t, std::vector<std::byte>> golden;
  {
    AdrClient client(fx.server.port());
    const WireResult clean = client.submit(fx.basic_query());
    ASSERT_TRUE(clean.ok()) << clean.status.to_string();
    golden = outputs_by_id(clean);
    ASSERT_EQ(golden.size(), 4u);
  }

  const auto run_experiment = [&]() {
    fault::ScopedFaultPlan plan(/*seed=*/0xfa1);
    fault::FaultSpec fetch;
    fetch.trigger = fault::Trigger::kProbability;
    fetch.probability = 0.25;  // >= 10% of storage fetches die...
    fetch.max_fires = 10;      // ...until the budget is spent
    plan.arm("storage.fetch", fetch);
    fault::FaultSpec drop;
    drop.trigger = fault::Trigger::kEveryNth;
    drop.every_nth = 3;
    drop.max_fires = 4;
    plan.arm("net.reply_drop", drop);

    constexpr int kClients = 8;
    std::vector<std::thread> workers;
    std::vector<WireResult> results(kClients);
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c]() {
        RetryPolicy policy;
        policy.max_attempts = 10;
        policy.initial_backoff = std::chrono::milliseconds(2);
        policy.max_backoff = std::chrono::milliseconds(50);
        policy.seed = static_cast<std::uint64_t>(c);
        AdrClient client(fx.server.port(), policy);
        results[static_cast<std::size_t>(c)] = client.submit(fx.basic_query());
      });
    }
    for (auto& w : workers) w.join();

    // Zero client-visible failures, every result byte-identical.
    for (int c = 0; c < kClients; ++c) {
      const WireResult& r = results[static_cast<std::size_t>(c)];
      ASSERT_TRUE(r.ok()) << "client " << c << ": " << r.status.to_string();
      EXPECT_EQ(outputs_by_id(r), golden) << "client " << c;
    }
    // The plan drew blood: the faults actually exercised the paths.
    const fault::PointStats fetch_stats =
        fault::faults().stats("storage.fetch");
    const fault::PointStats drop_stats =
        fault::faults().stats("net.reply_drop");
    EXPECT_GT(fetch_stats.hits, 0u);
    EXPECT_GT(fetch_stats.fires, 0u);
    EXPECT_GT(drop_stats.fires, 0u);
  };

  run_experiment();
  run_experiment();  // same seed, same outcome: replayable by design
}

// ------------------------------------------------ event-loop serving
//
// The C10K front end: one thread owns every socket, so these tests pin
// down the behaviors a thread-per-connection server got for free (and
// the ones it got wrong).  The EventLoopServing.* suite is a
// ThreadSanitizer target (see .github/workflows/ci.yml).

/// Plain TCP connect with none of AdrClient's protocol behavior: the
/// peer for tests that need a client that misbehaves (never reads,
/// half-sends a frame, or just sits idle).
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(EventLoopServing, ManyIdleConnectionsDoNotStarveServing) {
  // Hundreds of idle connections parked on the loop while a live client
  // keeps querying: the loop's readiness model means idle sockets cost
  // nothing, where thread-per-connection burned a stack each.
  ServerFixture fx;
  AdrServer big(fx.repo, /*port=*/0, ComputeCosts{}, {.max_connections = 512});
  big.start();

  std::vector<int> idle;
  for (int i = 0; i < 300; ++i) {
    const int fd = raw_connect(big.port());
    ASSERT_GE(fd, 0) << "connect " << i << " failed";
    idle.push_back(fd);
  }
  // The loop accepts asynchronously; wait for the full herd.
  for (int i = 0; i < 2000 && big.active_connections() < idle.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(big.active_connections(), idle.size());

  AdrClient client(big.port());
  for (int i = 0; i < 3; ++i) {
    const WireResult result = client.submit(fx.basic_query());
    ASSERT_TRUE(result.ok()) << result.status.to_string();
  }
  EXPECT_EQ(big.queries_served(), 3u);

  for (const int fd : idle) ::close(fd);
  // The loop notices every close and releases the slots.
  for (int i = 0; i < 2000 && big.active_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(big.active_connections(), 1u);
  big.stop();
}

TEST(EventLoopServing, MidFrameClientCloseReleasesTheConnection) {
  ServerFixture fx;
  const int fd = raw_connect(fx.server.port());
  ASSERT_GE(fd, 0);
  // Promise a 64-byte frame, deliver 10, vanish.
  std::vector<std::byte> torn(14);
  torn[0] = std::byte{64};  // little-endian length 64, bytes 1..3 zero
  ASSERT_EQ(::send(fd, torn.data(), torn.size(), 0),
            static_cast<ssize_t>(torn.size()));
  for (int i = 0; i < 1000 && fx.server.active_connections() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(fd);
  for (int i = 0; i < 2000 && fx.server.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fx.server.active_connections(), 0u);
  // The half-frame never became a query, and serving is unharmed.
  EXPECT_EQ(fx.server.queries_served(), 0u);
  AdrClient client(fx.server.port());
  EXPECT_TRUE(client.submit(fx.basic_query()).ok());
}

TEST(EventLoopServing, StopDuringPartialFrameReturnsPromptly) {
  ServerFixture fx;
  const int fd = raw_connect(fx.server.port());
  ASSERT_GE(fd, 0);
  std::byte half_header[2] = {std::byte{8}, std::byte{0}};
  ASSERT_EQ(::send(fd, half_header, 2, 0), 2);
  for (int i = 0; i < 1000 && fx.server.active_connections() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The peer neither completes its frame nor closes: stop() must cut it
  // off at the drain deadline, not wait for it.
  const auto start = std::chrono::steady_clock::now();
  fx.server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  EXPECT_EQ(fx.server.active_connections(), 0u);
  ::close(fd);
}

// The connection cap lives in FrameLoop, so both front ends must honor
// it identically; each case builds one with max_connections = 1.
enum class FrontEnd { kServer, kRouter };

class ConnectionCap : public ::testing::TestWithParam<FrontEnd> {
 protected:
  /// Starts the capped front end; the router relays to `fx_.server`.
  void SetUp() override {
    if (GetParam() == FrontEnd::kServer) {
      server_ = std::make_unique<AdrServer>(fx_.repo, /*port=*/0, ComputeCosts{},
                                            RuntimeConfig{.max_connections = 1});
      server_->start();
      return;
    }
    RouterConfig cfg;
    cfg.backend_ports = {fx_.server.port()};
    cfg.max_connections = 1;
    cfg.probe_interval = std::chrono::milliseconds(0);
    refused_before_ = obs::metrics().counter("router.connections_refused").value();
    router_ = std::make_unique<AdrRouter>(cfg);
    router_->start();
  }
  std::uint16_t port() const { return server_ ? server_->port() : router_->port(); }
  std::size_t active_connections() const {
    if (server_) return server_->active_connections();
    return static_cast<std::size_t>(
        obs::metrics().gauge("router.active_connections").value());
  }
  std::uint64_t connections_refused() const {
    if (server_) return server_->connections_refused();
    return obs::metrics().counter("router.connections_refused").value() -
           refused_before_;
  }

  ServerFixture fx_;  // declared first: outlives the front end built on it
  std::unique_ptr<AdrServer> server_;
  std::unique_ptr<AdrRouter> router_;
  std::uint64_t refused_before_ = 0;
};

TEST_P(ConnectionCap, RefusedPeerNeverReadsDoesNotBlockActiveConnections) {
  // Regression: the refusal path once did a blocking busy-frame write
  // plus an up-to-200ms drain read while holding the connection lock, so
  // one refused peer that never read froze active_connections() (and
  // stop()) for the whole drain.  Refusal I/O is now queued, non-blocking
  // and deadline-bounded, off every lock.
  AdrClient holder(port());
  ASSERT_TRUE(holder.submit(fx_.basic_query()).ok());  // slot registered

  const int refused = raw_connect(port());
  ASSERT_GE(refused, 0);
  // Hammer active_connections() through the refusal's whole drain
  // window; every call must return immediately.
  std::chrono::steady_clock::duration worst{};
  for (int i = 0; i < 60; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_LE(active_connections(), 1u);
    worst = std::max(worst, std::chrono::steady_clock::now() - t0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(worst, std::chrono::milliseconds(100));
  EXPECT_GE(connections_refused(), 1u);

  // The busy frame still reached the peer (refusal is an answer, not a
  // slammed door), even though the peer never read during the drain.
  std::vector<std::byte> payload;
  ASSERT_TRUE(read_frame(refused, payload));
  const WireResult busy = decode_result(payload);
  EXPECT_TRUE(busy.server_busy());
  EXPECT_EQ(busy.status.code, StatusCode::kBusy);
  ::close(refused);

  // The holder was never disturbed.
  EXPECT_TRUE(holder.submit(fx_.basic_query()).ok());
}

INSTANTIATE_TEST_SUITE_P(FrameLoop, ConnectionCap,
                         ::testing::Values(FrontEnd::kServer, FrontEnd::kRouter),
                         [](const ::testing::TestParamInfo<FrontEnd>& info) {
                           return info.param == FrontEnd::kServer ? "Server"
                                                                  : "Router";
                         });

TEST(EventLoopServing, AcceptErrorsBackOffAndRecover) {
  // Regression: persistent accept() failure (the EMFILE storm) used to
  // busy-spin the accept loop at 100% CPU.  With the injected net.accept
  // fault the loop must count the errors, back off, and accept the
  // still-queued connection once the failures stop.
  ServerFixture fx;
  const std::uint64_t errors_before =
      obs::metrics().counter("server.accept_errors").value();

  fault::ScopedFaultPlan plan(/*seed=*/41);
  fault::FaultSpec accept_fail;
  accept_fail.trigger = fault::Trigger::kAlways;
  accept_fail.max_fires = 3;
  plan.arm("net.accept", accept_fail);

  // The TCP connect lands in the kernel backlog immediately; the query
  // is served only after the loop survives three injected accept
  // failures (1+2+4ms of backoff) and accepts for real.
  AdrClient client(fx.server.port());
  const WireResult result = client.submit(fx.basic_query());
  ASSERT_TRUE(result.ok()) << result.status.to_string();

  EXPECT_EQ(fault::faults().stats("net.accept").fires, 3u);
  EXPECT_EQ(obs::metrics().counter("server.accept_errors").value(),
            errors_before + 3);
}

TEST(EventLoopServing, StatsAtCapacityReportsBusyNotWireError) {
  // Regression: a stats request against a server at its connection cap
  // is answered with a busy *result* frame; decode_stats_reply used to
  // throw an opaque "wire: not a stats reply".  The client now surfaces
  // the typed refusal with the server's retry-after hint.
  ServerFixture fx;
  AdrServer tight(fx.repo, /*port=*/0, ComputeCosts{}, {.max_connections = 1});
  tight.start();
  AdrClient holder(tight.port());
  ASSERT_TRUE(holder.submit(fx.basic_query()).ok());  // slot registered

  AdrClient second(tight.port());
  try {
    second.stats();
    FAIL() << "stats() at the connection cap should throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kBusy);
    EXPECT_NE(std::string(e.what()).find("retry after"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(second.connected());
  tight.stop();
}

}  // namespace
}  // namespace adr::net
