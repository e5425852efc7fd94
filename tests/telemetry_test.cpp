// Continuous-telemetry tests: the sampler ring, the exposition formats
// (Prometheus text + /history JSON), the per-query cost ledger, and the
// end-to-end pipeline (server sampler -> wire history -> HTTP scrape).
//
// The TelemetrySampler / Exposition / QueryCost suites are in the TSan
// CI filter; keep them free of sleeps-as-synchronization.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/frontend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/query_cost.hpp"
#include "obs/sampler.hpp"
#include "storage/chunk.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using obs::HistogramSnapshot;
using obs::HistoryMeta;
using obs::MetricsSnapshot;
using obs::TelemetrySample;
using obs::TelemetrySampler;

// ------------------------------------------------------------ sampler

/// A sampler whose ring was sized while idle: start() with the options
/// applies the capacity, stop() keeps the ring for direct sample_now().
TelemetrySampler::Options ring_options(std::size_t capacity) {
  TelemetrySampler::Options opts;
  opts.period = std::chrono::milliseconds(60000);  // never ticks in-test
  opts.capacity = capacity;
  return opts;
}

TEST(TelemetrySampler, RingWrapKeepsNewestOldestFirst) {
  TelemetrySampler s;
  s.start(ring_options(4));
  s.stop();  // joins the thread; exactly its one startup sample landed
  ASSERT_EQ(s.capacity(), 4u);
  ASSERT_EQ(s.total_samples(), 1u);

  obs::Counter& c = obs::metrics().counter("test.telemetry.ring_wrap");
  const std::uint64_t base = c.value();
  for (int i = 1; i <= 10; ++i) {
    c.add();
    s.sample_now();
  }

  EXPECT_EQ(s.total_samples(), 11u);  // the ring forgets, the total does not
  const std::vector<TelemetrySample> history = s.history();
  ASSERT_EQ(history.size(), 4u);  // wrapped: only the newest 4 retained
  for (std::size_t j = 0; j < history.size(); ++j) {
    const std::uint64_t* v =
        history[j].snapshot.counter("test.telemetry.ring_wrap");
    ASSERT_NE(v, nullptr);
    // Oldest-first: the 4 retained samples are manual samples 7..10.
    EXPECT_EQ(*v, base + 7 + j);
  }

  const std::vector<TelemetrySample> tail = s.history(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(*tail[1].snapshot.counter("test.telemetry.ring_wrap"), base + 10);

  // Timestamps are monotone oldest-first.
  for (std::size_t j = 1; j < history.size(); ++j) {
    EXPECT_GE(history[j].mono_ms, history[j - 1].mono_ms);
  }
}

TEST(TelemetrySampler, StartStopRefcounted) {
  TelemetrySampler s;
  EXPECT_FALSE(s.running());
  s.start(ring_options(8));
  s.start();  // second holder pins the thread, options unchanged
  EXPECT_TRUE(s.running());
  EXPECT_EQ(s.capacity(), 8u);
  s.stop();
  EXPECT_TRUE(s.running());  // one holder left
  s.stop();
  EXPECT_FALSE(s.running());
  s.stop();  // over-release is a no-op, not an underflow
  EXPECT_FALSE(s.running());
}

TEST(TelemetrySampler, HistoryJsonWellFormed) {
  TelemetrySampler s;
  s.start(ring_options(16));
  s.stop();
  obs::metrics().counter("test.telemetry.json").add();
  s.sample_now();
  s.sample_now();

  const std::string json = s.history_json();
  EXPECT_NO_THROW(obs::parse_json(json));
  EXPECT_NE(json.find("\"period_ms\":60000"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":16"), std::string::npos);
  EXPECT_NE(json.find("test.telemetry.json"), std::string::npos);

  // last_n caps the exported window but not the bookkeeping.
  const obs::JsonValue doc =
      obs::parse_json(s.history_json(/*last_n=*/1));
  EXPECT_EQ(doc.num("samples"), 1.0);
  EXPECT_EQ(doc.num("total_samples"), 3.0);
}

// The TSan target: 8 writer threads hammer the registry while the
// sampler thread snapshots at its minimum period and a reader exports
// JSON — every rendezvous is the registry's own synchronization.
TEST(TelemetrySampler, ConcurrentHammerWhileSampling) {
  TelemetrySampler s;
  TelemetrySampler::Options opts;
  opts.period = std::chrono::milliseconds(10);
  opts.capacity = 64;
  s.start(opts);

  obs::Counter& counter = obs::metrics().counter("test.telemetry.hammer");
  obs::Histogram& hist =
      obs::metrics().histogram("test.telemetry.hammer_lat_s");
  std::atomic<bool> go{true};
  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&counter, &hist, &go, t]() {
      while (go.load(std::memory_order_relaxed)) {
        counter.add();
        hist.observe(1e-4 * (t + 1));
      }
    });
  }

  std::string last;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(80);
  while (std::chrono::steady_clock::now() < deadline) {
    s.sample_now();  // reader racing the sampler thread's own samples
    last = s.history_json(8);
  }
  go.store(false);
  for (std::thread& w : writers) w.join();
  s.stop();

  EXPECT_NO_THROW(obs::parse_json(last));
  EXPECT_GE(s.total_samples(), 2u);
  EXPECT_GT(counter.value(), 0u);
}

// --------------------------------------------------------- exposition

TEST(Exposition, CounterDeltaIsResetAware) {
  EXPECT_EQ(obs::counter_delta(5, 9), 4u);
  EXPECT_EQ(obs::counter_delta(7, 7), 0u);
  // A counter that went backwards restarted from zero: the new absolute
  // value is the delta, never a negative spike.
  EXPECT_EQ(obs::counter_delta(9, 5), 5u);

  EXPECT_DOUBLE_EQ(obs::counter_rate(0, 10, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::counter_rate(9, 4, 2.0), 2.0);  // reset
  EXPECT_DOUBLE_EQ(obs::counter_rate(3, 9, 0.0), 0.0);  // empty interval
  EXPECT_DOUBLE_EQ(obs::counter_rate(3, 9, -1.0), 0.0);
}

TEST(Exposition, PrometheusNameSanitized) {
  EXPECT_EQ(obs::prometheus_name("scheduler.completed"),
            "adr_scheduler_completed");
  EXPECT_EQ(obs::prometheus_name("cache.marginal.hits"),
            "adr_cache_marginal_hits");
  EXPECT_EQ(obs::prometheus_name("a-b/c d"), "adr_a_b_c_d");
  EXPECT_EQ(obs::prometheus_name("already_fine_99"), "adr_already_fine_99");
}

TEST(Exposition, PrometheusGolden) {
  MetricsSnapshot snap;
  snap.counters = {{"scheduler.completed", 42}};
  snap.gauges = {{"queue.depth", -3}};
  HistogramSnapshot h;
  h.bounds = {0.5, 1.0};  // dyadic: %.17g renders them exactly
  h.counts = {2, 3, 1};   // last entry is the overflow bucket
  h.count = 6;
  h.sum = 4.5;
  snap.histograms = {{"submit.latency_s", h}};

  const std::string expected =
      "# TYPE adr_scheduler_completed counter\n"
      "adr_scheduler_completed 42\n"
      "# TYPE adr_queue_depth gauge\n"
      "adr_queue_depth -3\n"
      "# TYPE adr_submit_latency_s histogram\n"
      "adr_submit_latency_s_bucket{le=\"0.5\"} 2\n"
      "adr_submit_latency_s_bucket{le=\"1\"} 5\n"
      "adr_submit_latency_s_bucket{le=\"+Inf\"} 6\n"
      "adr_submit_latency_s_sum 4.5\n"
      "adr_submit_latency_s_count 6\n";
  EXPECT_EQ(obs::to_prometheus(snap), expected);
}

TelemetrySample make_sample(std::int64_t t_ms, std::uint64_t mono_ms) {
  TelemetrySample s;
  s.wall_ms = t_ms;
  s.mono_ms = mono_ms;
  return s;
}

TEST(Exposition, HistoryJsonGolden) {
  TelemetrySample s0 = make_sample(1000, 1000);
  s0.snapshot.counters = {{"c", 10}};
  TelemetrySample s1 = make_sample(2000, 3000);  // 2 s of monotonic time
  s1.snapshot.counters = {{"c", 30}};
  s1.snapshot.gauges = {{"g", -2}};  // registered mid-flight: zero-padded

  HistoryMeta meta;
  meta.period_ms = 1000;
  meta.capacity = 4;
  meta.total_samples = 7;

  const std::string expected =
      "{\"period_ms\":1000,\"samples\":2,\"capacity\":4,\"total_samples\":7,"
      "\"t_ms\":[1000,2000],"
      "\"counters\":{\"c\":{\"values\":[10,30],\"rates\":[0,10],\"last\":30}},"
      "\"gauges\":{\"g\":{\"values\":[0,-2],\"last\":-2}},"
      "\"histograms\":{}}";
  EXPECT_EQ(obs::history_to_json({s0, s1}, meta), expected);
}

TEST(Exposition, HistoryRatesSurviveCounterReset) {
  TelemetrySample s0 = make_sample(0, 0);
  s0.snapshot.counters = {{"c", 100}};
  TelemetrySample s1 = make_sample(2000, 2000);
  s1.snapshot.counters = {{"c", 5}};  // restarted: delta is 5, not -95

  HistoryMeta meta;
  const std::string json = obs::history_to_json({s0, s1}, meta);
  const obs::JsonValue doc = obs::parse_json(json);
  const obs::JsonValue* series = doc.find("counters")->find("c");
  ASSERT_NE(series, nullptr);
  const std::vector<double> rates = series->nums("rates");
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 2.5);  // 5 new observations over 2 s
}

TEST(Exposition, HistoryHistogramWindowedRates) {
  HistogramSnapshot h0;
  h0.bounds = {1.0};
  h0.counts = {2, 0};
  h0.count = 2;
  h0.sum = 1.0;
  HistogramSnapshot h1 = h0;
  h1.counts = {6, 0};  // 4 new observations this window
  h1.count = 6;
  h1.sum = 3.0;

  TelemetrySample s0 = make_sample(0, 0);
  s0.snapshot.histograms = {{"lat", h0}};
  TelemetrySample s1 = make_sample(2000, 2000);
  s1.snapshot.histograms = {{"lat", h1}};

  const std::string json = obs::history_to_json({s0, s1}, HistoryMeta{});
  const obs::JsonValue doc = obs::parse_json(json);
  const obs::JsonValue* lat = doc.find("histograms")->find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->num("count"), 6.0);  // since-boot totals from the latest
  const std::vector<double> rates = lat->nums("rates");
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[1], 2.0);  // 4 window observations / 2 s
  // Windowed quantiles come from the 4-observation delta, all inside
  // the first bucket — strictly below its 1.0 bound.
  const std::vector<double> p99s = lat->nums("p99s");
  ASSERT_EQ(p99s.size(), 2u);
  EXPECT_GT(p99s[1], 0.0);
  EXPECT_LE(p99s[1], 1.0);
}

TEST(Exposition, OverflowQuantileFlagged) {
  HistogramSnapshot h;
  h.bounds = {1.0};
  h.counts = {1, 9};  // 9 of 10 observations past the last finite bound
  h.count = 10;
  h.sum = 50.0;
  EXPECT_EQ(h.overflow(), 9u);
  EXPECT_FALSE(h.quantile_in_overflow(0.05));
  EXPECT_TRUE(h.quantile_in_overflow(0.50));
  EXPECT_TRUE(h.quantile_in_overflow(0.99));
  // The overflow bucket clips to the largest finite bound: a floor.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
}

// -------------------------------------------------------- query cost

RepositoryConfig cost_config() {
  RepositoryConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  return cfg;
}

/// 4x4 input grid with one u64 payload per chunk, 2x2 output grid.
struct CostFixture {
  Repository repo;
  std::uint32_t in = 0;
  std::uint32_t out = 0;

  CostFixture() : repo(cost_config()) {
    const Rect domain = Rect::cube(2, 0.0, 1.0);
    std::vector<Chunk> inputs;
    for (int iy = 0; iy < 4; ++iy) {
      for (int ix = 0; ix < 4; ++ix) {
        ChunkMeta meta;
        meta.mbr = adr::testing::cell(domain, 4, ix, iy);
        const std::uint64_t val = static_cast<std::uint64_t>(iy * 4 + ix);
        std::vector<std::byte> payload(sizeof(std::uint64_t));
        std::memcpy(payload.data(), &val, payload.size());
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
  }

  Query full_query() const {
    Query q;
    q.input_dataset = in;
    q.output_dataset = out;
    q.range = Rect::cube(2, 0.0, 1.0);
    q.aggregation = "sum-count-max";
    q.delivery = OutputDelivery::kDiscard;
    return q;
  }
};

TEST(QueryCost, LedgerReconcilesWithCacheCounters) {
  CostFixture fx;
  const ChunkCacheStats cache_before = fx.repo.chunk_cache_stats();
  const std::uint64_t queries_before =
      obs::metrics().counter("query.cost.queries").value();

  const QueryResult first = fx.repo.submit(fx.full_query());
  const ChunkCacheStats after_first = fx.repo.chunk_cache_stats();

  // Cold start: every chunk this query read missed the cache, and the
  // ledger's byte split matches the cache's own accounting exactly.
  EXPECT_EQ(first.cost.cold_chunks, first.stats.cache_misses);
  EXPECT_EQ(first.cost.cached_chunks, first.stats.cache_hits);
  EXPECT_EQ(first.cost.cold_bytes, after_first.miss_bytes - cache_before.miss_bytes);
  EXPECT_EQ(first.cost.cached_bytes, after_first.hit_bytes - cache_before.hit_bytes);
  EXPECT_GT(first.cost.cold_chunks, 0u);
  EXPECT_GT(first.cost.cold_bytes, 0u);
  EXPECT_EQ(first.cost.total_chunks(), first.cost.cold_chunks + first.cost.cached_chunks);

  // Executor attribution mirrors ExecStats; a direct submit never
  // waited in a scheduler queue.
  EXPECT_DOUBLE_EQ(first.cost.exec_wall_s, first.stats.total_s);
  EXPECT_DOUBLE_EQ(first.cost.thread_cpu_s, first.stats.thread_cpu_s);
  EXPECT_EQ(first.cost.aggregate_pairs, first.stats.total_lr_pairs());
  EXPECT_GT(first.cost.aggregate_pairs, 0u);
  EXPECT_DOUBLE_EQ(first.cost.queue_wait_s, 0.0);
  EXPECT_EQ(first.cost.attempts, 1u);
  EXPECT_EQ(first.cost.marginal_chunks, 0u);  // nothing cached yet

  // The run was billed into the query.cost.* metric family.
  EXPECT_EQ(obs::metrics().counter("query.cost.queries").value(),
            queries_before + 1);

  // The identical query again: the marginal cache serves the finalized
  // partials, so the ledger shows reuse instead of cold reads.
  const QueryResult second = fx.repo.submit(fx.full_query());
  EXPECT_GT(second.cost.marginal_chunks, 0u);
  EXPECT_EQ(second.cost.marginal_chunks, second.marginal_hits);
  EXPECT_GT(second.cost.marginal_bytes_saved, 0u);
  EXPECT_EQ(second.cost.cold_chunks, 0u);
  EXPECT_EQ(obs::metrics().counter("query.cost.queries").value(),
            queries_before + 2);
}

TEST(QueryCost, QueueWaitCrossesViaThreadLocal) {
  EXPECT_DOUBLE_EQ(obs::cost_queue_wait(), 0.0);
  obs::set_cost_queue_wait(0.125);
  EXPECT_DOUBLE_EQ(obs::cost_queue_wait(), 0.125);

  // A submit on this thread attributes the deposited wait (this is how
  // the scheduler worker hands the measured queue time across).
  CostFixture fx;
  const QueryResult r = fx.repo.submit(fx.full_query());
  EXPECT_DOUBLE_EQ(r.cost.queue_wait_s, 0.125);

  obs::set_cost_queue_wait(0.0);
  EXPECT_DOUBLE_EQ(obs::cost_queue_wait(), 0.0);
}

TEST(QueryCost, SchedulerAttributesWaitAndClearsContext) {
  CostFixture fx;
  QuerySubmissionService service(fx.repo);
  service.start(2);
  const std::uint64_t ticket = service.enqueue(fx.full_query());
  QuerySubmissionService::Outcome outcome = service.take(ticket);
  service.stop();
  ASSERT_TRUE(outcome.ok()) << outcome.status.message;
  // Waited a measurable, sane amount (measured, not the sentinel).
  EXPECT_GE(outcome.result.cost.queue_wait_s, 0.0);
  EXPECT_LT(outcome.result.cost.queue_wait_s, 60.0);
  // The worker cleared its deposit: nothing leaks into later submits on
  // this thread either way (main thread never deposited).
  EXPECT_DOUBLE_EQ(obs::cost_queue_wait(), 0.0);
}

// -------------------------------------------------------- end to end

/// Blocking HTTP/1.0 GET against the exposition listener; returns the
/// whole response (status line + headers + body).
std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  const std::string req = method + " " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

/// Value of one Prometheus sample line (`name value\n`); -1 if absent.
double prom_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + name.size() + 1, nullptr);
    }
    ++pos;
  }
  return -1.0;
}

struct E2EFixture : CostFixture {
  net::AdrServer server;

  E2EFixture()
      : server(repo, /*port=*/0, ComputeCosts{},
               {.scheduler_workers = 2,
                .max_pending = 64,
                .max_connections = 16,
                .telemetry = {.sample_period = std::chrono::milliseconds(20),
                              .sample_capacity = 128,
                              .http_port = 0}}) {  // ephemeral HTTP port
    server.start();
  }
  ~E2EFixture() { server.stop(); }
};

TEST(TelemetryEndToEnd, WireHistoryAndHttpScrapeAgree) {
  E2EFixture fx;
  ASSERT_GT(fx.server.http_port(), 0);

  net::AdrClient client(fx.server.port());
  const std::string before_prom =
      http_body(http_get(fx.server.http_port(), "/metrics"));
  const double cached_before = prom_value(before_prom, "adr_query_cost_cached_bytes");
  const double cold_before = prom_value(before_prom, "adr_query_cost_cold_bytes");
  const double hitb_before = prom_value(before_prom, "adr_chunk_cache_hit_bytes");
  const double missb_before = prom_value(before_prom, "adr_chunk_cache_miss_bytes");

  // Mixed workload: the repeated full query warms the byte cache and the
  // marginal cache; the shifted ranges keep cold reads flowing.
  for (int i = 0; i < 12; ++i) {
    Query q = fx.full_query();
    if (i % 3 != 0) {
      const double lo = 0.05 * (i % 4);
      q.range = Rect(Point{lo, lo}, Point{lo + 0.5, lo + 0.5});
    }
    const net::WireResult r = client.submit(q);
    ASSERT_TRUE(r.ok()) << r.error();
  }

  // Wait for the sampler to tick a few times past the workload.
  obs::JsonValue history;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const net::WireStatsReply reply =
        client.stats(/*include_trace=*/false, /*include_history=*/true);
    ASSERT_FALSE(reply.history_json.empty());
    history = obs::parse_json(reply.history_json);
    const obs::JsonValue* completed =
        history.find("counters")->find("scheduler.completed");
    if (completed != nullptr && completed->num("last") >= 12.0 &&
        history.num("samples") >= 3.0) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "sampler never caught up with the workload";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // History document: the configured period, a moving time axis, and a
  // non-zero completion rate in some window (12 queries ran).
  EXPECT_EQ(history.num("period_ms"), 20.0);
  const std::vector<double> rates =
      history.find("counters")->find("scheduler.completed")->nums("rates");
  double peak = 0.0;
  for (const double r : rates) peak = std::max(peak, r);
  EXPECT_GT(peak, 0.0);

  // The sample-cap variant of the wire request.
  const net::WireStatsReply capped =
      client.stats(false, /*include_history=*/true, /*history_samples=*/1);
  EXPECT_EQ(obs::parse_json(capped.history_json).num("samples"), 1.0);

  // HTTP scrape agrees with the wire: Prometheus text with the cost
  // family's deltas reconciling against the chunk cache's byte split.
  const std::string prom = http_body(http_get(fx.server.http_port(), "/metrics"));
  EXPECT_NE(prom.find("# TYPE adr_scheduler_completed counter"),
            std::string::npos);
  const double cached = prom_value(prom, "adr_query_cost_cached_bytes");
  const double cold = prom_value(prom, "adr_query_cost_cold_bytes");
  const double hitb = prom_value(prom, "adr_chunk_cache_hit_bytes");
  const double missb = prom_value(prom, "adr_chunk_cache_miss_bytes");
  ASSERT_GE(cached, 0.0);
  ASSERT_GE(hitb, 0.0);
  EXPECT_DOUBLE_EQ(cached - std::max(cached_before, 0.0),
                   hitb - std::max(hitb_before, 0.0));
  EXPECT_DOUBLE_EQ(cold - std::max(cold_before, 0.0),
                   missb - std::max(missb_before, 0.0));
  EXPECT_GT(cold - std::max(cold_before, 0.0), 0.0);

  // /history over HTTP serves the same document shape the wire does.
  const std::string hist_rsp = http_get(fx.server.http_port(), "/history?n=2");
  EXPECT_NE(hist_rsp.find("200 OK"), std::string::npos);
  const std::string hist_body = http_body(hist_rsp);
  EXPECT_EQ(obs::parse_json(hist_body).num("samples"), 2.0);
}

TEST(TelemetryEndToEnd, HttpEndpointBehaviors) {
  E2EFixture fx;
  const std::uint16_t port = fx.server.http_port();

  EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(http_get(port, "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_get(port, "/metrics", "POST").find("405"), std::string::npos);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("Connection: close"), std::string::npos);
  EXPECT_GE(fx.server.http_port(), 1u);
}

}  // namespace
}  // namespace adr
