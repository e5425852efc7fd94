#include "core/qos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "core/frontend.hpp"
#include "core/runtime_config.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using namespace std::chrono_literals;

RepositoryConfig thread_config(int nodes) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = nodes;
  cfg.memory_per_node = 1 << 20;
  return cfg;
}

std::vector<Chunk> grid_inputs(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t idx = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      std::vector<std::uint64_t> vals(static_cast<size_t>(values_per_chunk));
      for (auto& v : vals) v = ++idx;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> grid_outputs(int n_side) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

Query basic_query(std::uint32_t in, std::uint32_t out) {
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  return q;
}

// --------------------------------------------------------------- core

TEST(Qos, DefaultsAndHelpers) {
  const Qos none;
  EXPECT_FALSE(none.has_deadline());
  EXPECT_FALSE(none.expired());
  EXPECT_EQ(none.remaining(), std::chrono::milliseconds::max());
  EXPECT_EQ(none.priority, QosPriority::kNormal);
  EXPECT_TRUE(none.drop_on_expiry);

  const Qos q = Qos::within(250ms, QosPriority::kInteractive, false);
  EXPECT_TRUE(q.has_deadline());
  EXPECT_FALSE(q.expired());
  EXPECT_GT(q.remaining(), 0ms);
  EXPECT_LE(q.remaining(), 250ms);
  EXPECT_EQ(q.priority, QosPriority::kInteractive);
  EXPECT_FALSE(q.drop_on_expiry);

  Qos past;
  past.deadline = std::chrono::steady_clock::now() - 1ms;
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining(), 0ms);
}

// --------------------------------------------------------------- wire

TEST(Qos, WireV6RoundTrip) {
  Query q;
  q.input_dataset = 1;
  q.output_dataset = 2;
  q.range = Rect::cube(2, 0.0, 1.0);

  ExecOptions options;
  options.qos = Qos::within(500ms, QosPriority::kBackground, true);
  const net::WireQuery back = net::decode_query_frame(net::encode_query(q, options));
  EXPECT_TRUE(back.options.qos.has_deadline());
  EXPECT_EQ(back.options.qos.priority, QosPriority::kBackground);
  EXPECT_TRUE(back.options.qos.drop_on_expiry);
  // The wire carries remaining milliseconds; the rebuilt deadline must
  // land within the original budget (clock skew between encode and
  // decode only shrinks it).
  const auto remaining = back.options.qos.remaining();
  EXPECT_GT(remaining, 300ms);
  EXPECT_LE(remaining, 500ms);

  // No deadline: flag clear, decode keeps "none".
  const net::WireQuery plain = net::decode_query_frame(net::encode_query(q));
  EXPECT_FALSE(plain.options.qos.has_deadline());
  EXPECT_EQ(plain.options.qos.priority, QosPriority::kNormal);
  EXPECT_TRUE(plain.options.qos.drop_on_expiry);
}

// ---------------------------------------------------------- scheduler

TEST(Qos, SchedulerShedsExpiredDropOnExpiryQueries) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);

  const std::uint64_t shed_before = obs::metrics().counter("scheduler.shed").value();

  ExecOptions expired;
  expired.qos.deadline = std::chrono::steady_clock::now() - 1ms;
  const auto dead = service.enqueue(basic_query(in, out), {}, /*client=*/1, expired);
  const auto live = service.enqueue(basic_query(in, out), {}, /*client=*/2);
  EXPECT_EQ(service.process_all(), 2u);

  const auto dead_out = service.take(dead);
  EXPECT_FALSE(dead_out.ok());
  EXPECT_EQ(dead_out.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(dead_out.status.message.empty());  // typed, never silent

  const auto live_out = service.take(live);
  ASSERT_TRUE(live_out.ok()) << live_out.status.to_string();
  EXPECT_EQ(live_out.result.outputs.size(), 4u);

  EXPECT_EQ(obs::metrics().counter("scheduler.shed").value(), shed_before + 1);
}

TEST(Qos, AdvisoryDeadlineRunsLate) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);

  ExecOptions advisory;
  advisory.qos.deadline = std::chrono::steady_clock::now() - 1ms;
  advisory.qos.drop_on_expiry = false;
  const auto t = service.enqueue(basic_query(in, out), {}, 1, advisory);
  EXPECT_EQ(service.process_all(), 1u);
  const auto o = service.take(t);
  EXPECT_TRUE(o.ok()) << o.status.to_string();  // ran anyway
}

TEST(Qos, DispatchPrefersHigherPriorityLaneHeads) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);

  std::mutex order_mutex;
  std::vector<std::uint64_t> finish_order;
  service.set_completion_callback([&](std::uint64_t ticket) {
    std::lock_guard<std::mutex> lk(order_mutex);
    finish_order.push_back(ticket);
  });

  // Queue three clients' lane heads before any worker exists, then let a
  // single worker drain: dispatch must pick by priority, FIFO on ties.
  ExecOptions normal, background, interactive;
  background.qos.priority = QosPriority::kBackground;
  interactive.qos.priority = QosPriority::kInteractive;
  const auto t_normal = service.enqueue(basic_query(in, out), {}, 1, normal);
  const auto t_background = service.enqueue(basic_query(in, out), {}, 2, background);
  const auto t_interactive = service.enqueue(basic_query(in, out), {}, 3, interactive);

  service.start(1);
  service.drain();
  service.stop();

  ASSERT_EQ(finish_order.size(), 3u);
  EXPECT_EQ(finish_order[0], t_interactive);
  EXPECT_EQ(finish_order[1], t_normal);
  EXPECT_EQ(finish_order[2], t_background);
  for (const auto t : {t_normal, t_background, t_interactive}) {
    EXPECT_TRUE(service.take(t).ok());
  }
}

// ------------------------------------------------------ client/server

TEST(Qos, ClientStopsRetryingAtDeadline) {
  // A dead port: every attempt is a transport failure, so only the retry
  // policy and the deadline govern how long the client grinds.
  std::uint16_t dead_port = 0;
  {
    Repository repo(thread_config(2));
    net::AdrServer probe(repo, 0);
    dead_port = probe.port();
  }

  net::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = 40ms;
  policy.max_backoff = 40ms;
  policy.jitter = 0.0;
  net::AdrClient client(dead_port, policy);

  Query q;
  q.input_dataset = 0;
  q.output_dataset = 1;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";

  const auto t0 = std::chrono::steady_clock::now();
  const net::WireResult r = client.submit(q, Qos::within(150ms));
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code, StatusCode::kUnavailable);
  // 50 attempts at 40 ms backoff would take ~2 s; the deadline cuts the
  // loop after a handful.
  EXPECT_LT(r.attempts, 10u);
  EXPECT_LT(elapsed, 1s);
}

TEST(Qos, ServerRefusesExpiredDeadlineAtAdmission) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  net::AdrServer server(repo, 0);
  server.start();
  net::AdrClient client(server.port());

  // An expired drop-on-expiry deadline encodes as "0 ms left"; the
  // server refuses before admission with the typed code and keeps the
  // connection usable.
  Qos hopeless;
  hopeless.deadline = std::chrono::steady_clock::now() - 5ms;
  const net::WireResult refused = client.submit(basic_query(in, out), hopeless);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.deadline_refusals(), 1u);

  const net::WireResult fine = client.submit(basic_query(in, out));
  EXPECT_TRUE(fine.ok()) << fine.error();
  server.stop();
}

// ------------------------------------------------------ runtime config

TEST(RuntimeConfig, ValidateCatchesBadKnobs) {
  EXPECT_TRUE(RuntimeConfig{}.validate().ok());

  RuntimeConfig bad;
  bad.scheduler_workers = 0;
  EXPECT_FALSE(bad.validate().ok());
  EXPECT_EQ(bad.validate().code, StatusCode::kInvalidArgument);
  EXPECT_THROW(bad.check(), StatusError);

  RuntimeConfig no_pending;
  no_pending.max_pending = 0;
  EXPECT_FALSE(no_pending.validate().ok());

  RuntimeConfig no_connections;
  no_connections.max_connections = 0;
  EXPECT_FALSE(no_connections.validate().ok());

  RuntimeConfig empty_ring;
  empty_ring.telemetry.sample_capacity = 0;
  EXPECT_FALSE(empty_ring.validate().ok());

  RuntimeConfig still_sampler;
  still_sampler.telemetry.sample_period = std::chrono::milliseconds{0};
  EXPECT_FALSE(still_sampler.validate().ok());
}

TEST(RuntimeConfig, RepositoryAndServiceAdoptKnobs) {
  RuntimeConfig runtime;
  runtime.max_pending = 2;

  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  QuerySubmissionService service(repo, runtime);

  // max_pending rides along: the third accepted-but-unfinished query is
  // refused by try_enqueue.
  const auto t1 = service.enqueue(basic_query(in, out), {}, 1);
  const auto t2 = service.enqueue(basic_query(in, out), {}, 2);
  EXPECT_EQ(service.try_enqueue(basic_query(in, out), {}, 3), 0u);
  service.process_all();
  EXPECT_TRUE(service.take(t1).ok());
  EXPECT_TRUE(service.take(t2).ok());

  RuntimeConfig invalid;
  invalid.scheduler_workers = 0;
  EXPECT_THROW(QuerySubmissionService(repo, invalid), StatusError);
  EXPECT_THROW(net::AdrServer(repo, 0, ComputeCosts{}, invalid), StatusError);

  // The server built from the same struct serves queries.
  net::AdrServer server(repo, 0, ComputeCosts{}, runtime);
  server.start();
  net::AdrClient client(server.port());
  const net::WireResult r = client.submit(basic_query(in, out));
  EXPECT_TRUE(r.ok()) << r.error();
  server.stop();
}

}  // namespace
}  // namespace adr
