// Concurrent front-of-house tests: many threads through one Repository,
// the QuerySubmissionService worker pool, and many simultaneous socket
// clients against one AdrServer.  Every concurrent result is compared
// byte-for-byte against the serial baseline — the built-in aggregations
// use exact integer arithmetic, so any divergence is a real race.
//
// The ConcurrentSubmit / SubmissionPool suites are the ThreadSanitizer
// targets (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/frontend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

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
      std::vector<std::uint64_t> vals(static_cast<std::size_t>(values_per_chunk));
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

// The q-th query shape every suite below uses: distinct ranges and
// strategies so concurrent work is genuinely heterogeneous.
Query variant_query(std::uint32_t in, std::uint32_t out, int q) {
  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  const double extent = 0.25 + 0.25 * (q % 4);
  query.range = Rect(Point{0.0, 0.0}, Point{extent - 1e-9, extent - 1e-9});
  query.aggregation = "sum-count-max";
  query.strategy =
      std::vector<StrategyKind>{StrategyKind::kFRA, StrategyKind::kSRA,
                                StrategyKind::kDA}[static_cast<std::size_t>(q) % 3];
  query.delivery = OutputDelivery::kReturnToClient;
  return query;
}

void expect_same_outputs(const std::vector<Chunk>& got, const std::vector<Chunk>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].meta().id, want[i].meta().id) << label << " chunk " << i;
    EXPECT_EQ(got[i].payload(), want[i].payload()) << label << " chunk " << i;
  }
}

// ---------------------------------------------------- Repository::submit

TEST(ConcurrentSubmit, ManyThreadsMatchSerialBaseline) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 3));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  const int kVariants = 6;
  std::vector<QueryResult> baseline;
  for (int q = 0; q < kVariants; ++q) {
    baseline.push_back(repo.submit(variant_query(in, out, q)));
  }

  const int kThreads = 8;
  const int kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        const int q = (t + r) % kVariants;
        const QueryResult result = repo.submit(variant_query(in, out, q));
        const QueryResult& want = baseline[static_cast<std::size_t>(q)];
        if (result.outputs.size() != want.outputs.size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t i = 0; i < result.outputs.size(); ++i) {
          if (result.outputs[i].payload() != want.outputs[i].payload()) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentSubmit, SubmitRacingCreateDataset) {
  // Queries keep running (shared lock) while new datasets register
  // (exclusive lock); neither side crashes or corrupts the other.
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  const QueryResult baseline = repo.submit(variant_query(in, out, 3));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&]() {
      for (int i = 0; i < 15; ++i) {
        const QueryResult r = repo.submit(variant_query(in, out, 3));
        if (r.outputs.size() != baseline.outputs.size()) ++mismatches;
      }
    });
  }
  for (int d = 0; d < 6; ++d) {
    repo.create_dataset("extra" + std::to_string(d), Rect::cube(2, 0.0, 1.0),
                        grid_inputs(2, 1));
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(repo.num_datasets(), 8u);
}

// ------------------------------------------- QuerySubmissionService pool

TEST(SubmissionPool, ConcurrentTicketsMatchSerialBaseline) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  const int kVariants = 6;
  std::vector<QueryResult> baseline;
  for (int q = 0; q < kVariants; ++q) {
    baseline.push_back(repo.submit(variant_query(in, out, q)));
  }

  QuerySubmissionService service(repo);
  service.start(4);
  std::vector<std::pair<std::uint64_t, int>> tickets;
  for (int q = 0; q < 24; ++q) {
    tickets.emplace_back(
        service.enqueue(variant_query(in, out, q % kVariants), {}, /*client=*/q % 5),
        q % kVariants);
  }
  for (const auto& [ticket, q] : tickets) {
    const QuerySubmissionService::Outcome outcome = service.take(ticket);
    ASSERT_TRUE(outcome.ok()) << "ticket " << ticket << ": "
                              << outcome.status.to_string();
    expect_same_outputs(outcome.result.outputs,
                        baseline[static_cast<std::size_t>(q)].outputs,
                        "ticket " + std::to_string(ticket));
  }
  EXPECT_EQ(service.pending(), 0u);
  service.stop();
}

// An aggregation whose first reduction blocks until the test opens the
// gate — used to hold one client's lane busy deterministically.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  void release() {
    std::lock_guard lock(mutex);
    open = true;
    cv.notify_all();
  }
  void close() {
    std::lock_guard lock(mutex);
    open = false;
  }
  void pass() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this]() { return open; });
  }
};

class GatedCountOp : public AggregationOp {
 public:
  explicit GatedCountOp(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gated-count"; }
  AccumulatorLayout layout() const override { return {1.0}; }
  std::vector<std::byte> initialize(const ChunkMeta&, const Chunk*) const override {
    return std::vector<std::byte>(sizeof(std::uint64_t), std::byte{0});
  }
  void aggregate(const Chunk& input, const ChunkMeta&,
                 std::vector<std::byte>& accum) const override {
    gate_->pass();
    std::uint64_t n = 0;
    std::memcpy(&n, accum.data(), sizeof(n));
    n += input.payload().size() / sizeof(std::uint64_t);
    std::memcpy(accum.data(), &n, sizeof(n));
  }
  void combine(std::vector<std::byte>& dst,
               const std::vector<std::byte>& src) const override {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, dst.data(), sizeof(a));
    std::memcpy(&b, src.data(), sizeof(b));
    a += b;
    std::memcpy(dst.data(), &a, sizeof(a));
  }
  std::vector<std::byte> output(const ChunkMeta&,
                                const std::vector<std::byte>& accum) const override {
    return accum;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

// Two queries meet inside aggregate(): every reduction records the
// output dataset it feeds, then waits (until one shared 10 s deadline)
// for reductions into two distinct output datasets — which only happens
// when both queries execute at the same time.
struct Rendezvous {
  std::mutex mutex;
  std::condition_variable cv;
  std::set<std::uint32_t> datasets;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  bool timed_out = false;
  void arrive(std::uint32_t dataset) {
    std::unique_lock lock(mutex);
    datasets.insert(dataset);
    cv.notify_all();
    if (!deadline) deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    if (!cv.wait_until(lock, *deadline, [this]() { return datasets.size() >= 2; })) {
      timed_out = true;
    }
  }
};

std::shared_ptr<Gate> open_gate() {
  auto gate = std::make_shared<Gate>();
  gate->release();
  return gate;
}

class RendezvousCountOp : public GatedCountOp {
 public:
  explicit RendezvousCountOp(std::shared_ptr<Rendezvous> rendezvous)
      : GatedCountOp(open_gate()), rendezvous_(std::move(rendezvous)) {}
  std::string name() const override { return "rendezvous-count"; }
  void aggregate(const Chunk& input, const ChunkMeta& output,
                 std::vector<std::byte>& accum) const override {
    rendezvous_->arrive(output.id.dataset);
    GatedCountOp::aggregate(input, output, accum);
  }

 private:
  std::shared_ptr<Rendezvous> rendezvous_;
};

TEST(SubmissionPool, QueuedOverlappingQueriesRunConcurrently) {
  // Same input, same strategy, overlapping ranges, queued together: each
  // still runs on its own worker, so the two meet mid-reduction.
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out_a = repo.create_dataset("a", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  const auto out_b = repo.create_dataset("b", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto rendezvous = std::make_shared<Rendezvous>();
  repo.aggregations().register_op(std::make_shared<RendezvousCountOp>(rendezvous));

  QuerySubmissionService service(repo);
  Query a = variant_query(in, out_a, 3);  // FRA over the whole domain
  Query b = variant_query(in, out_b, 0);  // FRA over its lower-left corner
  a.aggregation = b.aggregation = "rendezvous-count";
  const auto ta = service.enqueue(a, {}, /*client=*/1);
  const auto tb = service.enqueue(b, {}, /*client=*/2);
  service.start(2);

  EXPECT_TRUE(service.take(ta).ok());
  EXPECT_TRUE(service.take(tb).ok());
  service.stop();
  std::lock_guard lock(rendezvous->mutex);
  EXPECT_FALSE(rendezvous->timed_out) << "the queries ran one after the other";
  EXPECT_EQ(rendezvous->datasets.size(), 2u);
}

TEST(SubmissionPool, FifoPerClientWhileOtherClientsProceed) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));

  QuerySubmissionService service(repo);
  service.start(3);

  Query gated = variant_query(in, out, 3);
  gated.aggregation = "gated-count";
  const auto tx1 = service.enqueue(gated, {}, /*client=*/1);     // holds lane 1
  const auto tx2 = service.enqueue(variant_query(in, out, 3), {}, /*client=*/1);
  const auto ty = service.enqueue(variant_query(in, out, 3), {}, /*client=*/2);

  // Client 2 is independent: its query finishes while client 1's lane is
  // still blocked at the gate.
  ASSERT_TRUE(service.take(ty).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(service.try_take(tx1).has_value());  // still gated
  EXPECT_FALSE(service.try_take(tx2).has_value());  // must not overtake its lane
  EXPECT_EQ(service.pending(), 2u);

  gate->release();
  ASSERT_TRUE(service.take(tx1).ok());
  ASSERT_TRUE(service.take(tx2).ok());
  EXPECT_EQ(service.pending(), 0u);
  service.stop();
}

TEST(SubmissionPool, EnqueueAppliesBackPressure) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));

  QuerySubmissionService service(repo, /*max_pending=*/2);
  service.start(1);

  Query gated = variant_query(in, out, 0);
  gated.aggregation = "gated-count";
  service.enqueue(gated, {}, /*client=*/1);                      // in flight, gated
  service.enqueue(variant_query(in, out, 0), {}, /*client=*/2);  // queued: pool full

  std::atomic<bool> third_accepted{false};
  std::thread blocked([&]() {
    service.enqueue(variant_query(in, out, 0), {}, /*client=*/3);
    third_accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_accepted.load());  // back-pressure holds the producer

  gate->release();
  blocked.join();  // a slot freed; the producer got through
  EXPECT_TRUE(third_accepted.load());
  service.drain();
  EXPECT_EQ(service.pending(), 0u);
  service.stop();
}

TEST(SubmissionPool, WorkersReuseTheirExecutors) {
  // Two waves of four queries, each wave held open at the gate until all
  // four hold a lease: the pool grows to the peak concurrency once and
  // serves the second wave from the executors the first one built.
  RepositoryConfig cfg = thread_config(2);
  cfg.marginal_cache_bytes = 0;  // wave 2 must execute, not hit partials
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));

  QuerySubmissionService service(repo);
  service.start(4);
  Query gated = variant_query(in, out, 3);
  gated.aggregation = "gated-count";
  for (std::uint64_t wave = 1; wave <= 2; ++wave) {
    gate->close();
    std::vector<std::uint64_t> tickets;
    for (std::uint64_t client = 1; client <= 4; ++client) {
      tickets.push_back(service.enqueue(gated, {}, client));
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (repo.executor_pool_stats().leases < 4 * wave &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t leased = repo.executor_pool_stats().leases;
    gate->release();  // before any assert: a closed gate would hang stop()
    ASSERT_EQ(leased, 4 * wave);
    for (const std::uint64_t t : tickets) ASSERT_TRUE(service.take(t).ok());
  }
  service.stop();
  const ThreadExecutorPool::Stats stats = repo.executor_pool_stats();
  EXPECT_EQ(stats.created, 4u);
  EXPECT_EQ(stats.reuses, 4u);
  EXPECT_EQ(stats.resident, 4u);
}

TEST(SubmissionPool, FailedQueryYieldsErrorNotResult) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);
  service.start(2);
  Query bad = variant_query(in, out, 0);
  bad.aggregation = "no-such-op";
  const auto t_bad = service.enqueue(bad, {}, 1);
  const auto t_good = service.enqueue(variant_query(in, out, 0), {}, 1);
  const QuerySubmissionService::Outcome outcome = service.take(t_bad);
  EXPECT_FALSE(outcome.ok());
  // A malformed query gets the typed argument code, not a generic error.
  EXPECT_EQ(outcome.status.code, StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status.message.find("unknown aggregation"), std::string::npos);
  // The lane survives the failure.
  EXPECT_TRUE(service.take(t_good).ok());
  service.stop();
}

TEST(SubmissionPool, SerialProcessAllStillWorks) {
  // Seed behaviour: no workers, process_all drains on the caller.
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);
  const auto t1 = service.enqueue(variant_query(in, out, 0));
  const auto t2 = service.enqueue(variant_query(in, out, 1));
  EXPECT_EQ(service.pending(), 2u);
  EXPECT_EQ(service.process_all(), 2u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_TRUE(service.take(t1).ok());
  EXPECT_TRUE(service.take(t2).ok());
}

// ------------------------------------------------------- socket server

struct ServerFixture {
  Repository repo;
  std::uint32_t in = 0;
  std::uint32_t out = 0;
  net::AdrServer server;

  explicit ServerFixture(std::size_t max_connections = 64)
      : repo(thread_config(2)),
        server(repo, /*port=*/0, {}, {.max_connections = max_connections}) {
    in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 3));
    out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
    server.start();
  }
};

TEST(ConcurrentServer, EightClientsInterleavedMatchSerialBaseline) {
  ServerFixture fx;
  const int kVariants = 6;
  std::vector<QueryResult> baseline;
  for (int q = 0; q < kVariants; ++q) {
    baseline.push_back(fx.repo.submit(variant_query(fx.in, fx.out, q)));
  }

  const int kClients = 8;
  const int kQueriesEach = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      try {
        net::AdrClient client(fx.server.port());
        for (int i = 0; i < kQueriesEach; ++i) {
          const int q = (c + i) % kVariants;
          const net::WireResult result =
              client.submit(variant_query(fx.in, fx.out, q));
          if (!result.ok()) {
            ++failures;
            continue;
          }
          const auto& want = baseline[static_cast<std::size_t>(q)].outputs;
          if (result.outputs.size() != want.size()) {
            ++mismatches;
            continue;
          }
          for (std::size_t k = 0; k < want.size(); ++k) {
            if (result.outputs[k].payload() != want[k].payload() ||
                result.outputs[k].meta().id != want[k].meta().id) {
              ++mismatches;
            }
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fx.server.queries_served(),
            static_cast<std::uint64_t>(kClients * kQueriesEach));
}

TEST(ConcurrentServer, ConnectionLimitRefusesExtraClient) {
  ServerFixture fx(/*max_connections=*/2);
  net::AdrClient a(fx.server.port());
  net::AdrClient b(fx.server.port());
  // Make sure both connections are registered with the server.
  ASSERT_TRUE(a.submit(variant_query(fx.in, fx.out, 0)).ok());
  ASSERT_TRUE(b.submit(variant_query(fx.in, fx.out, 1)).ok());

  // The third connection gets a protocol-level refusal: a
  // WireResult{ok=false, "server busy"} frame, then an orderly close.
  net::AdrClient c(fx.server.port());
  const net::WireResult refusal = c.submit(variant_query(fx.in, fx.out, 2));
  EXPECT_FALSE(refusal.ok());
  EXPECT_TRUE(refusal.server_busy()) << refusal.error();
  EXPECT_FALSE(c.connected());  // client surfaces the server-side close
  EXPECT_GE(fx.server.connections_refused(), 1u);

  // Existing clients are unaffected.
  EXPECT_TRUE(a.submit(variant_query(fx.in, fx.out, 2)).ok());
}

TEST(ConcurrentServer, SchedulerQueueFullRefusesQueryWithBusyFrame) {
  // One worker, one pending slot: a gated query occupies the only slot,
  // so a second client's submit is refused at the protocol level while
  // the connection cap is nowhere near reached.
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  auto gate = std::make_shared<Gate>();
  repo.aggregations().register_op(std::make_shared<GatedCountOp>(gate));
  net::AdrServer server(repo, /*port=*/0, {},
                        {.scheduler_workers = 1, .max_pending = 1, .max_connections = 8});
  server.start();

  // The holder retries: a probe racing ahead of it can briefly own the
  // only slot, refusing the gated query — without retries the holder
  // would give up and nothing would ever occupy the slot.
  net::RetryPolicy holder_policy;
  holder_policy.max_attempts = 100;
  holder_policy.initial_backoff = std::chrono::milliseconds(2);
  holder_policy.max_backoff = std::chrono::milliseconds(10);
  holder_policy.honor_retry_after = false;
  net::AdrClient holder(server.port(), holder_policy);
  Query gated = variant_query(in, out, 3);
  gated.aggregation = "gated-count";
  std::thread held([&]() { holder.submit(gated); });

  // Wait until the gated query is actually in flight (occupying the slot).
  net::WireResult refusal;
  bool refused = false;
  for (int attempt = 0; attempt < 100 && !refused; ++attempt) {
    net::AdrClient probe(server.port());
    refusal = probe.submit(variant_query(in, out, 0));
    if (!refusal.ok() && refusal.server_busy()) {
      refused = true;
      EXPECT_FALSE(probe.connected());
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(refused);
  EXPECT_GE(server.queries_refused(), 1u);

  gate->release();
  held.join();
  server.stop();
  // At least the gated query; probes racing ahead of it may add more.
  EXPECT_GE(server.queries_served(), 1u);

  // After the slot frees, new clients are served normally again.
  net::AdrServer server2(repo, /*port=*/0, {},
                         {.scheduler_workers = 1, .max_pending = 1, .max_connections = 8});
  server2.start();
  net::AdrClient ok_client(server2.port());
  EXPECT_TRUE(ok_client.submit(variant_query(in, out, 0)).ok());
  server2.stop();
}

TEST(ConcurrentServer, SlotFreedAfterClientDisconnects) {
  ServerFixture fx(/*max_connections=*/1);
  {
    net::AdrClient a(fx.server.port());
    ASSERT_TRUE(a.submit(variant_query(fx.in, fx.out, 0)).ok());
  }
  // The slot frees once the server notices the close.  The retrying
  // client owns the backoff now: a too-early attempt is either refused
  // with a busy frame (kBusy, always retryable) or fails at the
  // transport (kUnavailable, retryable for idempotent queries) — one
  // submit() absorbs both, replacing the old hand-rolled poll loop.
  net::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::milliseconds(5);
  policy.max_backoff = std::chrono::milliseconds(100);
  policy.seed = 9;
  net::AdrClient b(fx.server.port(), policy);
  const net::WireResult result = b.submit(variant_query(fx.in, fx.out, 1));
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_GE(result.attempts, 1u);
}

TEST(ConcurrentServer, StopDrainsActiveConnections) {
  auto fx = std::make_unique<ServerFixture>();
  const int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      try {
        net::AdrClient client(fx->server.port());
        for (int i = 0; i < 8; ++i) {
          if (client.submit(variant_query(fx->in, fx->out, (c + i) % 6)).ok()) ++ok;
        }
      } catch (const std::exception&) {
        // Expected once stop() lands mid-stream: the half-close surfaces
        // as "connection closed before result" on the next submit.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fx->server.stop();  // must not hang and must not tear down mid-frame
  for (std::thread& t : clients) t.join();
  // Every query the server reports as served produced a delivered result.
  EXPECT_EQ(fx->server.queries_served(), static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(fx->server.active_connections(), 0u);
}

}  // namespace
}  // namespace adr
