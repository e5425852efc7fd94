// Sharded serving tests: the consistent-hash ring, the backend health
// state machine, the in-process router serving path (routing, stats,
// failover, half-open recovery), the connect-stage client-retry fix,
// and the multi-process RouterCluster chaos harness — real adr_backend
// processes fork/exec'd on loopback, seeded fault plans per child, one
// backend SIGKILLed mid-run, results compared byte-for-byte against a
// single-process oracle.
//
// The HashRing.* / BackendHealth.* / RouterServing.* / FrameLoop.* /
// ClientRetry.* suites are ThreadSanitizer targets (see
// .github/workflows/ci.yml); the RouterCluster.* suite forks and is
// plain-build only.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/hash_ring.hpp"
#include "core/frontend.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "storage/grid_fixture.hpp"

namespace adr::net {
namespace {

using Clock = std::chrono::steady_clock;

// --------------------------------------------------------- hash ring

TEST(HashRing, BalancesKeysWithinTwiceIdeal) {
  HashRing ring;  // default 64 vnodes per node
  const std::vector<std::uint64_t> nodes = {40001, 40002, 40003, 40004};
  for (const std::uint64_t n : nodes) ring.add_node(n);

  std::map<std::uint64_t, int> counts;
  const int kKeys = 1000;
  for (int k = 0; k < kKeys; ++k) counts[ring.lookup(static_cast<std::uint64_t>(k))]++;

  const double ideal = static_cast<double>(kKeys) / nodes.size();
  for (const std::uint64_t n : nodes) {
    EXPECT_GT(counts[n], 0) << "node " << n << " owns nothing";
    EXPECT_LE(counts[n], 2.0 * ideal) << "node " << n << " over-loaded";
    EXPECT_GE(counts[n], 0.5 * ideal) << "node " << n << " under-loaded";
  }
}

TEST(HashRing, RemovalOnlyRemapsTheRemovedNodesKeys) {
  HashRing ring;
  for (std::uint64_t n : {1ull, 2ull, 3ull, 4ull, 5ull}) ring.add_node(n);

  const int kKeys = 1000;
  std::vector<std::uint64_t> before(kKeys);
  for (int k = 0; k < kKeys; ++k) before[k] = ring.lookup(k);

  ASSERT_TRUE(ring.remove_node(3));
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t now = ring.lookup(k);
    if (before[k] == 3) {
      EXPECT_NE(now, 3u);  // its keys went somewhere live
      ++moved;
    } else {
      // Minimal-remap guarantee: survivors keep every key they had.
      EXPECT_EQ(now, before[k]) << "key " << k << " moved needlessly";
    }
  }
  EXPECT_GT(moved, 0);

  // Re-adding restores the original assignment exactly (placement is a
  // pure function of membership).
  ring.add_node(3);
  for (int k = 0; k < kKeys; ++k) EXPECT_EQ(ring.lookup(k), before[k]);
}

TEST(HashRing, AdditionMovesRoughlyOneShare) {
  HashRing ring;
  for (std::uint64_t n : {1ull, 2ull, 3ull, 4ull, 5ull}) ring.add_node(n);
  const int kKeys = 1000;
  std::vector<std::uint64_t> before(kKeys);
  for (int k = 0; k < kKeys; ++k) before[k] = ring.lookup(k);

  ring.add_node(6);
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t now = ring.lookup(k);
    if (now != before[k]) {
      EXPECT_EQ(now, 6u);  // keys only ever move TO the new node
      ++moved;
    }
  }
  // The new node's fair share is 1/6; allow 2x for vnode variance.
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, 2 * kKeys / 6);
}

TEST(HashRing, ReplicasAreDistinctAndLeadWithTheOwner) {
  HashRing ring;
  for (std::uint64_t n : {10ull, 20ull, 30ull, 40ull}) ring.add_node(n);
  for (std::uint64_t key : {0ull, 7ull, 123456789ull}) {
    const std::vector<std::uint64_t> reps = ring.replicas(key, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], ring.lookup(key));
    EXPECT_NE(reps[0], reps[1]);
    EXPECT_NE(reps[1], reps[2]);
    EXPECT_NE(reps[0], reps[2]);
  }
  // Asking for more replicas than nodes returns every node once.
  EXPECT_EQ(ring.replicas(42, 10).size(), 4u);
}

TEST(HashRing, EdgeCases) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.lookup(1), std::logic_error);
  EXPECT_TRUE(ring.replicas(1, 3).empty());
  EXPECT_FALSE(ring.remove_node(9));
  ring.add_node(9);
  ring.add_node(9);  // idempotent
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.lookup(123), 9u);
  EXPECT_THROW(HashRing(0), std::invalid_argument);
}

// ---------------------------------------------------- backend health

TEST(BackendHealth, MarksDownAfterConsecutiveFailures) {
  BackendHealth h(/*mark_down_after=*/3, std::chrono::milliseconds(500));
  const auto t0 = Clock::now();
  EXPECT_EQ(h.state(t0), BackendHealth::State::kUp);
  EXPECT_TRUE(h.admit(t0));

  h.record_failure(t0);
  h.record_failure(t0);
  EXPECT_EQ(h.state(t0), BackendHealth::State::kUp);  // streak of 2 < 3
  h.record_success(t0);                               // success resets streak
  EXPECT_EQ(h.consecutive_failures(), 0);

  h.record_failure(t0);
  h.record_failure(t0);
  h.record_failure(t0);
  EXPECT_EQ(h.state(t0), BackendHealth::State::kDown);
  EXPECT_TRUE(h.marked_down());
  EXPECT_FALSE(h.admit(t0));
}

TEST(BackendHealth, HalfOpenGrantsOneTrialThenRecoversOrRestarts) {
  BackendHealth h(/*mark_down_after=*/1, std::chrono::milliseconds(500));
  const auto t0 = Clock::now();
  h.record_failure(t0);
  ASSERT_EQ(h.state(t0), BackendHealth::State::kDown);

  // Before the half-open window: refused.
  EXPECT_FALSE(h.admit(t0 + std::chrono::milliseconds(499)));

  // After it: exactly one trial.
  const auto t1 = t0 + std::chrono::milliseconds(501);
  EXPECT_EQ(h.state(t1), BackendHealth::State::kHalfOpen);
  EXPECT_TRUE(h.marked_down());  // half-open still counts as down
  EXPECT_TRUE(h.admit(t1));
  EXPECT_FALSE(h.admit(t1));  // trial in flight: no second caller

  // Failed trial: down again with a restarted timer.
  h.record_failure(t1);
  EXPECT_EQ(h.state(t1 + std::chrono::milliseconds(499)),
            BackendHealth::State::kDown);
  const auto t2 = t1 + std::chrono::milliseconds(501);
  EXPECT_EQ(h.state(t2), BackendHealth::State::kHalfOpen);

  // Successful trial: fully up, streak cleared.
  EXPECT_TRUE(h.admit(t2));
  h.record_success(t2);
  EXPECT_EQ(h.state(t2), BackendHealth::State::kUp);
  EXPECT_FALSE(h.marked_down());
  EXPECT_EQ(h.consecutive_failures(), 0);
}

// ----------------------------------------------------- dataset signature

TEST(RouterServing, DatasetSignatureDependsOnDatasetsOnly) {
  Query a;
  a.input_dataset = 0;
  a.output_dataset = 1;
  Query b = a;
  b.range = Rect::cube(2, 0.25, 0.75);
  b.strategy = StrategyKind::kDA;
  // Same dataset family, different range/strategy: same backend (cache
  // affinity is the whole point).
  EXPECT_EQ(dataset_signature(a), dataset_signature(b));

  Query c = a;
  c.input_dataset = 2;
  c.output_dataset = 3;
  EXPECT_NE(dataset_signature(a), dataset_signature(c));

  Query d = a;
  d.extra_input_datasets = {2};
  EXPECT_NE(dataset_signature(a), dataset_signature(d));
}

// ------------------------------------------------- in-process routing

/// Binds (without listening on) a loopback port and returns the fd, or
/// -1.  Tests that kill a server park a placeholder on its freed port:
/// connects then get a deterministic ECONNREFUSED, and — crucially under
/// a parallel ctest run — no *other* test process can be handed the
/// port and impersonate the dead backend.
int bind_placeholder(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::map<std::uint32_t, std::vector<std::byte>> outputs_by_id(
    const std::vector<Chunk>& outputs) {
  std::map<std::uint32_t, std::vector<std::byte>> bytes;
  for (const Chunk& c : outputs) bytes[c.meta().id.index] = c.payload();
  return bytes;
}

RepositoryConfig small_repo_config() {
  RepositoryConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  return cfg;
}

/// Two real AdrServers over byte-identical grid datasets, fronted by
/// one AdrRouter — the whole sharded data path in one process.
struct RouterFixture {
  static constexpr int kDatasets = 4;
  Repository repo_a{small_repo_config()};
  Repository repo_b{small_repo_config()};
  std::vector<GridIds> ids;
  AdrServer server_a{repo_a, 0};
  AdrServer server_b{repo_b, 0};
  std::unique_ptr<AdrRouter> router;

  explicit RouterFixture(RouterConfig config = {}) {
    GridSpec spec;
    spec.datasets = kDatasets;
    ids = create_grid_datasets(repo_a, spec);
    create_grid_datasets(repo_b, spec);
    server_a.start();
    server_b.start();
    config.backend_ports = {server_a.port(), server_b.port()};
    router = std::make_unique<AdrRouter>(config);
    router->start();
  }

  ~RouterFixture() {
    if (router) router->stop();
    server_a.stop();
    server_b.stop();
  }

  Query query(int dataset, StrategyKind strategy = StrategyKind::kFRA) const {
    Query q;
    q.input_dataset = ids[dataset].input;
    q.output_dataset = ids[dataset].output;
    q.range = Rect::cube(2, 0.0, 1.0);
    q.aggregation = "sum-count-max";
    q.strategy = strategy;
    q.delivery = OutputDelivery::kReturnToClient;
    return q;
  }
};

TEST(RouterServing, RoutedResultsMatchDirectExecution) {
  RouterFixture fx;
  AdrClient via_router(fx.router->port());
  for (int d = 0; d < RouterFixture::kDatasets; ++d) {
    const WireResult routed = via_router.submit(fx.query(d));
    ASSERT_TRUE(routed.ok()) << routed.status.to_string();
    // Oracle: the same query executed directly on a backend repository.
    const QueryResult direct = fx.repo_a.submit(fx.query(d));
    EXPECT_EQ(outputs_by_id(routed.outputs), outputs_by_id(direct.outputs))
        << "dataset " << d;
    std::uint64_t sum = 0;
    for (const Chunk& c : routed.outputs) sum += c.as<std::uint64_t>()[0];
    EXPECT_EQ(sum, grid_full_sum(GridSpec{.datasets = RouterFixture::kDatasets},
                                 d));
  }
  EXPECT_GE(obs::metrics().counter("router.queries").value(), 4u);
}

TEST(RouterServing, PipelinedQueriesOnOneConnectionStayOrdered) {
  RouterFixture fx;
  AdrClient client(fx.router->port());
  for (int round = 0; round < 3; ++round) {
    for (StrategyKind s :
         {StrategyKind::kFRA, StrategyKind::kSRA, StrategyKind::kDA}) {
      const WireResult r = client.submit(fx.query(round % 4, s));
      ASSERT_TRUE(r.ok()) << r.status.to_string();
      EXPECT_EQ(r.strategy, s);
    }
  }
}

TEST(RouterServing, StatsEndpointServesRouterMetrics) {
  RouterFixture fx;
  AdrClient client(fx.router->port());
  ASSERT_TRUE(client.submit(fx.query(0)).ok());
  const WireStatsReply stats = client.stats();
  EXPECT_NE(stats.metrics_json.find("router.queries"), std::string::npos);
  EXPECT_NE(stats.metrics_json.find("router.backend."), std::string::npos);
}

TEST(RouterServing, CandidateOrderCoversEveryBackendOnce) {
  RouterFixture fx;
  for (std::uint64_t sig : {1ull, 99ull, 31337ull}) {
    const std::vector<std::uint16_t> order = fx.router->candidates_for(sig);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_NE(order[0], order[1]);
  }
}

TEST(RouterServing, FailsOverWhenABackendDies) {
  RouterConfig cfg;
  cfg.replication = 2;  // every query may use either backend
  cfg.retry.max_attempts = 4;
  cfg.retry.initial_backoff = std::chrono::milliseconds(1);
  cfg.retry.seed = 11;
  cfg.mark_down_after = 2;
  cfg.half_open_after = std::chrono::milliseconds(60'000);  // stay down
  cfg.probe_interval = std::chrono::milliseconds(0);  // health from traffic only
  RouterFixture fx(cfg);
  // The ring's nodes are the backends' ephemeral ports, so which backend
  // a dataset tries first changes from run to run.  Stop the one dataset
  // 0 tries first: its two queries below must then fail over.
  const std::uint16_t dead_port =
      fx.router->candidates_for(dataset_signature(fx.query(0))).front();
  AdrServer& dead = dead_port == fx.server_a.port() ? fx.server_a : fx.server_b;
  AdrServer& live = dead_port == fx.server_a.port() ? fx.server_b : fx.server_a;

  const std::uint64_t failovers_before =
      obs::metrics().counter("router.failovers").value();
  dead.stop();
  // Park on the freed port: connect-refused from now on, guaranteed.
  const int placeholder = bind_placeholder(dead_port);
  ASSERT_GE(placeholder, 0);

  AdrClient client(fx.router->port());
  for (int i = 0; i < 8; ++i) {
    const WireResult r = client.submit(fx.query(i % RouterFixture::kDatasets));
    ASSERT_TRUE(r.ok()) << "query " << i << ": " << r.status.to_string();
  }
  // The queries routed to the dead backend first (at least dataset 0's
  // two) must have failed over; after mark_down_after of them, it is
  // marked down.
  EXPECT_GT(obs::metrics().counter("router.failovers").value(), failovers_before);
  EXPECT_EQ(fx.router->backend_state(dead_port), BackendHealth::State::kDown);
  EXPECT_EQ(fx.router->backend_state(live.port()), BackendHealth::State::kUp);
  ::close(placeholder);
}

TEST(RouterServing, ProberDrivesHalfOpenRecovery) {
  RouterConfig cfg;
  cfg.replication = 2;
  cfg.retry.max_attempts = 4;
  cfg.retry.initial_backoff = std::chrono::milliseconds(1);
  cfg.retry.seed = 12;
  cfg.mark_down_after = 1;
  cfg.half_open_after = std::chrono::milliseconds(100);
  cfg.probe_interval = std::chrono::milliseconds(50);
  RouterFixture fx(cfg);
  const std::uint16_t port_b = fx.server_b.port();

  fx.server_b.stop();
  const int placeholder = bind_placeholder(port_b);  // keep the port ours
  ASSERT_GE(placeholder, 0);
  // The prober alone must notice the death (no client traffic at all).
  const auto down_deadline = Clock::now() + std::chrono::seconds(5);
  while (fx.router->backend_state(port_b) == BackendHealth::State::kUp &&
         Clock::now() < down_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(fx.router->backend_state(port_b), BackendHealth::State::kUp);

  // Resurrect a backend on the same port; the half-open trial probe
  // must bring it back without any query traffic.
  ::close(placeholder);
  AdrServer revived(fx.repo_b, port_b);
  revived.start();
  const auto up_deadline = Clock::now() + std::chrono::seconds(5);
  while (fx.router->backend_state(port_b) != BackendHealth::State::kUp &&
         Clock::now() < up_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.router->backend_state(port_b), BackendHealth::State::kUp);

  // And it serves queries again end to end.
  AdrClient client(fx.router->port());
  for (int d = 0; d < RouterFixture::kDatasets; ++d) {
    EXPECT_TRUE(client.submit(fx.query(d)).ok());
  }
  revived.stop();
}

// --------------------------------------------------- the shared loop
//
// AdrRouter runs on the same FrameLoop as AdrServer, so the loop's
// fixes reach it too.  The FrameLoop.* suite is a ThreadSanitizer
// target (see .github/workflows/ci.yml).

TEST(FrameLoop, RouterReleasesListenSocketWithoutStart) {
  // Regression: stop() returned early when start() never ran, so a
  // router destroyed unstarted leaked its listening socket and kept the
  // port bound.
  std::uint16_t port = 0;
  {
    RouterConfig cfg;
    cfg.backend_ports = {1};  // never contacted: the router never starts
    AdrRouter router(cfg);
    port = router.port();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  EXPECT_EQ(::listen(fd, 1), 0);
  ::close(fd);
}

TEST(FrameLoop, AcceptErrorsBackOffAndRecover) {
  // The router twin of EventLoopServing.AcceptErrorsBackOffAndRecover:
  // a persistent accept() failure must be counted and backed off, and
  // the still-queued connection accepted once the failures stop.  With
  // the prober off, only the router accepts while the fault is armed
  // (its forwarders connect to a backend only after the client is in).
  RouterConfig cfg;
  cfg.probe_interval = std::chrono::milliseconds(0);
  RouterFixture fx(cfg);
  const std::uint64_t errors_before =
      obs::metrics().counter("router.accept_errors").value();

  fault::ScopedFaultPlan plan(/*seed=*/43);
  fault::FaultSpec accept_fail;
  accept_fail.trigger = fault::Trigger::kAlways;
  accept_fail.max_fires = 3;
  plan.arm("net.accept", accept_fail);

  AdrClient client(fx.router->port());
  const WireResult result = client.submit(fx.query(0));
  ASSERT_TRUE(result.ok()) << result.status.to_string();

  EXPECT_EQ(fault::faults().stats("net.accept").fires, 3u);
  EXPECT_EQ(obs::metrics().counter("router.accept_errors").value(),
            errors_before + 3);
}

// ------------------------------------------------ client connect retry

TEST(ClientRetry, ConnectRefusedIsRetriedEvenWhenNonIdempotent) {
  // Reserve a port that refuses connections: bind without listen, so
  // connect() fails immediately and deterministically.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.idempotent = false;  // the fix under test: connect-stage
                              // failures retry regardless
  policy.seed = 21;
  AdrClient client(dead_port, policy);
  Query q;  // never sent — content irrelevant
  const WireResult r = client.submit(q);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code, StatusCode::kUnavailable);
  // Before the fix this returned after attempt 1 (kUnavailable gated on
  // idempotency); connect-stage failures must consume the full budget.
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_NE(r.status.message.find("connect failed"), std::string::npos);
  ::close(fd);
}

TEST(ClientRetry, ClientConstructedBeforeServerStartsSucceeds) {
  Repository repo(small_repo_config());
  const auto ids = create_grid_datasets(repo);

  // Hold the port bound-but-not-listening: the client gets deterministic
  // refusals (never some other test's server) until the late server
  // takes the port over.
  const int placeholder = bind_placeholder(0);
  ASSERT_GE(placeholder, 0);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ASSERT_EQ(::getsockname(placeholder, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len),
            0);
  const std::uint16_t port = ntohs(bound.sin_port);

  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.initial_backoff = std::chrono::milliseconds(20);
  policy.backoff_multiplier = 1.0;
  policy.idempotent = false;  // connect-stage retries carry the fallback
  policy.seed = 22;
  AdrClient client(port, policy);  // retrying ctor: no throw on refusal

  std::atomic<bool> done{false};
  std::thread late([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ::close(placeholder);
    std::unique_ptr<AdrServer> server;
    for (int i = 0; i < 100 && !server; ++i) {
      try {
        server = std::make_unique<AdrServer>(repo, port);
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_NE(server, nullptr);
    server->start();
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    server->stop();
  });

  Query q;
  q.input_dataset = ids[0].input;
  q.output_dataset = ids[0].output;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  const WireResult r = client.submit(q);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_GT(r.attempts, 1u);  // refused at least once before the server rose
  done.store(true);
  late.join();
}

// --------------------------------------------- multi-process cluster

/// One fork/exec'd adr_backend child: the parent holds its stdin open
/// (EOF stops a clean backend) and has parsed its bound port.
struct BackendProc {
  pid_t pid = -1;
  int stdin_fd = -1;
  std::uint16_t port = 0;
};

/// Fault plan shared by every ChaosSweep backend (rates vary per test).
struct ChaosSpec {
  double storage_fault_rate = 0.0;
  std::uint64_t storage_max_fires = 40;
  double net_fault_rate = 0.0;
  std::uint64_t net_max_fires = 10;
};

/// A real sharded deployment on loopback: N adr_backend processes plus
/// an in-process AdrRouter over their ports.  Children die with SIGKILL
/// in teardown; kill_backend() does it mid-test on purpose.
class RouterCluster {
 public:
  RouterCluster(int backends, int datasets, const ChaosSpec& chaos,
                std::uint64_t seed) {
    for (int i = 0; i < backends; ++i) {
      backends_.push_back(spawn(datasets, chaos, seed + 1000 * (i + 1)));
    }
    RouterConfig cfg;
    for (const BackendProc& b : backends_) cfg.backend_ports.push_back(b.port);
    cfg.replication = backends;  // all backends hold identical data
    cfg.retry.max_attempts = 8;
    cfg.retry.initial_backoff = std::chrono::milliseconds(2);
    cfg.retry.seed = seed;
    cfg.mark_down_after = 2;
    cfg.half_open_after = std::chrono::milliseconds(200);
    cfg.probe_interval = std::chrono::milliseconds(100);
    router_ = std::make_unique<AdrRouter>(cfg);
    router_->start();
  }

  ~RouterCluster() {
    if (router_) router_->stop();
    for (BackendProc& b : backends_) reap(b, /*hard=*/true);
  }

  std::uint16_t router_port() const { return router_->port(); }

  void kill_backend(std::size_t i) {
    ASSERT_LT(i, backends_.size());
    ASSERT_GT(backends_[i].pid, 0);
    ::kill(backends_[i].pid, SIGKILL);
    reap(backends_[i], /*hard=*/false);
  }

 private:
  static BackendProc spawn(int datasets, const ChaosSpec& chaos,
                           std::uint64_t fault_seed) {
    int to_child[2];   // parent writes -> child stdin
    int from_child[2]; // child stdout -> parent reads
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      ADD_FAILURE() << "pipe() failed";
      return {};
    }
    std::vector<std::string> args = {ADR_BACKEND_BIN, "--datasets",
                                     std::to_string(datasets), "--fault-seed",
                                     std::to_string(fault_seed)};
    const auto arm = [&args](const char* point, double rate,
                             std::uint64_t max_fires) {
      if (rate <= 0.0) return;
      args.push_back("--fault");
      args.push_back(std::string(point) + ":p:" + std::to_string(rate) + ":" +
                     std::to_string(max_fires));
    };
    arm("storage.fetch", chaos.storage_fault_rate, chaos.storage_max_fires);
    arm("net.write_frame", chaos.net_fault_rate, chaos.net_max_fires);

    const pid_t pid = ::fork();
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);

    BackendProc proc;
    proc.pid = pid;
    proc.stdin_fd = to_child[1];
    proc.port = read_port(from_child[0]);
    ::close(from_child[0]);
    EXPECT_GT(proc.port, 0) << "backend never printed its port";
    return proc;
  }

  /// Reads the child's `port=N` line with a hard timeout, so a child
  /// that dies at startup fails the test instead of hanging it.
  static std::uint16_t read_port(int fd) {
    std::string buffer;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      pollfd p{};
      p.fd = fd;
      p.events = POLLIN;
      const int n = ::poll(&p, 1, 100);
      if (n <= 0) continue;
      char chunk[256];
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) break;  // EOF: child died
      buffer.append(chunk, static_cast<std::size_t>(got));
      const std::size_t at = buffer.find("port=");
      if (at != std::string::npos) {
        const std::size_t eol = buffer.find('\n', at);
        if (eol != std::string::npos) {
          return static_cast<std::uint16_t>(
              std::strtoul(buffer.c_str() + at + 5, nullptr, 10));
        }
      }
    }
    return 0;
  }

  static void reap(BackendProc& proc, bool hard) {
    if (proc.pid <= 0) return;
    if (hard) ::kill(proc.pid, SIGKILL);
    if (proc.stdin_fd >= 0) {
      ::close(proc.stdin_fd);
      proc.stdin_fd = -1;
    }
    int status = 0;
    ::waitpid(proc.pid, &status, 0);
    proc.pid = -1;
  }

  std::vector<BackendProc> backends_;
  std::unique_ptr<AdrRouter> router_;
};

constexpr int kChaosDatasets = 3;

Query grid_query(const std::vector<GridIds>& ids, int dataset,
                 StrategyKind strategy) {
  Query q;
  q.input_dataset = ids[dataset].input;
  q.output_dataset = ids[dataset].output;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.strategy = strategy;
  q.delivery = OutputDelivery::kReturnToClient;
  return q;
}

/// The single-process oracle: the grid datasets executed by a plain
/// Repository, no sockets, no faults.
std::map<int, std::map<std::uint32_t, std::vector<std::byte>>> oracle_outputs(
    StrategyKind strategy) {
  Repository repo(small_repo_config());
  GridSpec spec;
  spec.datasets = kChaosDatasets;
  const auto ids = create_grid_datasets(repo, spec);
  std::map<int, std::map<std::uint32_t, std::vector<std::byte>>> expected;
  for (int d = 0; d < kChaosDatasets; ++d) {
    expected[d] = outputs_by_id(repo.submit(grid_query(ids, d, strategy)).outputs);
  }
  return expected;
}

/// The ids the backends assign — a fresh repository numbers datasets
/// identically, so the oracle's ids are also the cluster's.
std::vector<GridIds> chaos_ids() {
  Repository repo(small_repo_config());
  GridSpec spec;
  spec.datasets = kChaosDatasets;
  return create_grid_datasets(repo, spec);
}

TEST(RouterCluster, ChaosSweepStaysByteIdenticalToOracle) {
  const auto ids = chaos_ids();
  for (const double rate : {0.0, 0.1, 0.25}) {
    SCOPED_TRACE("fault rate " + std::to_string(rate));
    ChaosSpec chaos;
    chaos.storage_fault_rate = rate;
    chaos.net_fault_rate = rate > 0.0 ? 0.1 : 0.0;
    RouterCluster cluster(/*backends=*/3, kChaosDatasets, chaos, /*seed=*/77);

    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff = std::chrono::milliseconds(2);
    policy.seed = 5;
    AdrClient client(cluster.router_port(), policy);
    for (StrategyKind strategy :
         {StrategyKind::kFRA, StrategyKind::kSRA, StrategyKind::kDA}) {
      const auto expected = oracle_outputs(strategy);
      for (int d = 0; d < kChaosDatasets; ++d) {
        const WireResult r = client.submit(grid_query(ids, d, strategy));
        ASSERT_TRUE(r.ok())
            << "strategy " << to_string(strategy) << " dataset " << d << ": "
            << r.status.to_string();
        EXPECT_EQ(outputs_by_id(r.outputs), expected.at(d))
            << "strategy " << to_string(strategy) << " dataset " << d;
      }
    }
  }
}

/// One full acceptance run: 3 faulted backends, 8 concurrent clients,
/// backend 0 SIGKILLed once a third of the queries have finished.
/// Returns every query's outputs keyed by (client, iteration).
std::map<std::pair<int, int>, std::map<std::uint32_t, std::vector<std::byte>>>
chaos_kill_run(std::uint64_t seed, const std::vector<GridIds>& ids) {
  ChaosSpec chaos;
  chaos.storage_fault_rate = 0.1;
  chaos.storage_max_fires = 30;
  RouterCluster cluster(/*backends=*/3, kChaosDatasets, chaos, seed);

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 9;
  constexpr StrategyKind kStrategies[] = {StrategyKind::kFRA, StrategyKind::kSRA,
                                          StrategyKind::kDA};
  std::atomic<int> completed{0};
  std::atomic<bool> killed{false};
  std::map<std::pair<int, int>, std::map<std::uint32_t, std::vector<std::byte>>>
      results;
  std::mutex results_mutex;
  std::vector<std::string> failures;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      RetryPolicy policy;
      policy.max_attempts = 8;
      policy.initial_backoff = std::chrono::milliseconds(2);
      policy.seed = seed + static_cast<std::uint64_t>(c);
      AdrClient client(cluster.router_port(), policy);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const int d = (c + i) % kChaosDatasets;
        const StrategyKind s = kStrategies[i % 3];
        const WireResult r = client.submit(grid_query(ids, d, s));
        std::lock_guard lock(results_mutex);
        if (!r.ok()) {
          failures.push_back("client " + std::to_string(c) + " query " +
                             std::to_string(i) + ": " + r.status.to_string());
        } else {
          results[{c, i}] = outputs_by_id(r.outputs);
        }
        completed.fetch_add(1);
      }
    });
  }

  // SIGKILL one backend mid-run, once a third of the work has finished
  // — queries are genuinely in flight around the kill.
  while (completed.load() < kClients * kQueriesPerClient / 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  cluster.kill_backend(0);
  killed.store(true);

  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(failures.empty()) << failures.size() << " visible failures; first: "
                                << failures.front();
  return results;
}

TEST(RouterCluster, SigkillMidRunIsInvisibleAndDeterministic) {
  const auto ids = chaos_ids();

  // Expected bytes per (dataset, strategy) from the single-process oracle.
  std::map<StrategyKind, std::map<int, std::map<std::uint32_t, std::vector<std::byte>>>>
      expected;
  for (StrategyKind s :
       {StrategyKind::kFRA, StrategyKind::kSRA, StrategyKind::kDA}) {
    expected[s] = oracle_outputs(s);
  }

  const auto run1 = chaos_kill_run(/*seed=*/4242, ids);
  ASSERT_EQ(run1.size(), 8u * 9u);  // zero visible failures
  constexpr StrategyKind kStrategies[] = {StrategyKind::kFRA, StrategyKind::kSRA,
                                          StrategyKind::kDA};
  for (const auto& [key, outputs] : run1) {
    const int d = (key.first + key.second) % kChaosDatasets;
    const StrategyKind s = kStrategies[key.second % 3];
    EXPECT_EQ(outputs, expected.at(s).at(d))
        << "client " << key.first << " query " << key.second;
  }

  // Same seed, fresh cluster: byte-identical end to end.
  const auto run2 = chaos_kill_run(/*seed=*/4242, ids);
  EXPECT_EQ(run1, run2);
}

}  // namespace
}  // namespace adr::net
