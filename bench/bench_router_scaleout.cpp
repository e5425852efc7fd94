// Router scale-out bench: aggregate query throughput through one
// AdrRouter fronting 1 backend vs `--backends` (default 3) backends,
// all in-process on loopback.  Every backend holds byte-identical grid
// datasets (storage/grid_fixture.hpp) and the router fans replicas over
// all of them, so adding backends adds serving capacity the way the
// paper's declustering adds disks: the same work spread over more
// independent executors.
//
// To make the scaling claim robust on any CI runner, each query is
// given a fixed synthetic compute cost — the runtime.compute fault
// point armed latency-only (code = kOk, 2ms delay) — so throughput is
// bound by backend workers, not by the host's scheduling noise.  The
// acceptance bar (CI-enforced, --no-check to skip): N backends must
// deliver >= 2x the single-backend aggregate qps.  Emits
// BENCH_router_scaleout.json for CI artifacts.
//
// flags: --backends=<n> (default 3)  --clients=<n> (default 8)
//        --queries=<n> per client (default 24)  --out=<path>
//        --no-check  --help
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/table.hpp"
#include "core/frontend.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "storage/grid_fixture.hpp"

namespace {

using adr::GridIds;
using adr::GridSpec;
using adr::Query;
using adr::Rect;
using adr::Repository;
using adr::RepositoryConfig;

struct Args {
  int backends = 3;
  int clients = 8;
  int queries_per_client = 24;
  int delay_us = 2000;
  bool direct = false;  // debug: bypass the router, hit backend 0
  std::string out_path = "BENCH_router_scaleout.json";
  bool check = true;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--backends=")) {
      args.backends = std::stoi(v);
    } else if (const char* v = value("--clients=")) {
      args.clients = std::stoi(v);
    } else if (const char* v = value("--queries=")) {
      args.queries_per_client = std::stoi(v);
    } else if (const char* v = value("--out=")) {
      args.out_path = v;
    } else if (const char* v = value("--delay-us=")) {
      args.delay_us = std::stoi(v);
    } else if (arg == "--direct") {
      args.direct = true;
    } else if (arg == "--no-check") {
      args.check = false;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --backends=<n> --clients=<n> --queries=<n> "
                   "--out=<path> --no-check\n";
      std::exit(0);
    }
  }
  return args;
}

constexpr int kDatasets = 8;

RepositoryConfig repo_config() {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  // A capacity bench, not a cache bench: with the caches on, repeated
  // queries short-circuit to cached aggregates and measure nothing but
  // the wire.  Every query must pay its (injected) compute.
  cfg.chunk_cache_bytes_per_node = 0;
  cfg.marginal_cache_bytes = 0;
  return cfg;
}

/// One in-process backend: its own repository (own executor workers,
/// own caches) behind its own AdrServer — process isolation minus the
/// fork, which is all a throughput bench needs.
struct Backend {
  Repository repo{repo_config()};
  std::vector<GridIds> ids;
  std::unique_ptr<adr::net::AdrServer> server;

  Backend() {
    GridSpec spec;
    spec.datasets = kDatasets;
    ids = adr::create_grid_datasets(repo, spec);
    server = std::make_unique<adr::net::AdrServer>(
        repo, /*port=*/0, adr::ComputeCosts{},
        adr::RuntimeConfig{.scheduler_workers = 1});
    server->start();
  }
  ~Backend() { server->stop(); }
};

Query grid_query(const std::vector<GridIds>& ids, int dataset) {
  Query q;
  q.input_dataset = ids[dataset].input;
  q.output_dataset = ids[dataset].output;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = adr::OutputDelivery::kReturnToClient;
  return q;
}

/// Runs `clients` threads of round-robin queries through a router over
/// `n` fresh backends; returns aggregate queries per second.
double measure_qps(const Args& args, int n, bool& ok) {
  std::vector<std::unique_ptr<Backend>> backends;
  for (int i = 0; i < n; ++i) backends.push_back(std::make_unique<Backend>());

  adr::net::RouterConfig cfg;
  for (const auto& b : backends) cfg.backend_ports.push_back(b->server->port());
  cfg.replication = n;  // identical data everywhere: fan out fully
  cfg.forwarders = std::max(args.clients, n);
  cfg.retry.max_attempts = 4;
  cfg.retry.seed = 7;
  adr::net::AdrRouter router(cfg);
  router.start();
  const std::uint16_t target_port =
      args.direct ? backends[0]->server->port() : router.port();

  // Warm-up (connection setup, first-touch paths) stays unmeasured.
  {
    adr::net::AdrClient warm(target_port);
    for (int d = 0; d < kDatasets; ++d) {
      if (!warm.submit(grid_query(backends[0]->ids, d)).ok()) ok = false;
    }
  }

  std::vector<std::thread> threads;
  std::vector<char> failed(static_cast<std::size_t>(args.clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < args.clients; ++c) {
    threads.emplace_back([&, c]() {
      adr::net::AdrClient client(target_port);
      for (int i = 0; i < args.queries_per_client; ++i) {
        const int d = (c + i) % kDatasets;
        const adr::net::WireResult r =
            client.submit(grid_query(backends[0]->ids, d));
        if (!r.ok()) {
          std::cerr << "bench: query failed with " << n
                    << " backends: " << r.status.to_string() << "\n";
          failed[static_cast<std::size_t>(c)] = 1;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  router.stop();
  for (const char f : failed) {
    if (f) ok = false;
  }
  const int total = args.clients * args.queries_per_client;
  return elapsed > 0.0 ? total / elapsed : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Fixed per-tile compute cost: latency-only fault, identical in both
  // stages, so qps is worker-bound and the ratio is scheduling-robust.
  adr::fault::ScopedFaultPlan plan(/*seed=*/1);
  if (args.delay_us > 0) {
    adr::fault::FaultSpec slow;
    slow.trigger = adr::fault::Trigger::kAlways;
    slow.code = adr::StatusCode::kOk;
    slow.delay = std::chrono::microseconds(args.delay_us);
    plan.arm("runtime.compute", slow);
  }

  bool ok = true;
  const double single_qps = measure_qps(args, 1, ok);
  const double sharded_qps = measure_qps(args, args.backends, ok);
  const double speedup = single_qps > 0.0 ? sharded_qps / single_qps : 0.0;

  adr::Table table({"backends", "aggregate qps", "speedup"});
  table.add_row({"1", adr::fmt(single_qps, 1), "1.0"});
  table.add_row({std::to_string(args.backends), adr::fmt(sharded_qps, 1),
                 adr::fmt(speedup, 2)});
  std::cout << "router scale-out, " << args.clients << " clients x "
            << args.queries_per_client << " queries, " << kDatasets
            << " datasets, 2ms injected compute per tile\n";
  table.print(std::cout);

  std::ofstream json(args.out_path);
  json << "{\n  \"bench\": \"router_scaleout\",\n"
       << "  \"clients\": " << args.clients << ",\n"
       << "  \"queries_per_client\": " << args.queries_per_client << ",\n"
       << "  \"backends\": " << args.backends << ",\n"
       << "  \"single_backend_qps\": " << single_qps << ",\n"
       << "  \"sharded_qps\": " << sharded_qps << ",\n"
       << "  \"speedup\": " << speedup << "\n}\n";
  std::cout << "wrote " << args.out_path << "\n";

  if (!ok) return 1;
  // The acceptance bar: N backends must at least double aggregate
  // throughput (ideal is Nx; 2x tolerates shared-host noise).
  if (args.check && args.backends >= 3 && speedup < 2.0) {
    std::cerr << "bench: " << args.backends << " backends gave only "
              << speedup << "x over one backend (bar: 2x)\n";
    return 1;
  }
  return 0;
}
