// adr_demo_server: a self-contained ADR server over a synthetic dataset,
// for exercising the telemetry endpoints without a real deployment.
//
// Stands up a thread-backend repository with a generated sensor grid,
// starts AdrServer with the telemetry sampler and the plain-HTTP
// exposition listener, prints the bound ports (machine-parseable
// `port=` / `http_port=` lines), and serves until stdin reaches EOF or
// the process is signalled.  With --selfload a background client
// submits a steady stream of randomized range queries so every
// dashboard series moves — the CI smoke test runs exactly this:
//
//   adr_demo_server --selfload &
//   adr_top <port> --once
//   curl http://127.0.0.1:<http_port>/metrics
//
// Usage:
//   adr_demo_server [--port <p>] [--http-port <p>] [--period-ms <ms>]
//                   [--selfload]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "storage/chunk.hpp"

namespace {

using namespace adr;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port <p>] [--http-port <p>] [--period-ms <ms>] [--selfload]\n";
  return 2;
}

/// A 16x16 grid of chunks over the unit square, 64 readings each.
std::vector<Chunk> sensor_chunks() {
  Rng rng(7);
  std::vector<Chunk> chunks;
  const int n = 16;
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      ChunkMeta meta;
      const double d = 1.0 / n, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      std::vector<std::uint64_t> vals(64);
      for (auto& v : vals) v = static_cast<std::uint64_t>(rng.uniform_int(0, 999));
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> summary_chunks() {
  std::vector<Chunk> chunks;
  const int n = 4;
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      ChunkMeta meta;
      const double d = 1.0 / n, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

/// Steady randomized query stream against the server's own socket so
/// every telemetry series has signal.
void selfload_loop(std::uint16_t port, std::uint32_t input, std::uint32_t output,
                   const std::atomic<bool>& running) {
  Rng rng(23);
  try {
    net::AdrClient client(port);
    while (running.load()) {
      Query q;
      q.input_dataset = input;
      q.output_dataset = output;
      const double x0 = rng.uniform(0.0, 0.5);
      const double y0 = rng.uniform(0.0, 0.5);
      const double w = rng.uniform(0.1, 0.5);
      q.range = Rect(Point{x0, y0}, Point{x0 + w, y0 + w});
      q.aggregation = "sum-count-max";
      q.strategy = StrategyKind::kAuto;
      q.delivery = OutputDelivery::kDiscard;
      (void)client.submit(q);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  } catch (const std::exception& e) {
    std::cerr << "adr_demo_server: selfload stopped: " << e.what() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  int http_port = 0;  // ephemeral by default — this tool exists to expose it
  long period_ms = 250;
  bool selfload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--http-port" && i + 1 < argc) {
      http_port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--period-ms" && i + 1 < argc) {
      period_ms = std::strtol(argv[++i], nullptr, 10);
      if (period_ms < 10) period_ms = 10;
    } else if (arg == "--selfload") {
      selfload = true;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    RepositoryConfig config;
    config.num_nodes = 4;
    config.memory_per_node = 4u << 20;
    Repository repo(config);
    const Rect domain = Rect::cube(2, 0.0, 1.0);
    const auto sensors = repo.create_dataset("sensors", domain, sensor_chunks());
    const auto summary = repo.create_dataset("summary", domain, summary_chunks());

    net::AdrServer server(
        repo, port, ComputeCosts{},
        {.telemetry = {.sample_period = std::chrono::milliseconds(period_ms),
                       .http_port = http_port}});
    server.start();
    std::cout << "port=" << server.port() << "\n"
              << "http_port=" << server.http_port() << "\n"
              << std::flush;
    std::cerr << "adr_demo_server: wire on 127.0.0.1:" << server.port()
              << ", http on 127.0.0.1:" << server.http_port()
              << " (/metrics /history /healthz); EOF on stdin stops\n";

    std::atomic<bool> running{true};
    std::thread load;
    if (selfload) {
      load = std::thread(
          [&]() { selfload_loop(server.port(), sensors, summary, running); });
    }

    // Serve until the parent closes our stdin (or sends EOF).
    std::string line;
    while (std::getline(std::cin, line)) {
    }

    running.store(false);
    if (load.joinable()) load.join();
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "adr_demo_server: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
