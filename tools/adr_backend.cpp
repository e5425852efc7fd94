// adr_backend: one shard of a sharded ADR deployment, as a process.
//
// Stands up a thread-backend repository holding the deterministic grid
// datasets (storage/grid_fixture.hpp) — every backend of a cluster
// built from the same --datasets value holds byte-identical data, so a
// router can send any query to any of them — starts AdrServer, prints
// the bound port (machine-parseable `port=` line), and serves until
// stdin reaches EOF or the process is signalled.  The RouterCluster
// test fixture fork/execs this binary and SIGKILLs it mid-run; the CI
// bench starts a few side by side.
//
// Fault plans arm the process-wide registry from the command line so a
// chaos harness can seed deterministic misbehavior per backend:
//
//   adr_backend --fault storage.fetch:p:0.25:40 --fault-seed 7
//
// arms storage.fetch with Trigger::kProbability 0.25 capped at 40
// fires under registry seed 7.  Kinds: p:<probability>, nth:<n>,
// once:<after_hits>, always:<ignored>; the optional 4th field caps
// max_fires.
//
// Usage:
//   adr_backend [--port <p>] [--datasets <d>] [--workers <n>]
//               [--max-connections <n>] [--fault <point>:<kind>:<value>[:<max>]]...
//               [--fault-seed <s>]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "net/server.hpp"
#include "storage/grid_fixture.hpp"

namespace {

using namespace adr;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port <p>] [--datasets <d>] [--workers <n>]"
               " [--max-connections <n>]"
               " [--fault <point>:<kind>:<value>[:<max_fires>]]..."
               " [--fault-seed <s>]\n";
  return 2;
}

/// Parses one --fault argument into (point, spec); returns false on a
/// malformed string.
bool parse_fault(const std::string& arg, std::string& point,
                 fault::FaultSpec& spec) {
  const std::size_t c1 = arg.find(':');
  if (c1 == std::string::npos) return false;
  const std::size_t c2 = arg.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  const std::size_t c3 = arg.find(':', c2 + 1);
  point = arg.substr(0, c1);
  const std::string kind = arg.substr(c1 + 1, c2 - c1 - 1);
  const std::string value =
      arg.substr(c2 + 1, (c3 == std::string::npos ? arg.size() : c3) - c2 - 1);
  if (point.empty() || value.empty()) return false;
  if (kind == "p") {
    spec.trigger = fault::Trigger::kProbability;
    spec.probability = std::strtod(value.c_str(), nullptr);
  } else if (kind == "nth") {
    spec.trigger = fault::Trigger::kEveryNth;
    spec.every_nth = std::strtoull(value.c_str(), nullptr, 10);
    if (spec.every_nth == 0) return false;
  } else if (kind == "once") {
    spec.trigger = fault::Trigger::kOneShot;
    spec.after_hits = std::strtoull(value.c_str(), nullptr, 10);
  } else if (kind == "always") {
    spec.trigger = fault::Trigger::kAlways;
  } else {
    return false;
  }
  if (c3 != std::string::npos) {
    spec.max_fires = std::strtoull(arg.c_str() + c3 + 1, nullptr, 10);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  int datasets = 1;
  int workers = 2;
  int max_connections = 64;
  std::uint64_t fault_seed = 0;
  bool have_fault_seed = false;
  std::vector<std::pair<std::string, fault::FaultSpec>> fault_plan;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--datasets" && i + 1 < argc) {
      datasets = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (datasets < 1) return usage(argv[0]);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (workers < 1) return usage(argv[0]);
    } else if (arg == "--max-connections" && i + 1 < argc) {
      max_connections = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (max_connections < 1) return usage(argv[0]);
    } else if (arg == "--fault" && i + 1 < argc) {
      std::string point;
      fault::FaultSpec spec;
      if (!parse_fault(argv[++i], point, spec)) return usage(argv[0]);
      fault_plan.emplace_back(point, spec);
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_seed = std::strtoull(argv[++i], nullptr, 10);
      have_fault_seed = true;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (have_fault_seed) fault::faults().seed(fault_seed);
    for (const auto& [point, spec] : fault_plan) {
      fault::faults().arm(point, spec);
    }

    RepositoryConfig config;
    config.num_nodes = 2;
    config.memory_per_node = 1u << 20;
    Repository repo(config);
    GridSpec spec;
    spec.datasets = datasets;
    create_grid_datasets(repo, spec);

    net::AdrServer server(
        repo, port, ComputeCosts{},
        {.scheduler_workers = static_cast<std::size_t>(workers),
         .max_connections = static_cast<std::size_t>(max_connections)});
    server.start();
    std::cout << "port=" << server.port() << "\n" << std::flush;
    std::cerr << "adr_backend: serving " << datasets
              << " grid dataset(s) on 127.0.0.1:" << server.port()
              << "; EOF on stdin stops\n";

    std::string line;
    while (std::getline(std::cin, line)) {
    }
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "adr_backend: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
