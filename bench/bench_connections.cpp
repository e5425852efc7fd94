// Connection-scaling bench for the event-driven front end: ramps idle
// connections to 10k+ parked on ONE event-loop thread and measures
// accept-to-reply latency (TCP connect + small query + result frame) at
// each ramp point.  The C10K claim being checked: p99 stays flat
// (within 2x) from 100 to 10k parked connections, because idle sockets
// cost the loop nothing — where thread-per-connection burned a stack
// and a scheduler slot each.  Emits BENCH_connections.json for CI
// artifacts.
//
// The server process pays one fd per connection; the client ends are
// parked in forked holder children (one per ~8k connections), so a
// 20000-fd container limit still fits a 10k ramp.  The soft
// RLIMIT_NOFILE is raised to the hard cap and the ramp is clamped to
// what fits.
//
// flags: --max-conns=<n> (default 10000)  --probes=<n> per ramp point
//        (default 50)  --out=<path>  --no-check  --help
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "core/frontend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

namespace {

using adr::Chunk;
using adr::ChunkMeta;
using adr::Point;
using adr::Query;
using adr::Rect;
using adr::Repository;
using adr::RepositoryConfig;

struct Args {
  int max_conns = 10000;
  int probes = 50;
  std::string out_path = "BENCH_connections.json";
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
    if (const char* v = value("--max-conns=")) {
      args.max_conns = std::stoi(v);
    } else if (const char* v = value("--probes=")) {
      args.probes = std::stoi(v);
    } else if (const char* v = value("--out=")) {
      args.out_path = v;
    } else if (arg == "--no-check") {
      args.check = false;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --max-conns=<n> --probes=<n> --out=<path> "
                   "--no-check\n";
      std::exit(0);
    }
  }
  return args;
}

Rect cell(const Rect& domain, int n, int ix, int iy) {
  const double dx = domain.extent(0) / n;
  const double dy = domain.extent(1) / n;
  const double e = 1e-9;
  return Rect(Point{domain.lo()[0] + ix * dx + e * dx, domain.lo()[1] + iy * dy + e * dy},
              Point{domain.lo()[0] + (ix + 1) * dx - e * dx,
                    domain.lo()[1] + (iy + 1) * dy - e * dy});
}

/// Raises the soft fd limit to the hard cap and returns the ramp target
/// that fits: the server end of every connection lives in this process
/// (client ends are parked in forked holder children), plus slack for
/// the repository, listen/wake/control fds and stdio.
int clamp_to_fd_limit(int requested) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return requested;
  const rlim_t wanted = static_cast<rlim_t>(requested) + 1024;
  if (rl.rlim_max < wanted) {
    // Privileged processes (CAP_SYS_RESOURCE) may raise the hard cap.
    rlimit raise = rl;
    raise.rlim_cur = raise.rlim_max = wanted;
    ::setrlimit(RLIMIT_NOFILE, &raise);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  const long budget = static_cast<long>(rl.rlim_cur) - 1024;
  if (budget < requested) {
    std::cerr << "bench: fd limit " << rl.rlim_cur << " clamps ramp to "
              << budget << " connections (asked " << requested << ")\n";
    return static_cast<int>(std::max(budget, 1l));
  }
  return requested;
}

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

/// A forked child holding `count` idle client connections open until
/// told to exit.  Holder children keep the parent's fd table free for
/// the server side of the same connections.
struct Holder {
  pid_t pid = -1;
  int ctl = -1;  // socketpair to the child; close = die
  int count = 0;
};

Holder spawn_holder(std::uint16_t port, int count) {
  Holder h;
  h.count = count;
  int sp[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0) return h;
  // Allocated before fork: the child only makes raw syscalls (the
  // parent's threads may hold allocator locks at fork time).
  std::vector<int> fds(static_cast<std::size_t>(count), -1);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(sp[0]);
    bool ok = true;
    int held = 0;
    for (; held < count; ++held) {
      fds[static_cast<std::size_t>(held)] = raw_connect(port);
      if (fds[static_cast<std::size_t>(held)] < 0) {
        ok = false;
        break;
      }
    }
    const char msg = ok ? 'R' : 'E';
    (void)!::write(sp[1], &msg, 1);
    char buf;  // park until the parent closes the control socket
    (void)!::read(sp[1], &buf, 1);
    for (int i = 0; i < held; ++i) ::close(fds[static_cast<std::size_t>(i)]);
    ::_exit(ok ? 0 : 1);
  }
  ::close(sp[1]);
  if (pid < 0) {
    ::close(sp[0]);
    return h;
  }
  h.pid = pid;
  h.ctl = sp[0];
  return h;
}

struct RampPoint {
  int connections = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  args.max_conns = clamp_to_fd_limit(args.max_conns);

  // A small dataset: the probe latency should be dominated by the
  // serving path (accept, frame, schedule, reply), not execution.
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  Repository repo(cfg);
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::vector<Chunk> inputs;
  for (int iy = 0; iy < 4; ++iy) {
    for (int ix = 0; ix < 4; ++ix) {
      ChunkMeta meta;
      meta.mbr = cell(domain, 4, ix, iy);
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
      meta.mbr = cell(domain, 2, ix, iy);
      outputs.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  const auto in = repo.create_dataset("in", domain, std::move(inputs));
  const auto out = repo.create_dataset("out", domain, std::move(outputs));

  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  query.range = domain;
  query.aggregation = "sum-count-max";
  query.delivery = adr::OutputDelivery::kReturnToClient;

  adr::net::AdrServer server(
      repo, /*port=*/0, {},
      {.scheduler_workers = 2,
       .max_connections = static_cast<std::size_t>(args.max_conns) + 64});
  server.start();

  const std::uint64_t wakeups_before =
      adr::obs::metrics().counter("server.epoll_wakeups").value();

  std::vector<int> ramp_targets;
  for (const int t : {100, 1000, 10000}) {
    if (t <= args.max_conns) ramp_targets.push_back(t);
  }
  if (ramp_targets.empty() || ramp_targets.back() != args.max_conns) {
    ramp_targets.push_back(args.max_conns);
  }

  std::vector<RampPoint> points;
  std::vector<Holder> holders;
  // Per-child cap keeps each holder comfortably under the same fd
  // limit the parent runs with.
  constexpr int kPerHolder = 8000;
  int held = 0;
  bool ok = true;
  for (const int target : ramp_targets) {
    while (held < target && ok) {
      const int batch = std::min(target - held, kPerHolder);
      Holder h = spawn_holder(server.port(), batch);
      if (h.pid < 0) {
        std::cerr << "bench: failed to fork a connection holder\n";
        ok = false;
        break;
      }
      holders.push_back(h);
      char msg = 'E';
      if (::read(h.ctl, &msg, 1) != 1 || msg != 'R') {
        std::cerr << "bench: holder child failed after " << held
                  << " connections: " << std::strerror(errno) << "\n";
        ok = false;
        break;
      }
      held += batch;
    }
    if (!ok) break;
    // Wait for the loop to register the whole herd before probing.
    const auto t0 = std::chrono::steady_clock::now();
    while (static_cast<long long>(server.active_connections()) < held &&
           seconds_since(t0) < 60.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (static_cast<long long>(server.active_connections()) < held) {
      std::cerr << "bench: loop registered only " << server.active_connections()
                << " of " << held << " connections\n";
      ok = false;
      break;
    }

    // Unmeasured warm-up: the first arrivals after a ramp absorb the
    // herd's registration work and would otherwise own the p99.
    for (int w = 0; w < 3; ++w) {
      adr::net::AdrClient warm(server.port());
      (void)warm.submit(query);
    }

    adr::obs::Histogram latency(adr::obs::default_latency_buckets());
    double sum_s = 0.0;
    for (int p = 0; p < args.probes; ++p) {
      const auto p0 = std::chrono::steady_clock::now();
      adr::net::AdrClient client(server.port());
      const adr::net::WireResult result = client.submit(query);
      const double s = seconds_since(p0);
      if (!result.ok()) {
        std::cerr << "bench: probe query failed at " << target
                  << " connections: " << result.status.to_string() << "\n";
        ok = false;
        break;
      }
      latency.observe(s);
      sum_s += s;
    }
    if (!ok) break;
    const adr::obs::HistogramSnapshot snap = latency.snapshot();
    RampPoint point;
    point.connections = target;
    point.p50_ms = snap.p50() * 1000.0;
    point.p99_ms = snap.p99() * 1000.0;
    point.mean_ms = sum_s / args.probes * 1000.0;
    points.push_back(point);
  }

  const std::uint64_t wakeups =
      adr::obs::metrics().counter("server.epoll_wakeups").value() - wakeups_before;
  const std::uint64_t frames_partial =
      adr::obs::metrics().counter("server.frames_partial").value();

  for (const Holder& h : holders) {
    if (h.ctl >= 0) ::close(h.ctl);  // EOF tells the child to exit
  }
  for (const Holder& h : holders) {
    if (h.pid > 0) ::waitpid(h.pid, nullptr, 0);
  }
  server.stop();
  if (!ok) return 1;

  adr::Table table({"idle conns", "probe p50 ms", "probe p99 ms", "mean ms"});
  for (const auto& p : points) {
    table.add_row({std::to_string(p.connections), adr::fmt(p.p50_ms, 2),
                   adr::fmt(p.p99_ms, 2), adr::fmt(p.mean_ms, 2)});
  }
  std::cout << "accept-to-reply latency vs parked idle connections ("
            << args.probes << " probes per point, one event-loop thread)\n";
  table.print(std::cout);
  std::cout << "loop wakeups during ramp: " << wakeups
            << ", partial frames seen: " << frames_partial << "\n";

  const double base_p99 = points.front().p99_ms;
  const double top_p99 = points.back().p99_ms;
  const double ratio = base_p99 > 0.0 ? top_p99 / base_p99 : 1.0;

  std::ofstream json(args.out_path);
  json << "{\n  \"bench\": \"connections\",\n"
       << "  \"probes_per_point\": " << args.probes << ",\n"
       << "  \"max_connections\": " << args.max_conns << ",\n"
       << "  \"loop_wakeups\": " << wakeups << ",\n"
       << "  \"ramp\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    json << "    {\"connections\": " << p.connections
         << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
         << ", \"mean_ms\": " << p.mean_ms << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"p99_ratio_top_over_base\": " << ratio << "\n}\n";
  std::cout << "wrote " << args.out_path << "\n";

  // The acceptance bar: parking 100x more idle connections must not
  // move the serving path's tail by more than 2x.
  if (args.check && ratio > 2.0) {
    std::cerr << "bench: p99 grew " << ratio << "x from "
              << points.front().connections << " to "
              << points.back().connections << " connections (bar: 2x)\n";
    return 1;
  }
  return 0;
}
