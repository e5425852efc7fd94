// Load generators: open-loop panning (browse, ingest_mix reads), a
// closed-loop scan, the ingest_mix writer, and the burst enqueuer.
// Together they never use more than four threads or four connections.
#include <atomic>
#include <thread>

#include "e2e.hpp"
#include "net/client.hpp"

namespace e2e {
namespace {

// Requests/s over 4 connections.  At 4,000, browse segments read p50
// 0.12 or 0.17 ms and little in between (README.md).
constexpr double kBrowseRate = 8000.0;
constexpr int kBrowseConns = 4;
constexpr double kIngestReadRate = 2000.0;  // requests/s over 3 connections
constexpr int kIngestReadConns = 3;
constexpr double kPutRate = 100.0;          // puts/s
constexpr int kPutsPerNewSlide = 200;       // a new slide every 2 s
constexpr int kScanConns = 2;
constexpr double kBurstPeriod = 0.5;        // s between bursts

Clock::time_point at(Clock::time_point base, double seconds) {
  return base + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// One generator thread's findings, merged after the join.
struct Local {
  std::vector<Sample> samples;
  std::vector<double> put_s;
  double max_late_s = 0.0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;

  void mismatch(std::string what) {
    if (mismatches++ == 0) first_mismatch = std::move(what);
  }
};

struct Context {
  Stack& stack;
  std::uint64_t seed;
  const RunClock& clock;
};

/// Submits through `client` (reconnecting after a transport loss, which
/// counts as a failed request); true when the reply is ok.  `done` is
/// when the reply arrived: checking it against the reference reducer
/// comes after and is not timed.
bool submit_checked(const Context& ctx, std::unique_ptr<adr::net::AdrClient>& client,
                    std::uint16_t port, const Box& box, Local& local, Clock::time_point& done) {
  try {
    if (!client) client = std::make_unique<adr::net::AdrClient>(port);
    const adr::net::WireResult r = client->submit(ctx.stack.query(box));
    done = Clock::now();
    if (!r.ok()) {
      if (!client->connected()) client.reset();
      return false;
    }
    if (!ctx.stack.grid->check(box, r.outputs)) {
      local.mismatch("reply differs from the reference reducer");
    }
    return true;
  } catch (const std::exception&) {
    done = Clock::now();
    client.reset();
    return false;
  }
}

/// One open-loop connection: request i of connection c is due at
/// warm_start + (c + i * conns) / rate, so all connections together send
/// evenly spaced requests; latency runs from the due time.
void open_loop(const Context& ctx, int conn, int conns, double rate, Local& local) {
  Walk walk(ctx.seed, conn);
  std::unique_ptr<adr::net::AdrClient> client;
  const std::uint16_t port = ctx.stack.router->port();
  for (std::uint64_t i = 0;; ++i) {
    const auto due = at(ctx.clock.warm_start, (conn + double(i) * conns) / rate);
    if (due >= ctx.clock.measure_end) break;
    std::this_thread::sleep_until(due);
    const Box box = walk.next();
    const double late = seconds_between(due, Clock::now());
    Clock::time_point done;
    const bool ok = submit_checked(ctx, client, port, box, local, done);
    if (due < ctx.clock.measure_start) continue;
    local.max_late_s = std::max(local.max_late_s, late);
    local.samples.push_back({ctx.clock.since_measure(due), ctx.clock.since_measure(done), ok});
  }
}

/// One closed-loop scan connection: takes the next distinct window as
/// soon as its previous reply arrived.
void closed_loop(const Context& ctx, const std::vector<Box>& windows,
                 std::atomic<std::size_t>& next, Local& local) {
  std::unique_ptr<adr::net::AdrClient> client;
  const std::uint16_t port = ctx.stack.router->port();
  while (true) {
    const auto sent = Clock::now();
    if (sent >= ctx.clock.measure_end) break;
    const std::size_t i = next.fetch_add(1);
    if (i >= windows.size()) {
      local.mismatch("scan ran out of distinct windows");
      break;
    }
    Clock::time_point done;
    const bool ok = submit_checked(ctx, client, port, windows[i], local, done);
    if (sent < ctx.clock.measure_start) continue;
    local.samples.push_back({ctx.clock.since_measure(sent), ctx.clock.since_measure(done), ok});
  }
}

/// ingest_mix's writer: puts a permuted copy of a random slide chunk
/// and loads a new 16x16-chunk slide every kPutsPerNewSlide puts.
void writer_loop(const Context& ctx, Local& local) {
  adr::Rng rng(adr::mix_seed(ctx.seed, 0x77726974ull));
  adr::Repository& repo = *ctx.stack.repo;
  for (std::uint64_t i = 0;; ++i) {
    const auto due = at(ctx.clock.warm_start, double(i) / kPutRate);
    if (due >= ctx.clock.measure_end) break;
    std::this_thread::sleep_until(due);
    if (i > 0 && i % kPutsPerNewSlide == 0) {
      const Grid tile = make_tile(adr::mix_seed(ctx.seed, i));
      repo.create_dataset("tile-" + std::to_string(i), tile.domain(), tile.input_chunks());
    }
    adr::Chunk chunk = ctx.stack.permuted_chunk(rng);
    const auto t0 = Clock::now();
    repo.store().put(std::move(chunk));
    const double put_s = seconds_between(t0, Clock::now());
    if (due >= ctx.clock.measure_start) local.put_s.push_back(put_s);
  }
}

/// burst: every kBurstPeriod, enqueue one burst's windows on lanes
/// 1..8 of the in-process submission service, then collect them.
/// Latency runs from the burst's due time to each ticket's completion.
void burst_loop(const Context& ctx, Local& local) {
  adr::QuerySubmissionService& service = *ctx.stack.service;
  const std::vector<Burst> all = bursts(ctx.seed);
  for (std::size_t b = 0;; ++b) {
    const auto due = at(ctx.clock.warm_start, double(b) * kBurstPeriod);
    if (due >= ctx.clock.measure_end) break;
    if (b >= all.size()) {
      local.mismatch("burst ran out of distinct centres");
      break;
    }
    // Queries are built before the due time so the burst reaches the
    // queue back to back, as one refresh would.
    std::array<adr::Query, kBurstSize> queries;
    for (int k = 0; k < kBurstSize; ++k) {
      queries[static_cast<std::size_t>(k)] = ctx.stack.query(all[b][static_cast<std::size_t>(k)]);
    }
    std::this_thread::sleep_until(due);
    const double late = seconds_between(due, Clock::now());
    std::array<std::uint64_t, kBurstSize> tickets{};
    for (int k = 0; k < kBurstSize; ++k) {
      tickets[static_cast<std::size_t>(k)] = service.enqueue(
          std::move(queries[static_cast<std::size_t>(k)]), {}, static_cast<std::uint64_t>(k + 1));
    }
    for (int k = 0; k < kBurstSize; ++k) {
      const std::uint64_t ticket = tickets[static_cast<std::size_t>(k)];
      adr::QuerySubmissionService::Outcome outcome = service.take(ticket);
      Clock::time_point done;
      {
        std::unique_lock lock(ctx.stack.done_mutex);
        ctx.stack.done_cv.wait(lock, [&] { return ctx.stack.done_at.contains(ticket); });
        done = ctx.stack.done_at.at(ticket);
        ctx.stack.done_at.erase(ticket);
      }
      const Box& box = all[b][static_cast<std::size_t>(k)];
      if (outcome.ok() && !ctx.stack.grid->check(box, outcome.result.outputs)) {
        local.mismatch("burst result differs from the reference reducer");
      }
      if (due < ctx.clock.measure_start) continue;
      local.samples.push_back(
          {ctx.clock.since_measure(due), ctx.clock.since_measure(done), outcome.ok()});
    }
    if (due >= ctx.clock.measure_start) local.max_late_s = std::max(local.max_late_s, late);
  }
}

/// Runs each body on its own thread, runs `monitor` on this one, joins,
/// and merges what the threads found.
LoadResult run_threads(const std::vector<std::function<void(Local&)>>& bodies,
                       const std::function<void()>& monitor) {
  std::vector<Local> locals(bodies.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        bodies[i](locals[i]);
      } catch (const std::exception& e) {
        locals[i].mismatch(std::string("generator failed: ") + e.what());
      }
    });
  }
  monitor();
  for (std::thread& t : threads) t.join();

  LoadResult out;
  for (Local& l : locals) {
    out.samples.insert(out.samples.end(), l.samples.begin(), l.samples.end());
    out.put_s.insert(out.put_s.end(), l.put_s.begin(), l.put_s.end());
    out.max_late_s = std::max(out.max_late_s, l.max_late_s);
    if (l.mismatches > 0 && out.mismatches == 0) out.first_mismatch = l.first_mismatch;
    out.mismatches += l.mismatches;
  }
  return out;
}

/// browse's cache fill: every viewport position once, through the
/// router, so the measured window sees the steady state of a long
/// session (every partial cached) instead of a hit ratio still climbing.
LoadResult fill_viewports(const Context& ctx) {
  std::vector<std::function<void(Local&)>> bodies;
  for (int c = 0; c < kBrowseConns; ++c) {
    bodies.push_back([&ctx, c](Local& l) {
      std::unique_ptr<adr::net::AdrClient> client;
      int i = 0;
      for (int y = 0; y <= kSlideSide - kViewport; ++y) {
        for (int x = 0; x <= kSlideSide - kViewport; ++x) {
          if (i++ % kBrowseConns != c) continue;
          const Box box{x, x + kViewport, y, y + kViewport, 0, 1};
          Clock::time_point done;
          if (!submit_checked(ctx, client, ctx.stack.router->port(), box, l, done)) {
            l.mismatch("cache fill query failed");
          }
        }
      }
    });
  }
  return run_threads(bodies, [] {});
}

}  // namespace

LoadResult run_load(Workload w, Stack& stack, std::uint64_t seed, double warmup_s,
                    double measure_s, const std::function<void(const RunClock&)>& monitor) {
  RunClock clock;
  const Context ctx{stack, seed, clock};
  LoadResult fill;
  if (w == Workload::kBrowse) fill = fill_viewports(ctx);

  clock.warm_start = Clock::now();
  clock.measure_start = at(clock.warm_start, warmup_s);
  clock.measure_end = at(clock.measure_start, measure_s);
  std::vector<std::function<void(Local&)>> bodies;
  const std::vector<Box> windows = w == Workload::kScan ? scan_windows(seed) : std::vector<Box>{};
  std::atomic<std::size_t> next_window{0};
  switch (w) {
    case Workload::kBrowse:
      for (int c = 0; c < kBrowseConns; ++c) {
        bodies.push_back([&, c](Local& l) { open_loop(ctx, c, kBrowseConns, kBrowseRate, l); });
      }
      break;
    case Workload::kScan:
      for (int c = 0; c < kScanConns; ++c) {
        bodies.push_back([&](Local& l) { closed_loop(ctx, windows, next_window, l); });
      }
      break;
    case Workload::kIngestMix:
      for (int c = 0; c < kIngestReadConns; ++c) {
        bodies.push_back(
            [&, c](Local& l) { open_loop(ctx, c, kIngestReadConns, kIngestReadRate, l); });
      }
      bodies.push_back([&](Local& l) { writer_loop(ctx, l); });
      break;
    case Workload::kBurst:
      bodies.push_back([&](Local& l) { burst_loop(ctx, l); });
      break;
  }
  LoadResult out = run_threads(bodies, [&] { monitor(clock); });
  if (fill.mismatches > 0 && out.mismatches == 0) out.first_mismatch = fill.first_mismatch;
  out.mismatches += fill.mismatches;
  return out;
}

}  // namespace e2e
