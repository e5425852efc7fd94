// Submit throughput: cold vs warm queries/sec on the thread backend over
// a file-backed disk farm, with and without the cross-query chunk cache.
// Emits BENCH_submit_throughput.json for CI artifacts.
//
// Cold = the first submit against a fresh repository (spawns node
// threads, reads every chunk from its disk file).  Warm = the average of
// the following --iters identical submits (warm executor from the pool,
// hot cache when it is on).
//
// An overlapping-range section ablates the marginal cache: sliding
// windows aligned to output-chunk boundaries, marginal cache on vs a
// byte-cache-only baseline, reporting warm qps, marginal-hit rate, and
// the cold reads / aggregate pairs the cached partials eliminate.
//
// Also reports per-config warm-submit p50/p99 latency (through an
// obs::Histogram, the same quantile math the stats endpoint serves) and
// writes a Chrome trace_event file (--trace-out, default
// BENCH_submit_trace.json) from a traced scheduler section — open it in
// Perfetto (ui.perfetto.dev) to see queued/planned/execute/phase spans.
//
// flags: --iters=<n> (default 20)  --out=<path>  --trace-out=<path>
//        --nodes=<n>  --help
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/table.hpp"
#include "core/frontend.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace {

using adr::Chunk;
using adr::ChunkMeta;
using adr::Point;
using adr::Query;
using adr::QueryResult;
using adr::Rect;
using adr::Repository;
using adr::RepositoryConfig;

struct Args {
  int iters = 20;
  int nodes = 4;
  /// Overload mode: skip the ablation matrix and instead drive the
  /// submission service at 2x its measured capacity with deadline-
  /// carrying queries, reporting admitted-p99 and shed counts (enforced
  /// exit checks; see docs/scheduling.md).
  bool overload = false;
  std::string out_path = "BENCH_submit_throughput.json";
  std::string trace_path = "BENCH_submit_trace.json";
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--iters=")) {
      args.iters = std::stoi(v);
    } else if (const char* v = value("--nodes=")) {
      args.nodes = std::stoi(v);
    } else if (const char* v = value("--out=")) {
      args.out_path = v;
    } else if (const char* v = value("--trace-out=")) {
      args.trace_path = v;
    } else if (arg == "--overload") {
      args.overload = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --iters=<n> --nodes=<n> --out=<path> "
                   "--trace-out=<path> --overload\n";
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

// 24x24 input chunks of 8 KiB each (~4.5 MiB dataset) over a 4x4 output
// grid: enough real file I/O per query that the chunk cache is visible,
// small enough for a CI smoke run.
constexpr int kInputSide = 24;
constexpr int kOutputSide = 4;
constexpr std::size_t kValuesPerChunk = 1024;  // u64s -> 8 KiB payload

std::vector<Chunk> make_inputs() {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::mt19937_64 rng(42);
  for (int iy = 0; iy < kInputSide; ++iy) {
    for (int ix = 0; ix < kInputSide; ++ix) {
      ChunkMeta meta;
      meta.mbr = cell(domain, kInputSide, ix, iy);
      std::vector<std::uint64_t> vals(kValuesPerChunk);
      for (auto& v : vals) v = rng() % 1000;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> make_outputs() {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < kOutputSide; ++iy) {
    for (int ix = 0; ix < kOutputSide; ++ix) {
      ChunkMeta meta;
      meta.mbr = cell(domain, kOutputSide, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

struct ConfigResult {
  std::string name;
  bool cache = false;
  double cold_qps = 0.0;
  double warm_qps = 0.0;
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
  std::uint64_t warm_cache_hits = 0;
  std::uint64_t executors_created = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

ConfigResult run_config(const Args& args, bool cache,
                        const std::filesystem::path& dir) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = args.nodes;
  cfg.memory_per_node = 4ull << 20;
  cfg.storage_dir = dir;
  cfg.chunk_cache_bytes_per_node = cache ? (64ull << 20) : 0;
  cfg.marginal_cache_bytes = 0;  // this matrix ablates the byte cache
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), make_inputs());
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), make_outputs());

  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  query.range = Rect(Point{0.0, 0.0}, Point{0.999, 0.999});
  query.aggregation = "sum-count-max";
  query.delivery = adr::OutputDelivery::kReturnToClient;

  ConfigResult r;
  r.cache = cache;
  r.name = cache ? "cache" : "nocache";

  auto t0 = std::chrono::steady_clock::now();
  const QueryResult cold = repo.submit(query);
  r.cold_qps = 1.0 / seconds_since(t0);
  if (cold.outputs.empty()) {
    std::cerr << "bench: cold query produced no outputs\n";
    std::exit(1);
  }

  // Per-iteration latencies through the same histogram/quantile machinery
  // the stats endpoint serves (per-config local instance: the process
  // registry is cumulative across configs).
  adr::obs::Histogram warm_lat(adr::obs::default_latency_buckets());
  t0 = std::chrono::steady_clock::now();
  std::uint64_t hits = 0;
  for (int i = 0; i < args.iters; ++i) {
    const auto it0 = std::chrono::steady_clock::now();
    const QueryResult warm = repo.submit(query);
    warm_lat.observe(seconds_since(it0));
    hits += warm.cache_hits;
    if (warm.outputs.size() != cold.outputs.size() ||
        warm.outputs[0].payload() != cold.outputs[0].payload()) {
      std::cerr << "bench: warm result diverged from cold result\n";
      std::exit(1);
    }
  }
  r.warm_qps = args.iters / seconds_since(t0);
  const adr::obs::HistogramSnapshot lat_snap = warm_lat.snapshot();
  r.warm_p50_ms = lat_snap.p50() * 1000.0;
  r.warm_p99_ms = lat_snap.p99() * 1000.0;
  r.warm_cache_hits = hits;
  r.executors_created = repo.executor_pool_stats().created;
  return r;
}

struct OverlapConfigResult {
  double cold_qps = 0.0;
  double warm_qps = 0.0;
  std::uint64_t warm_cold_reads = 0;       // byte-cache misses, warm passes
  std::uint64_t warm_aggregate_pairs = 0;  // local-reduction (in,out) pairs
  std::uint64_t warm_marginal_hits = 0;
  std::uint64_t warm_marginal_misses = 0;
  std::uint64_t first_pass_marginal_hits = 0;
};

struct OverlapResult {
  int windows = 0;
  int passes = 0;
  OverlapConfigResult marginal;  // byte cache + marginal cache
  OverlapConfigResult baseline;  // byte cache only
};

// Overlapping-range workload for the marginal cache: three sliding
// windows of width 0.5 stepping by one output column (0.25), full y
// extent.  Window edges land exactly on output-chunk boundaries, so
// every selected output chunk is fully covered and neighbouring
// windows share the contributing-input sets of their common output
// columns — window i+1 reuses half of window i's partials already in
// the cold pass, and repeat passes are fully served from partials.
// The byte cache is deliberately under-provisioned (128 KiB/node vs a
// ~2.25 MiB per-window working set) so the byte-cache-only baseline
// keeps paying interior-chunk cold reads every pass, the regime the
// marginal cache is for.
OverlapConfigResult run_overlap_config(const Args& args, bool with_marginal,
                                       const std::filesystem::path& dir) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = args.nodes;
  cfg.memory_per_node = 4ull << 20;
  cfg.storage_dir = dir;
  cfg.chunk_cache_bytes_per_node = 128ull << 10;
  cfg.marginal_cache_bytes = with_marginal ? (32ull << 20) : 0;
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), make_inputs());
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), make_outputs());

  std::vector<Query> windows;
  for (int i = 0; i < 3; ++i) {
    Query query;
    query.input_dataset = in;
    query.output_dataset = out;
    const double x0 = 0.25 * i;
    query.range = Rect(Point{x0, 0.0}, Point{x0 + 0.5, 0.999});
    query.aggregation = "sum-count-max";
    query.delivery = adr::OutputDelivery::kReturnToClient;
    windows.push_back(query);
  }

  OverlapConfigResult r;
  std::vector<QueryResult> cold;
  auto t0 = std::chrono::steady_clock::now();
  for (const Query& query : windows) {
    cold.push_back(repo.submit(query));
    r.first_pass_marginal_hits += cold.back().marginal_hits;
  }
  r.cold_qps = windows.size() / seconds_since(t0);

  const int passes = std::max(1, args.iters / 2);
  t0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const QueryResult warm = repo.submit(windows[w]);
      r.warm_cold_reads += warm.cache_misses;
      r.warm_aggregate_pairs += warm.stats.total_lr_pairs();
      r.warm_marginal_hits += warm.marginal_hits;
      r.warm_marginal_misses += warm.marginal_misses;
      if (warm.outputs.size() != cold[w].outputs.size()) {
        std::cerr << "bench: overlap warm output count diverged\n";
        std::exit(1);
      }
      for (std::size_t o = 0; o < warm.outputs.size(); ++o) {
        if (warm.outputs[o].payload() != cold[w].outputs[o].payload()) {
          std::cerr << "bench: overlap warm result diverged from cold\n";
          std::exit(1);
        }
      }
    }
  }
  r.warm_qps = passes * windows.size() / seconds_since(t0);
  return r;
}

OverlapResult run_overlap(const Args& args, const std::filesystem::path& base) {
  OverlapResult r;
  r.windows = 3;
  r.passes = std::max(1, args.iters / 2);
  const auto dir_m = base / "overlap_marginal";
  const auto dir_b = base / "overlap_baseline";
  std::filesystem::create_directories(dir_m);
  std::filesystem::create_directories(dir_b);
  r.marginal = run_overlap_config(args, /*with_marginal=*/true, dir_m);
  r.baseline = run_overlap_config(args, /*with_marginal=*/false, dir_b);
  return r;
}

struct TelemetryOverheadResult {
  double baseline_qps = 0.0;
  double telemetry_qps = 0.0;
  double ratio = 0.0;
};

// The observability-overhead gate: warm submit throughput with the
// telemetry sampler running must stay within 5% of sampler-off baseline.
// The per-query cost ledger is always on, so its cost is already inside
// every other number in this bench; this isolates the sampler thread
// (run here at an aggressive 50 ms period — 20x the default rate — so
// the gate is conservative).  Passes alternate baseline/telemetry and
// take the best of three each, which cancels machine drift.
TelemetryOverheadResult run_telemetry_overhead(const Args& args,
                                               const std::filesystem::path& dir) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = args.nodes;
  cfg.memory_per_node = 4ull << 20;
  cfg.storage_dir = dir;
  cfg.chunk_cache_bytes_per_node = 64ull << 20;
  cfg.marginal_cache_bytes = 0;  // every warm pass does the same real work
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), make_inputs());
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), make_outputs());

  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  query.range = Rect(Point{0.0, 0.0}, Point{0.999, 0.999});
  query.aggregation = "sum-count-max";
  query.delivery = adr::OutputDelivery::kReturnToClient;

  (void)repo.submit(query);  // warm the executor pool and the byte cache

  const auto pass_qps = [&]() {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < args.iters; ++i) (void)repo.submit(query);
    return args.iters / seconds_since(t0);
  };

  TelemetryOverheadResult r;
  adr::obs::TelemetrySampler::Options opts;
  opts.period = std::chrono::milliseconds(50);
  opts.capacity = 300;
  for (int rep = 0; rep < 3; ++rep) {
    r.baseline_qps = std::max(r.baseline_qps, pass_qps());
    adr::obs::sampler().start(opts);
    r.telemetry_qps = std::max(r.telemetry_qps, pass_qps());
    adr::obs::sampler().stop();
  }
  r.ratio = r.baseline_qps > 0.0 ? r.telemetry_qps / r.baseline_qps : 0.0;
  return r;
}

struct OverloadResult {
  int offered = 0;
  double capacity_qps = 0.0;  // serial warm capacity (the service rate)
  double offered_qps = 0.0;   // achieved arrival rate (target: 2x capacity)
  double deadline_ms = 0.0;   // per-query Qos budget
  double bound_ms = 0.0;      // enforced admitted-latency ceiling
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t other_failures = 0;
  double admitted_p50_ms = 0.0;
  double admitted_p99_ms = 0.0;
};

// Sustained-overload mode: measure the warm serial capacity, then offer
// the submission service twice that rate in deadline-carrying queries
// (one worker, so "capacity" means what it measured).  The
// Qos contract under test: excess work is shed with the typed
// kDeadlineExceeded — never silently queued — so the latency of what IS
// admitted stays bounded by the deadline budget plus execution slack
// instead of growing an unbounded FIFO tail.
OverloadResult run_overload(const Args& args, const std::filesystem::path& dir) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = args.nodes;
  cfg.memory_per_node = 4ull << 20;
  cfg.storage_dir = dir;
  cfg.chunk_cache_bytes_per_node = 64ull << 20;
  cfg.marginal_cache_bytes = 0;  // every query does the same real work
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), make_inputs());
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), make_outputs());

  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  query.range = Rect(Point{0.0, 0.0}, Point{0.999, 0.999});
  query.aggregation = "sum-count-max";
  query.delivery = adr::OutputDelivery::kReturnToClient;

  (void)repo.submit(query);  // warm the executor pool and the byte cache
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < args.iters; ++i) (void)repo.submit(query);
  OverloadResult r;
  r.capacity_qps = args.iters / seconds_since(t0);
  const double exec_ms = 1000.0 / r.capacity_qps;
  r.deadline_ms = std::max(4.0 * exec_ms, 50.0);
  // A query may be dispatched just before its deadline and still run to
  // completion, so the ceiling is budget + execution slack.
  r.bound_ms = r.deadline_ms + std::max(500.0, 10.0 * exec_ms);
  // Offer 2x capacity for long enough that the arrival phase spans ~6
  // deadline budgets — the excess accumulates at `capacity_qps` per
  // second of wall time, so the queue tail provably expires.  (Blocking
  // enqueue backpressure at max_pending only adds queue-side wait.)
  const double target_qps = 2.0 * r.capacity_qps;
  r.offered = std::min(
      8000, std::max({40, 2 * args.iters,
                      static_cast<int>(6.0 * (r.deadline_ms / 1000.0) *
                                       target_qps)}));

  adr::QuerySubmissionService service(repo);

  std::mutex done_mutex;
  std::unordered_map<std::uint64_t, std::chrono::steady_clock::time_point> done_at;
  service.set_completion_callback([&](std::uint64_t ticket) {
    std::lock_guard<std::mutex> lk(done_mutex);
    done_at[ticket] = std::chrono::steady_clock::now();
  });
  service.start(1);

  std::vector<std::pair<std::uint64_t, std::chrono::steady_clock::time_point>>
      submitted;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < r.offered; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(i / target_qps)));
    adr::ExecOptions options;
    options.qos = adr::Qos::within(
        std::chrono::milliseconds(static_cast<std::int64_t>(r.deadline_ms)));
    const auto tq = std::chrono::steady_clock::now();
    const auto ticket =
        service.enqueue(query, {}, /*client_id=*/1 + (i % 4), options);
    submitted.emplace_back(ticket, tq);
  }
  service.drain();
  service.stop();
  r.offered_qps = r.offered / seconds_since(start);

  std::vector<double> admitted_ms;
  for (const auto& [ticket, tq] : submitted) {
    const auto outcome = service.take(ticket);
    if (outcome.ok()) {
      ++r.admitted;
      const auto it = done_at.find(ticket);
      if (it != done_at.end()) {
        admitted_ms.push_back(
            std::chrono::duration<double, std::milli>(it->second - tq).count());
      }
    } else if (outcome.status.code == adr::StatusCode::kDeadlineExceeded) {
      ++r.shed;
    } else {
      std::cerr << "bench: unexpected overload outcome: "
                << outcome.status.to_string() << "\n";
      ++r.other_failures;
    }
  }
  if (!admitted_ms.empty()) {
    std::sort(admitted_ms.begin(), admitted_ms.end());
    const auto at = [&](double q) {
      return admitted_ms[std::min(
          admitted_ms.size() - 1,
          static_cast<std::size_t>(admitted_ms.size() * q))];
    };
    r.admitted_p50_ms = at(0.50);
    r.admitted_p99_ms = at(0.99);
  }
  return r;
}

// Overload mode is its own run: report, JSON artifact, enforced checks.
int run_overload_mode(const Args& args) {
  const auto base = std::filesystem::temp_directory_path() /
                    ("adr_bench_overload_" + std::to_string(::getpid()));
  std::filesystem::create_directories(base);
  const OverloadResult r = run_overload(args, base);
  std::filesystem::remove_all(base);

  std::cout << "overload (1 worker, offered 2x capacity, deadline "
            << adr::fmt(r.deadline_ms, 1) << " ms): capacity "
            << adr::fmt(r.capacity_qps, 2) << " qps, offered "
            << adr::fmt(r.offered_qps, 2) << " qps x " << r.offered
            << " queries -> admitted " << r.admitted << " (p50 "
            << adr::fmt(r.admitted_p50_ms, 1) << " ms, p99 "
            << adr::fmt(r.admitted_p99_ms, 1) << " ms, bound "
            << adr::fmt(r.bound_ms, 1) << " ms), shed " << r.shed
            << ", other failures " << r.other_failures << "\n";

  std::ofstream json(args.out_path);
  json << "{\n  \"bench\": \"submit_throughput_overload\",\n"
       << "  \"iters\": " << args.iters << ",\n"
       << "  \"nodes\": " << args.nodes << ",\n"
       << "  \"offered\": " << r.offered << ",\n"
       << "  \"capacity_qps\": " << r.capacity_qps << ",\n"
       << "  \"offered_qps\": " << r.offered_qps << ",\n"
       << "  \"deadline_ms\": " << r.deadline_ms << ",\n"
       << "  \"bound_ms\": " << r.bound_ms << ",\n"
       << "  \"admitted\": " << r.admitted << ",\n"
       << "  \"shed\": " << r.shed << ",\n"
       << "  \"other_failures\": " << r.other_failures << ",\n"
       << "  \"admitted_p50_ms\": " << r.admitted_p50_ms << ",\n"
       << "  \"admitted_p99_ms\": " << r.admitted_p99_ms << "\n}\n";
  std::cout << "wrote " << args.out_path << "\n";

  // Enforced acceptance: every outcome is typed (ok or shed), sustained
  // 2x overload must actually shed, the earliest arrivals must get
  // through, and the admitted p99 stays under the deadline-derived bound.
  if (r.other_failures != 0) {
    std::cerr << "bench: " << r.other_failures
              << " overload queries failed with a code other than "
                 "kDeadlineExceeded\n";
    return 1;
  }
  if (r.shed == 0) {
    std::cerr << "bench: 2x overload shed nothing — deadlines not enforced\n";
    return 1;
  }
  if (r.admitted == 0) {
    std::cerr << "bench: overload admitted nothing\n";
    return 1;
  }
  if (r.admitted_p99_ms > r.bound_ms) {
    std::cerr << "bench: admitted p99 " << adr::fmt(r.admitted_p99_ms, 1)
              << " ms exceeds bound " << adr::fmt(r.bound_ms, 1)
              << " ms (deadline " << adr::fmt(r.deadline_ms, 1) << " ms)\n";
    return 1;
  }
  return 0;
}

// Runs a few queries through the scheduler with tracing on and writes
// the lifecycle spans as a Chrome trace (the CI Perfetto artifact).
void write_trace_sample(const Args& args, const std::filesystem::path& dir) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = args.nodes;
  cfg.memory_per_node = 4ull << 20;
  cfg.storage_dir = dir;
  cfg.chunk_cache_bytes_per_node = 64ull << 20;
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), make_inputs());
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), make_outputs());

  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  query.range = Rect(Point{0.0, 0.0}, Point{0.999, 0.999});
  query.aggregation = "sum-count-max";
  query.delivery = adr::OutputDelivery::kReturnToClient;

  adr::obs::tracer().enable();
  {
    adr::QuerySubmissionService svc(repo);
    svc.start(2);
    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < 6; ++i) tickets.push_back(svc.enqueue(query));
    for (const std::uint64_t t : tickets) {
      if (!svc.take(t).ok()) {
        std::cerr << "bench: traced query failed\n";
        std::exit(1);
      }
    }
    svc.stop();
  }
  std::ofstream trace(args.trace_path);
  adr::obs::tracer().write_chrome_json(trace);
  adr::obs::tracer().disable();
  std::cout << "wrote " << args.trace_path
            << " (open in https://ui.perfetto.dev)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.overload) return run_overload_mode(args);

  const auto base = std::filesystem::temp_directory_path() /
                    ("adr_bench_submit_" + std::to_string(::getpid()));
  std::filesystem::create_directories(base);

  std::vector<ConfigResult> results;
  for (const bool cache : {false, true}) {
    const auto dir = base / (cache ? "cache" : "nocache");
    std::filesystem::create_directories(dir);
    results.push_back(run_config(args, cache, dir));
  }
  const OverlapResult overlap = run_overlap(args, base);
  TelemetryOverheadResult telemetry;
  {
    const auto dir = base / "telemetry";
    std::filesystem::create_directories(dir);
    telemetry = run_telemetry_overhead(args, dir);
  }
  {
    const auto dir = base / "trace";
    std::filesystem::create_directories(dir);
    write_trace_sample(args, dir);
  }
  std::filesystem::remove_all(base);

  adr::Table table({"config", "cold qps", "warm qps", "warm/cold", "p50 ms",
                    "p99 ms", "cache hits", "executors built"});
  for (const auto& r : results) {
    table.add_row({r.name, adr::fmt(r.cold_qps, 2), adr::fmt(r.warm_qps, 2),
                   adr::fmt(r.warm_qps / r.cold_qps, 2),
                   adr::fmt(r.warm_p50_ms, 2), adr::fmt(r.warm_p99_ms, 2),
                   std::to_string(r.warm_cache_hits),
                   std::to_string(r.executors_created)});
  }
  std::cout << "submit throughput (" << args.iters << " warm iters, "
            << args.nodes << " nodes, file-backed store)\n";
  table.print(std::cout);

  const std::uint64_t overlap_lookups =
      overlap.marginal.warm_marginal_hits + overlap.marginal.warm_marginal_misses;
  const double overlap_hit_rate =
      overlap_lookups == 0
          ? 0.0
          : static_cast<double>(overlap.marginal.warm_marginal_hits) /
                static_cast<double>(overlap_lookups);
  std::cout << "overlapping ranges (" << overlap.windows << " windows x "
            << overlap.passes << " warm passes, 128 KiB/node byte cache): "
            << "marginal " << adr::fmt(overlap.marginal.warm_qps, 2) << " qps / "
            << overlap.marginal.warm_cold_reads << " cold reads / "
            << overlap.marginal.warm_aggregate_pairs << " aggregate pairs ("
            << adr::fmt(overlap_hit_rate * 100.0, 1) << "% marginal hits, "
            << overlap.marginal.first_pass_marginal_hits
            << " already in the cold pass), baseline "
            << adr::fmt(overlap.baseline.warm_qps, 2) << " qps / "
            << overlap.baseline.warm_cold_reads << " cold reads / "
            << overlap.baseline.warm_aggregate_pairs << " aggregate pairs\n";

  std::cout << "telemetry overhead (50 ms sampler, best of 3 alternating "
               "passes): baseline "
            << adr::fmt(telemetry.baseline_qps, 2) << " qps, sampler on "
            << adr::fmt(telemetry.telemetry_qps, 2) << " qps ("
            << adr::fmt(telemetry.ratio * 100.0, 1) << "% of baseline)\n";

  std::ofstream json(args.out_path);
  json << "{\n  \"bench\": \"submit_throughput\",\n"
       << "  \"iters\": " << args.iters << ",\n"
       << "  \"nodes\": " << args.nodes << ",\n"
       << "  \"input_chunks\": " << kInputSide * kInputSide << ",\n"
       << "  \"chunk_bytes\": " << kValuesPerChunk * sizeof(std::uint64_t) << ",\n"
       << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"name\": \"" << r.name << "\""
         << ", \"cache\": " << (r.cache ? "true" : "false")
         << ", \"cold_qps\": " << r.cold_qps << ", \"warm_qps\": " << r.warm_qps
         << ", \"warm_over_cold\": " << r.warm_qps / r.cold_qps
         << ", \"warm_p50_ms\": " << r.warm_p50_ms
         << ", \"warm_p99_ms\": " << r.warm_p99_ms
         << ", \"warm_cache_hits\": " << r.warm_cache_hits
         << ", \"executors_created\": " << r.executors_created << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  auto overlap_json = [&](const char* name, const OverlapConfigResult& c) {
    json << "    \"" << name << "\": {\"cold_qps\": " << c.cold_qps
         << ", \"warm_qps\": " << c.warm_qps
         << ", \"warm_cold_reads\": " << c.warm_cold_reads
         << ", \"warm_aggregate_pairs\": " << c.warm_aggregate_pairs
         << ", \"warm_marginal_hits\": " << c.warm_marginal_hits
         << ", \"warm_marginal_misses\": " << c.warm_marginal_misses
         << ", \"first_pass_marginal_hits\": " << c.first_pass_marginal_hits
         << "}";
  };
  json << "  \"overlap\": {\n    \"windows\": " << overlap.windows
       << ", \"passes\": " << overlap.passes
       << ", \"marginal_hit_rate\": " << overlap_hit_rate
       << ", \"warm_speedup\": "
       << (overlap.baseline.warm_qps > 0.0
               ? overlap.marginal.warm_qps / overlap.baseline.warm_qps
               : 0.0)
       << ",\n";
  overlap_json("marginal", overlap.marginal);
  json << ",\n";
  overlap_json("baseline", overlap.baseline);
  json << "\n  },\n  \"telemetry_overhead\": {\"baseline_qps\": "
       << telemetry.baseline_qps << ", \"telemetry_qps\": " << telemetry.telemetry_qps
       << ", \"ratio\": " << telemetry.ratio << "}\n}\n";
  std::cout << "wrote " << args.out_path << "\n";

  // The acceptance bar: with the chunk cache on, warm throughput must
  // clear 1.5x cold.
  const auto& full = results.back();
  if (full.warm_qps < 1.5 * full.cold_qps) {
    std::cerr << "bench: warm qps " << full.warm_qps << " < 1.5x cold "
              << full.cold_qps << "\n";
    return 1;
  }
  // Marginal-cache acceptance: warm throughput on the overlapping-range
  // workload must clear 2x the byte-cache-only baseline, and it must get
  // there by doing strictly less work — fewer interior-chunk cold reads
  // and fewer local-reduction aggregate pairs, not just faster ones.
  if (overlap.marginal.warm_qps < 2.0 * overlap.baseline.warm_qps) {
    std::cerr << "bench: overlap warm qps " << overlap.marginal.warm_qps
              << " < 2x byte-cache-only baseline " << overlap.baseline.warm_qps
              << "\n";
    return 1;
  }
  if (overlap.marginal.warm_cold_reads >= overlap.baseline.warm_cold_reads) {
    std::cerr << "bench: overlap cold reads " << overlap.marginal.warm_cold_reads
              << " not below baseline " << overlap.baseline.warm_cold_reads
              << "\n";
    return 1;
  }
  if (overlap.marginal.warm_aggregate_pairs >=
      overlap.baseline.warm_aggregate_pairs) {
    std::cerr << "bench: overlap aggregate pairs "
              << overlap.marginal.warm_aggregate_pairs << " not below baseline "
              << overlap.baseline.warm_aggregate_pairs << "\n";
    return 1;
  }
  if (overlap.marginal.warm_marginal_hits == 0) {
    std::cerr << "bench: overlap workload produced no marginal hits\n";
    return 1;
  }
  // Observability must be near-free: warm throughput with the sampler
  // running (at 20x its default rate) stays within 5% of baseline.
  if (telemetry.ratio < 0.95) {
    std::cerr << "bench: telemetry overhead too high: sampler-on warm qps "
              << telemetry.telemetry_qps << " is "
              << adr::fmt(telemetry.ratio * 100.0, 1) << "% of baseline "
              << telemetry.baseline_qps << " (gate: >= 95%)\n";
    return 1;
  }
  return 0;
}
