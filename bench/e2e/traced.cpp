// The traced run (--trace 1): per-layer counters over a measured load
// window, then a one-at-a-time replay of the workload's first queries
// along successively shorter paths —
//
//   routed submit  ->  direct-to-backend submit  ->  in-process
//   Repository::submit  ->  select + plan  ->  wire codec  ->
//   store().get on the selected chunks  ->  aggregate on one payload
//
// — so each layer's self time is the difference between adjacent paths.
// Spans are recorded here, around calls into each layer's public API;
// nothing inside the library is instrumented for the benchmark.
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/planner/planner.hpp"
#include "e2e.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "storage/disk_store.hpp"

namespace e2e {
namespace {

constexpr std::size_t kReplayQueries = 500;
constexpr std::size_t kGetSamples = 32;  // store().get calls timed per query
constexpr int kPutSamples = 32;

struct Span {
  std::string name;
  std::uint64_t qid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  /// 1 = bench-side spans (one row per query), 2 = engine phase spans
  /// (one row per node).
  int pid = 1;
  std::uint32_t tid = 0;
  std::string parent;
  int tile = -1;
};

/// Monotonic counters read at both ends of the measured window.
struct Counters {
  adr::MarginalCacheStats marginal;
  adr::ChunkCacheStats chunk;
  adr::ThreadExecutorPool::Stats pool;
  std::uint64_t refused = 0;
  std::uint64_t queries = 0;
  std::uint64_t cold_bytes = 0;
  std::uint64_t gangs = 0;
  std::uint64_t members = 0;
  std::uint64_t shared_hits = 0;
  std::uint64_t wait_count = 0;
  double wait_sum_s = 0.0;
};

Counters read_counters(const Stack& s) {
  Counters c;
  c.marginal = s.repo->marginal_cache_stats();
  c.chunk = s.repo->chunk_cache_stats();
  c.pool = s.repo->executor_pool_stats();
  c.refused = s.server->queries_refused();
  const adr::obs::MetricsSnapshot snap = adr::obs::metrics().snapshot();
  auto counter = [&](const char* name) -> std::uint64_t {
    const std::uint64_t* v = snap.counter(name);
    return v != nullptr ? *v : 0;
  };
  c.queries = counter("query.cost.queries");
  c.cold_bytes = counter("query.cost.cold_bytes");
  c.gangs = counter("batch.gangs");
  c.members = counter("batch.members");
  c.shared_hits = counter("batch.shared_hits");
  if (const adr::obs::HistogramSnapshot* h = snap.histogram("scheduler.queue_wait_s")) {
    c.wait_count = h->count;
    c.wait_sum_s = h->sum;
  }
  return c;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// One replayed query's path times in seconds.
struct Replayed {
  double routed = 0, direct = 0, inproc = 0, exec = 0, exec_traced = 0;
  double select = 0, plan = 0;
  double encode_query = 0, decode_query = 0, encode_result = 0, decode_result = 0;
  /// Executor wall time inside the in-process path (0 when every output
  /// chunk was served from cached partials).
  double inproc_exec = 0;
  bool executed = false;
  std::size_t result_bytes = 0;
  std::size_t selected_inputs = 0;
  int tiles = 0;
  /// Stats of the forced-execution path.
  adr::ExecStats stats;

  double wire() const { return encode_query + decode_query + encode_result + decode_result; }
  double plan_used() const { return executed ? plan : 0.0; }
  double unattributed() const { return inproc - select - plan_used() - inproc_exec; }
};

adr::PlanRequest plan_request(const Stack& s, const adr::Dataset& in, const adr::Dataset& out,
                              const adr::AggregationOp* op, const adr::Query& q) {
  adr::PlanRequest r;
  r.input = &in;
  r.output = &out;
  r.range = q.range;
  r.op = op;
  r.num_nodes = s.config.num_nodes;
  r.disks_per_node = s.config.disks_per_node;
  r.memory_per_node = s.config.memory_per_node;
  r.strategy = q.strategy;
  r.order = q.tiling_order;
  r.seed = q.seed;
  return r;
}

class Replayer {
 public:
  Replayer(Workload w, Stack& s, WorkloadResult& result)
      : w_(w), s_(s), result_(result), base_(Clock::now()) {}

  std::vector<Replayed> run(const std::vector<Box>& seq, Clock::time_point deadline);
  std::vector<double> get_hit_s, get_cold_s;
  std::vector<Span> spans;

 private:
  double us(Clock::time_point t) const { return seconds_between(base_, t) * 1e6; }
  template <typename Fn>
  double timed(const char* name, std::uint64_t qid, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans.push_back({name, qid, us(t0), us(t1) - us(t0), 1, static_cast<std::uint32_t>(qid), "", -1});
    return seconds_between(t0, t1);
  }
  void check(const Box& box, bool ok, const std::vector<adr::Chunk>& outputs) {
    ++result_.attempted;
    if (!ok) {
      ++result_.failed;
    } else if (!s_.grid->check(box, outputs) && result_.mismatch.empty()) {
      result_.mismatch = "replayed reply differs from the reference reducer";
    }
  }

  Workload w_;
  Stack& s_;
  WorkloadResult& result_;
  Clock::time_point base_;
};

std::vector<Replayed> Replayer::run(const std::vector<Box>& seq, Clock::time_point deadline) {
  adr::Repository& repo = *s_.repo;
  const adr::Dataset& in = repo.dataset(s_.input_id);
  const adr::Dataset& out = repo.dataset(s_.output_id);
  const adr::AggregationOp* op = repo.aggregations().find("sum-count-max");
  adr::net::AdrClient routed(s_.router->port());
  adr::net::AdrClient direct(s_.server->port());
  // A second handle on the farm's files reads around the chunk cache:
  // exactly the fetch a cache miss pays.
  const adr::FileChunkStore cold(s_.dir, s_.config.total_disks(), /*open_existing=*/true);
  // Rewriting one input chunk unchanged bumps the input's data version,
  // so every cached partial becomes unreachable and the next submit
  // executes.
  const adr::ChunkMeta& m0 = s_.input_meta[0];
  const adr::Chunk first = *repo.store().get(m0.disk, m0.id);
  auto reset_marginals = [&] { repo.store().put(first); };
  // browse and ingest_mix are served mostly from cached partials, scan
  // and burst never: each path replays in its workload's usual state.
  const bool served = w_ == Workload::kBrowse || w_ == Workload::kIngestMix;

  std::vector<Replayed> out_rows;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0 && Clock::now() >= deadline) break;
    const Box& box = seq[i];
    const std::uint64_t qid = i + 1;
    const adr::Query q = s_.query(box);
    Replayed r;

    // Untimed: every timed path then sees this query's chunks cached.
    repo.submit(q);

    adr::net::WireResult rr, dr;
    if (!served) reset_marginals();
    r.routed = timed("routed", qid, [&] { rr = routed.submit(q); });
    check(box, rr.ok(), rr.outputs);
    if (!served) reset_marginals();
    r.direct = timed("direct", qid, [&] { dr = direct.submit(q); });
    check(box, dr.ok(), dr.outputs);
    if (!served) reset_marginals();
    adr::QueryResult ir;
    r.inproc = timed("inproc", qid, [&] { ir = repo.submit(q); });
    check(box, true, ir.outputs);
    r.inproc_exec = ir.stats.total_s;
    r.executed = ir.marginal_misses > 0;

    reset_marginals();
    adr::QueryResult xr;
    r.exec = timed("exec", qid, [&] { xr = repo.submit(q); });
    r.stats = xr.stats;
    reset_marginals();
    adr::ExecOptions traced;
    traced.record_trace = true;
    adr::QueryResult tr;
    r.exec_traced = timed("exec_traced", qid, [&] { tr = repo.submit(q, {}, traced); });
    // Phase spans are on the executor's clock; execution ends the submit.
    const double exec_base_us = spans.back().start_us + spans.back().dur_us - tr.stats.total_s * 1e6;
    for (const adr::PhaseSpan& p : tr.stats.trace) {
      spans.push_back({adr::phase_name(p.phase), qid, exec_base_us + p.start_s * 1e6,
                       p.duration_s() * 1e6, 2, static_cast<std::uint32_t>(p.node),
                       "exec_traced", p.tile});
    }

    const adr::PlanRequest req = plan_request(s_, in, out, op, q);
    adr::QuerySelection sel;
    r.select = timed("plan.select", qid, [&] { sel = adr::select_query_chunks(req); });
    adr::QuerySelection sel_copy = sel;
    adr::PlannedQuery planned;
    r.plan = timed("plan.plan", qid, [&] { planned = adr::plan_query(req, std::move(sel_copy)); });
    r.selected_inputs = sel.selected_inputs.size();
    r.tiles = planned.plan.num_tiles;

    std::vector<std::byte> qbytes, rbytes;
    adr::net::WireQuery wq;
    adr::net::WireResult back;
    const adr::net::WireResult wr = adr::net::to_wire_result(ir);
    r.encode_query = timed("wire.encode_query", qid, [&] { qbytes = adr::net::encode_query(q); });
    r.decode_query =
        timed("wire.decode_query", qid, [&] { wq = adr::net::decode_query_frame(qbytes); });
    r.encode_result = timed("wire.encode_result", qid, [&] { rbytes = adr::net::encode_result(wr); });
    r.decode_result =
        timed("wire.decode_result", qid, [&] { back = adr::net::decode_result(rbytes); });
    r.result_bytes = rbytes.size();

    // store().get on an even sample of the selected chunks: cached now,
    // confirmed per call by the cache's hit counter; then the same
    // chunks read around the cache.
    const std::size_t stride = std::max<std::size_t>(1, sel.selected_inputs.size() / kGetSamples);
    timed("store.get", qid, [&] {
      for (std::size_t k = 0; k < sel.selected_inputs.size(); k += stride) {
        const adr::ChunkMeta& meta = in.chunk(sel.selected_inputs[k]);
        const std::uint64_t hits0 = repo.chunk_cache_stats().hits;
        const auto t0 = Clock::now();
        const auto c = repo.store().get(meta.disk, meta.id);
        const auto t1 = Clock::now();
        if (c && repo.chunk_cache_stats().hits == hits0 + 1) {
          get_hit_s.push_back(seconds_between(t0, t1));
        }
        const auto t2 = Clock::now();
        const auto d = cold.get(meta.disk, meta.id);
        if (d) get_cold_s.push_back(seconds_between(t2, Clock::now()));
      }
    });
    out_rows.push_back(r);
  }
  return out_rows;
}

/// Nanoseconds per u64 value of AggregationOp::aggregate on one payload.
double aggregate_ns_per_value(const Stack& s) {
  const adr::AggregationOp* op = s.repo->aggregations().find("sum-count-max");
  const adr::ChunkMeta& meta = s.input_meta[0];
  const adr::Chunk chunk = *s.repo->store().get(meta.disk, meta.id);
  const adr::ChunkMeta& out_meta = s.repo->dataset(s.output_id).chunk(0);
  const std::size_t values = chunk.payload().size() / sizeof(std::uint64_t);
  std::vector<double> runs;
  for (int run = 0; run < 5; ++run) {
    std::vector<std::byte> accum = op->initialize(out_meta, nullptr);
    int reps = 0;
    const auto t0 = Clock::now();
    do {
      for (int k = 0; k < 64; ++k) op->aggregate(chunk, out_meta, accum);
      reps += 64;
    } while (seconds_between(t0, Clock::now()) < 2e-3);
    runs.push_back(seconds_between(t0, Clock::now()) * 1e9 / (double(reps) * values));
  }
  return median(runs);
}

/// Latency of repo.store().put of permuted copies of input chunks.
std::vector<double> put_latencies(Stack& s, std::uint64_t seed) {
  adr::Rng rng(adr::mix_seed(seed, 0x707574ull));
  std::vector<double> out;
  for (int i = 0; i < kPutSamples; ++i) {
    adr::Chunk chunk = s.permuted_chunk(rng);
    const auto t0 = Clock::now();
    s.repo->store().put(std::move(chunk));
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

template <typename Fn>
std::vector<double> collect(const std::vector<Replayed>& rows, Fn&& fn) {
  std::vector<double> v;
  v.reserve(rows.size());
  for (const Replayed& r : rows) v.push_back(fn(r));
  return v;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

/// Span names and parents are literals of this file: nothing to escape.
void write_chrome_trace(const std::filesystem::path& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << std::setprecision(3) << std::fixed << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"cat\":\"bench_e2e\",\"ph\":\"X\",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
       << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid << ",\"args\":{\"qid\":" << s.qid
       << ",\"parent\":\"" << s.parent << "\"";
    if (s.tile >= 0) os << ",\"tile\":" << s.tile;
    os << "}}";
  }
  os << "\n]}\n";
}

/// The per-layer table: mean and p50 self time per replayed query.  The
/// mean rows add up to the routed total exactly; the last row is what
/// no timed call accounts for.
std::string layer_table(Workload w, std::uint64_t seed, const std::vector<Replayed>& rows,
                        const std::vector<double>& hit_s, const std::vector<double>& cold_s,
                        double agg_ns) {
  struct Row {
    const char* layer;
    const char* module;
    std::vector<double> v;
  };
  std::vector<Row> table = {
      {"router hop", "net/router", collect(rows, [](auto& r) { return r.routed - r.direct; })},
      {"server + socket", "net/server, net/socket_io",
       collect(rows, [](auto& r) { return r.direct - r.inproc - r.wire(); })},
      {"wire codec", "net/wire", collect(rows, [](auto& r) { return r.wire(); })},
      {"plan: select", "core/planner", collect(rows, [](auto& r) { return r.select; })},
      {"plan: plan (executed only)", "core/planner",
       collect(rows, [](auto& r) { return r.plan_used(); })},
      {"execute (I+LR+GC+OH)", "core/exec", collect(rows, [](auto& r) { return r.inproc_exec; })},
      {"unattributed remainder", "core/frontend and rest",
       collect(rows, [](auto& r) { return r.unattributed(); })},
  };
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "bench_e2e per-layer self time: " << workload_name(w) << " seed=" << seed << ", "
     << rows.size() << " replayed queries (us per query)\n";
  os << std::left << std::setw(30) << "layer" << std::setw(28) << "module" << std::right
     << std::setw(12) << "mean_us" << std::setw(12) << "p50_us" << "\n";
  double sum = 0.0;
  for (Row& row : table) {
    const double m = mean(row.v) * 1e6;
    sum += m;
    os << std::left << std::setw(30) << row.layer << std::setw(28) << row.module << std::right
       << std::setw(12) << m << std::setw(12) << median(row.v) * 1e6 << "\n";
  }
  const std::vector<double> routed = collect(rows, [](auto& r) { return r.routed; });
  os << std::left << std::setw(58) << "sum of rows" << std::right << std::setw(12) << sum << "\n";
  os << std::left << std::setw(58) << "routed end to end" << std::right << std::setw(12)
     << mean(routed) * 1e6 << std::setw(12) << median(routed) * 1e6 << "\n\n";
  os << "forced execution (p50 ms per phase): ";
  const char* names[] = {"init", "lr", "gc", "oh"};
  for (int p = 0; p < 4; ++p) {
    os << names[p] << '=' << std::setprecision(3)
       << median(collect(rows, [p](auto& r) {
            const double ph[] = {r.stats.phase_init_s, r.stats.phase_lr_s, r.stats.phase_gc_s,
                                 r.stats.phase_oh_s};
            return ph[p] * 1e3;
          }))
       << ' ';
  }
  os << "\nnested in local reduction: store get p50 chunk-cache hit " << std::setprecision(2)
     << median(hit_s) * 1e6 << " us (n=" << hit_s.size() << "), cold " << median(cold_s) * 1e6
     << " us (n=" << cold_s.size() << "); aggregate " << agg_ns << " ns/value\n";
  return os.str();
}

}  // namespace

WorkloadResult run_traced(Workload w, const TracedOptions& o) {
  WorkloadResult result;
  result.workload = w;
  const Grid grid = make_grid(w, o.seed);
  SetupTimes times;
  TempDir scratch(o.workdir);
  std::unique_ptr<Stack> stack = build_stack(w, grid, scratch.subdir(), times);

  // Counters over a measured load window (warm-up first, as in the
  // timed run), then the replay for the rest of the run's time.
  const double load_s = std::max(1.0, 0.4 * o.seconds);
  Counters before, after;
  const LoadResult load = run_load(w, *stack, o.seed, 2.0, load_s, [&](const RunClock& clock) {
    std::this_thread::sleep_until(clock.measure_start);
    before = read_counters(*stack);
    std::this_thread::sleep_until(clock.measure_end);
    after = read_counters(*stack);
  });
  for (const Sample& smp : load.samples) {
    ++result.attempted;
    if (!smp.ok) ++result.failed;
  }
  if (load.mismatches > 0) result.mismatch = load.first_mismatch;

  const auto replay_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(std::max(1.0, o.seconds - load_s)));
  Replayer replayer(w, *stack, result);
  const std::vector<Replayed> rows =
      replayer.run(replay_sequence(w, o.seed, kReplayQueries), replay_deadline);
  const double agg_ns = aggregate_ns_per_value(*stack);
  const std::vector<double> puts = put_latencies(*stack, o.seed);
  result.correct = result.mismatch.empty();

  auto p50 = [&](auto&& fn) { return median(collect(rows, fn)); };
  const double exec_p50 = p50([](auto& r) { return r.exec; });
  const double queries = double(after.queries - before.queries);
  auto add = [&](const char* name, const char* unit, double value) {
    Metric m;
    m.name = name;
    m.unit = unit;
    m.value = std::isfinite(value) ? value : 0.0;
    m.n = rows.size();
    result.metrics.push_back(m);
  };
  add("router.hop_us", "us", p50([](auto& r) { return r.routed - r.direct; }) * 1e6);
  add("server.rtt_us", "us", p50([](auto& r) { return r.direct - r.inproc - r.wire(); }) * 1e6);
  add("server.refused", "count", double(after.refused - before.refused));
  add("wire.encode_query_us", "us", p50([](auto& r) { return r.encode_query; }) * 1e6);
  add("wire.decode_query_us", "us", p50([](auto& r) { return r.decode_query; }) * 1e6);
  add("wire.encode_result_us", "us", p50([](auto& r) { return r.encode_result; }) * 1e6);
  add("wire.decode_result_us", "us", p50([](auto& r) { return r.decode_result; }) * 1e6);
  add("wire.result_bytes", "bytes", p50([](auto& r) { return double(r.result_bytes); }));
  add("sched.queue_wait_mean_ms", "ms",
      ratio(after.wait_sum_s - before.wait_sum_s, double(after.wait_count - before.wait_count)) *
          1e3);
  add("sched.gang_size_mean", "count",
      ratio(double(after.members - before.members), double(after.gangs - before.gangs)));
  add("sched.shared_hits_per_query", "count",
      ratio(double(after.shared_hits - before.shared_hits), queries));
  add("pool.executors_created", "count", double(after.pool.created - before.pool.created));
  add("plan.select_us", "us", p50([](auto& r) { return r.select; }) * 1e6);
  add("plan.plan_us", "us", p50([](auto& r) { return r.plan; }) * 1e6);
  add("plan.selected_inputs", "count", p50([](auto& r) { return double(r.selected_inputs); }));
  add("plan.tiles", "count", p50([](auto& r) { return double(r.tiles); }));
  const double m_hits = double(after.marginal.hits - before.marginal.hits);
  const double m_misses = double(after.marginal.misses - before.marginal.misses);
  add("marginal.hit_ratio", "ratio", ratio(m_hits, m_hits + m_misses));
  add("marginal.invalidations", "count",
      double(after.marginal.invalidations - before.marginal.invalidations));
  add("marginal.evictions", "count", double(after.marginal.evictions - before.marginal.evictions));
  add("exec.init_ms", "ms", p50([](auto& r) { return r.stats.phase_init_s; }) * 1e3);
  add("exec.lr_ms", "ms", p50([](auto& r) { return r.stats.phase_lr_s; }) * 1e3);
  add("exec.gc_ms", "ms", p50([](auto& r) { return r.stats.phase_gc_s; }) * 1e3);
  add("exec.oh_ms", "ms", p50([](auto& r) { return r.stats.phase_oh_s; }) * 1e3);
  add("exec.lr_us_per_chunk", "us", p50([](auto& r) {
        std::uint64_t reads = 0;
        for (const adr::NodeStats& n : r.stats.nodes) reads += n.chunks_read;
        return ratio(r.stats.phase_lr_s, double(reads));
      }) * 1e6);
  add("exec.cpu_util", "ratio", p50([&](auto& r) {
        return ratio(r.stats.thread_cpu_s, r.stats.total_s * stack->config.num_nodes);
      }));
  add("agg.ns_per_value", "ns", agg_ns);
  const double c_hits = double(after.chunk.hits - before.chunk.hits);
  const double c_misses = double(after.chunk.misses - before.chunk.misses);
  add("chunk_cache.hit_ratio", "ratio", ratio(c_hits, c_hits + c_misses));
  add("chunk_cache.get_hit_us", "us", median(replayer.get_hit_s) * 1e6);
  add("chunk_cache.evictions", "count", double(after.chunk.evictions - before.chunk.evictions));
  add("store.get_cold_us", "us", median(replayer.get_cold_s) * 1e6);
  add("store.cold_bytes_per_query", "bytes",
      ratio(double(after.cold_bytes - before.cold_bytes), queries));
  add("store.put_us", "us", median(puts) * 1e6);
  add("load.mb_per_s", "MB/s", ratio(double(grid.input_bytes()) / 1e6, times.load_s));
  add("trace.unattributed_us", "us", p50([](auto& r) { return r.unattributed(); }) * 1e6);
  add("trace.overhead_pct", "%",
      ratio(p50([](auto& r) { return r.exec_traced; }) - exec_p50, exec_p50) * 100.0);
  add("gen.max_late_ms", "ms", load.max_late_s * 1e3);

  std::filesystem::create_directories(o.artifacts);
  const std::string stem = std::string(workload_name(w)) + "-" + std::to_string(o.seed);
  write_chrome_trace(o.artifacts / ("trace-" + stem + ".json"), replayer.spans);
  const std::string table =
      layer_table(w, o.seed, rows, replayer.get_hit_s, replayer.get_cold_s, agg_ns);
  std::ofstream(o.artifacts / ("layers-" + stem + ".txt")) << table;
  std::cout << table << "trace: " << (o.artifacts / ("trace-" + stem + ".json")).string()
            << "\n";
  return result;
}

}  // namespace e2e
