#include "core/frontend.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/query_cost.hpp"
#include "obs/trace.hpp"
#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"
#include "storage/catalog.hpp"
#include "storage/loader.hpp"

namespace adr {
namespace {

// Cumulative process-wide series (metric catalog: docs/observability.md).
// References are resolved once; recording is relaxed-atomic only.

struct SubmitMetrics {
  obs::Counter& count;
  obs::Counter& errors;
  obs::Histogram& latency;
  obs::Histogram& select;
  obs::Histogram& plan;
  /// End-to-end latency split by the strategy the planner chose
  /// (indexed by StrategyKind kFRA..kHybrid).
  std::array<obs::Histogram*, 4> by_strategy;
  /// Executed thread-backend queries' phase times: I, LR, GC, OH.
  std::array<obs::Histogram*, 4> phase;
};

SubmitMetrics& submit_metrics() {
  static SubmitMetrics m{obs::metrics().counter("submit.count"),
                         obs::metrics().counter("submit.errors"),
                         obs::metrics().histogram("submit.latency_s"),
                         obs::metrics().histogram("submit.select_s"),
                         obs::metrics().histogram("submit.plan_s"),
                         {&obs::metrics().histogram("submit.latency_s.fra"),
                          &obs::metrics().histogram("submit.latency_s.sra"),
                          &obs::metrics().histogram("submit.latency_s.da"),
                          &obs::metrics().histogram("submit.latency_s.hybrid")},
                         {&obs::metrics().histogram("exec.phase_init_s"),
                          &obs::metrics().histogram("exec.phase_lr_s"),
                          &obs::metrics().histogram("exec.phase_gc_s"),
                          &obs::metrics().histogram("exec.phase_oh_s")}};
  return m;
}

struct SchedulerMetrics {
  obs::Counter& enqueued;
  obs::Counter& rejected;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& shed;
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;
  obs::Histogram& queue_wait;
};

SchedulerMetrics& scheduler_metrics() {
  static SchedulerMetrics m{obs::metrics().counter("scheduler.enqueued"),
                            obs::metrics().counter("scheduler.rejected"),
                            obs::metrics().counter("scheduler.completed"),
                            obs::metrics().counter("scheduler.failed"),
                            obs::metrics().counter("scheduler.shed"),
                            obs::metrics().gauge("scheduler.queue_depth"),
                            obs::metrics().gauge("scheduler.in_flight"),
                            obs::metrics().histogram("scheduler.queue_wait_s")};
  return m;
}

// Per-query cost ledger rollup (fields: obs/query_cost.hpp): each
// successful submit adds its itemized bill to these process-wide series,
// so aggregate spend by temperature stays queryable after individual
// results are gone.
struct CostMetrics {
  obs::Counter& queries;
  obs::Counter& cold_chunks;
  obs::Counter& cold_bytes;
  obs::Counter& cached_chunks;
  obs::Counter& cached_bytes;
  obs::Counter& marginal_chunks;
  obs::Counter& marginal_bytes_saved;
  obs::Counter& aggregate_pairs;
  obs::Histogram& queue_wait;
  obs::Histogram& exec_wall;
  obs::Histogram& thread_cpu;
};

CostMetrics& cost_metrics() {
  static CostMetrics m{obs::metrics().counter("query.cost.queries"),
                       obs::metrics().counter("query.cost.cold_chunks"),
                       obs::metrics().counter("query.cost.cold_bytes"),
                       obs::metrics().counter("query.cost.cached_chunks"),
                       obs::metrics().counter("query.cost.cached_bytes"),
                       obs::metrics().counter("query.cost.marginal_chunks"),
                       obs::metrics().counter("query.cost.marginal_bytes_saved"),
                       obs::metrics().counter("query.cost.aggregate_pairs"),
                       obs::metrics().histogram("query.cost.queue_wait_s"),
                       obs::metrics().histogram("query.cost.exec_wall_s"),
                       obs::metrics().histogram("query.cost.thread_cpu_s")};
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void record_submit_success(QueryResult& result, double elapsed_s) {
  SubmitMetrics& m = submit_metrics();
  m.count.add();
  m.latency.observe(elapsed_s);
  const int strategy = static_cast<int>(result.strategy);
  if (strategy >= 0 && strategy < static_cast<int>(m.by_strategy.size())) {
    m.by_strategy[static_cast<std::size_t>(strategy)]->observe(elapsed_s);
  }
  // Finalize the cost ledger: fold in the execution stats and the queue
  // wait the scheduler deposited thread-locally, then roll the bill into
  // the query.cost.* series.
  result.cost.aggregate_pairs = result.stats.total_lr_pairs();
  result.cost.exec_wall_s = result.stats.total_s;
  result.cost.thread_cpu_s = result.stats.thread_cpu_s;
  result.cost.queue_wait_s = obs::cost_queue_wait();
  CostMetrics& c = cost_metrics();
  c.queries.add();
  c.cold_chunks.add(result.cost.cold_chunks);
  c.cold_bytes.add(result.cost.cold_bytes);
  c.cached_chunks.add(result.cost.cached_chunks);
  c.cached_bytes.add(result.cost.cached_bytes);
  c.marginal_chunks.add(result.cost.marginal_chunks);
  c.marginal_bytes_saved.add(result.cost.marginal_bytes_saved);
  c.aggregate_pairs.add(result.cost.aggregate_pairs);
  c.queue_wait.observe(result.cost.queue_wait_s);
  c.exec_wall.observe(result.cost.exec_wall_s);
  c.thread_cpu.observe(result.cost.thread_cpu_s);
}

}  // namespace

Repository::Repository(const RepositoryConfig& config) : config_(config) {
  if (config_.num_nodes < 1 || config_.disks_per_node < 1) {
    throw std::invalid_argument("Repository: bad machine shape");
  }
  if (config_.storage_dir.empty()) {
    store_ = std::make_unique<MemoryChunkStore>(config_.total_disks());
  } else {
    store_ = std::make_unique<FileChunkStore>(
        config_.storage_dir, config_.total_disks(), config_.open_existing);
  }
  // The chunk cache serves the real (thread) backend: repeated queries
  // over warm regions and FRA tile-boundary re-reads stop paying storage
  // latency.  The simulated backend charges modelled I/O times that a
  // real cache must not short-circuit.
  if (config_.backend == RepositoryConfig::Backend::kThreads &&
      config_.chunk_cache_bytes_per_node > 0) {
    const std::uint64_t per_disk = std::max<std::uint64_t>(
        1, config_.chunk_cache_bytes_per_node /
               static_cast<std::uint64_t>(config_.disks_per_node));
    cache_ = std::make_unique<CachingChunkStore>(*store_, per_disk);
  }
  // The marginal cache reuses *aggregates* where the chunk cache reuses
  // bytes; it needs real payloads to have real partials, and like the
  // chunk cache it must not short-circuit the simulated backend's
  // modelled I/O.
  if (config_.backend == RepositoryConfig::Backend::kThreads &&
      config_.store_payloads && config_.marginal_cache_bytes > 0) {
    marginal_cache_ = std::make_unique<MarginalCache>(config_.marginal_cache_bytes);
    // Route every store write through the invalidating decorator so
    // out-of-band put/erase (repo.store() callers) bump data versions
    // just like query write-back does — no stale partial survives a
    // visible payload change.
    invalidating_store_ = std::make_unique<MarginalInvalidatingStore>(
        cache_ ? static_cast<ChunkStore&>(*cache_) : *store_, *marginal_cache_);
  }
  if (config_.backend == RepositoryConfig::Backend::kThreads) {
    executor_pool_ = std::make_unique<ThreadExecutorPool>(
        config_.num_nodes, config_.disks_per_node, &active_store());
  }
}

ChunkCacheStats Repository::chunk_cache_stats() const {
  return cache_ ? cache_->stats() : ChunkCacheStats{};
}

MarginalCacheStats Repository::marginal_cache_stats() const {
  return marginal_cache_ ? marginal_cache_->stats() : MarginalCacheStats{};
}

ThreadExecutorPool::Stats Repository::executor_pool_stats() const {
  return executor_pool_ ? executor_pool_->stats() : ThreadExecutorPool::Stats{};
}

std::uint32_t Repository::create_dataset(const std::string& name, const Rect& domain,
                                         std::vector<Chunk> chunks,
                                         DeclusterMethod method) {
  std::unique_lock lock(catalog_mutex_);
  const std::uint32_t id = next_dataset_id_++;
  LoadOptions options;
  options.decluster.method = method;
  options.decluster.num_disks = config_.total_disks();
  options.store_payloads = config_.store_payloads;
  Dataset ds = load_dataset(id, name, domain, std::move(chunks), active_store(), options);
  ADR_INFO("loaded dataset '" << name << "' id=" << id << " chunks=" << ds.num_chunks()
                              << " bytes=" << ds.total_bytes());
  datasets_.emplace(id, std::move(ds));
  return id;
}

const Dataset& Repository::dataset(std::uint32_t id) const {
  std::shared_lock lock(catalog_mutex_);
  auto it = datasets_.find(id);
  if (it == datasets_.end()) throw std::out_of_range("Repository: unknown dataset");
  return it->second;
}

const Dataset* Repository::find_dataset(const std::string& name) const {
  std::shared_lock lock(catalog_mutex_);
  for (const auto& [id, ds] : datasets_) {
    if (ds.name() == name) return &ds;
  }
  return nullptr;
}

std::size_t Repository::num_datasets() const {
  std::shared_lock lock(catalog_mutex_);
  return datasets_.size();
}

QueryResult Repository::submit(const Query& query, const ComputeCosts& costs,
                               const ExecOptions& exec_options) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    QueryResult result;
    {
      // Shared lock for the whole plan+execute: concurrent submits proceed
      // in parallel while catalog mutations (create_dataset / load_catalog)
      // wait.
      std::shared_lock lock(catalog_mutex_);
      result = submit_locked(query, costs, exec_options);
    }
    record_submit_success(result, seconds_since(t0));
    return result;
  } catch (...) {
    submit_metrics().errors.add();
    throw;
  }
}

Repository::Prepared Repository::prepare_locked(const Query& query,
                                                const ComputeCosts& costs) const {
  auto lookup = [this](std::uint32_t id) -> const Dataset& {
    auto it = datasets_.find(id);
    if (it == datasets_.end()) throw std::out_of_range("Repository: unknown dataset");
    return it->second;
  };
  Prepared p;
  p.input = &lookup(query.input_dataset);
  p.output = &lookup(query.output_dataset);
  p.all_inputs = {p.input};
  for (std::uint32_t id : query.extra_input_datasets) {
    p.all_inputs.push_back(&lookup(id));
  }
  if (!query.range.valid()) {
    throw std::invalid_argument("submit: invalid query range");
  }

  if (!query.map_function.empty()) {
    p.map = spaces_.find_map(query.map_function);
    if (p.map == nullptr) {
      throw std::invalid_argument("submit: unknown map function " + query.map_function);
    }
  }
  if (!query.aggregation.empty()) {
    p.op = aggregations_.find(query.aggregation);
    if (p.op == nullptr) {
      throw std::invalid_argument("submit: unknown aggregation " + query.aggregation);
    }
  }

  PlanRequest& request = p.request;
  request.input = p.input;
  request.extra_inputs.assign(p.all_inputs.begin() + 1, p.all_inputs.end());
  request.output = p.output;
  request.range = query.range;
  request.map = p.map;
  request.op = p.op;
  request.num_nodes = config_.num_nodes;
  request.disks_per_node = config_.disks_per_node;
  request.memory_per_node = config_.memory_per_node;
  request.strategy = query.strategy;
  request.order = query.tiling_order;
  request.seed = query.seed;
  request.costs = costs;
  request.machine.disk_seek_s = sim::to_seconds(config_.machine.disk.seek);
  request.machine.disk_bw_bytes_per_s = config_.machine.disk.bandwidth_bytes_per_sec;
  request.machine.net_latency_s = sim::to_seconds(config_.machine.link.latency);
  request.machine.net_bw_bytes_per_s = config_.machine.link.bandwidth_bytes_per_sec;
  request.machine.comm_cpu_bytes_per_s = config_.machine.link.cpu_overhead_bytes_per_sec;
  request.machine.disks_per_node = config_.disks_per_node;
  return p;
}

PlannedQuery Repository::plan_prepared(const Prepared& prepared,
                                       QuerySelection&& selection) const {
  obs::QueryTracer& tr = obs::tracer();
  const bool tracing = tr.enabled();
  const std::uint64_t qid = obs::trace_query();

  const auto plan_t0 = std::chrono::steady_clock::now();
  const std::uint64_t plan_ts_us = tracing ? tr.now_us() : 0;
  PlannedQuery planned;
  try {
    planned = plan_query(prepared.request, std::move(selection));
  } catch (const StatusError&) {
    throw;
  } catch (const std::exception& e) {
    // Argument-shaped problems were rejected in prepare_locked; what the
    // planning service itself refuses is a distinct failure class.
    throw StatusError(StatusCode::kPlanRejected, e.what());
  }
  submit_metrics().plan.observe(seconds_since(plan_t0));
  if (tracing) {
    tr.record({"planned", "serving", qid, plan_ts_us, tr.now_us() - plan_ts_us,
               static_cast<std::uint32_t>(qid), -1});
  }
  return planned;
}

QuerySelection Repository::select_prepared(const Prepared& prepared) const {
  obs::QueryTracer& tr = obs::tracer();
  const std::uint64_t ts_us = tr.enabled() ? tr.now_us() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  QuerySelection selection;
  try {
    selection = select_query_chunks(prepared.request);
  } catch (const std::exception& e) {
    // Selection is the planning service's first phase: same failure
    // class plan_prepared assigns.
    throw StatusError(StatusCode::kPlanRejected, e.what());
  }
  submit_metrics().select.observe(seconds_since(t0));
  if (tr.enabled()) {
    const std::uint64_t qid = obs::trace_query();
    tr.record({"selected", "serving", qid, ts_us, tr.now_us() - ts_us,
               static_cast<std::uint32_t>(qid), -1});
  }
  return selection;
}

Repository::MarginalConsult Repository::consult_marginals_locked(
    const Prepared& prepared) const {
  MarginalConsult mc;
  // Cacheability gate: a real aggregation whose accumulators depend only
  // on the contributing inputs.  An op that folds the *existing* output
  // chunk into initialize() has partials we cannot key (the output bytes
  // mutate outside the signature), so such queries bypass the cache.
  if (marginal_cache_ == nullptr || prepared.op == nullptr ||
      prepared.op->requires_existing_output()) {
    mc.reduced = select_prepared(prepared);
    return mc;
  }

  obs::QueryTracer& tr = obs::tracer();
  const bool tracing = tr.enabled();
  const std::uint64_t qid = obs::trace_query();
  const std::uint64_t ts_us = tracing ? tr.now_us() : 0;

  mc.original = select_prepared(prepared);
  mc.active = true;

  // Signatures: aggregation + map names, output chunk identity under its
  // shape version, and the sorted contributing input set under each
  // input dataset's data version.  Sorting canonicalizes away selection
  // order, so any query inducing the same contributing set hits.
  const std::string map_name =
      prepared.map != nullptr ? prepared.map->name() : "identity";
  const MarginalVersions out_ver = marginal_cache_->versions(prepared.output->id());
  std::vector<std::pair<std::uint32_t, std::uint64_t>> input_ver;
  input_ver.reserve(prepared.all_inputs.size());
  for (const Dataset* ds : prepared.all_inputs) {
    input_ver.emplace_back(ds->id(), marginal_cache_->versions(ds->id()).data);
  }

  const QuerySelection& sel = mc.original;
  const std::size_t num_outputs = sel.selected_outputs.size();
  mc.keys.reserve(num_outputs);
  std::vector<char> cached(num_outputs, 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> contrib;  // (ds<<32|chunk, ver)
  for (std::size_t o = 0; o < num_outputs; ++o) {
    MarginalSignature sig;
    sig.mix(prepared.op->name());
    sig.mix(map_name);
    sig.mix(prepared.output->id());
    sig.mix(out_ver.shape);
    sig.mix(sel.selected_outputs[o]);
    contrib.clear();
    for (std::uint32_t pos : sel.mapping.inputs_of(o)) {
      const auto& [ds_id, data_ver] = input_ver[sel.input_dataset_of[pos]];
      contrib.emplace_back((static_cast<std::uint64_t>(ds_id) << 32) |
                               sel.selected_inputs[pos],
                           data_ver);
    }
    std::sort(contrib.begin(), contrib.end());
    sig.mix(static_cast<std::uint64_t>(contrib.size()));
    for (const auto& [packed, data_ver] : contrib) {
      sig.mix(packed);
      sig.mix(data_ver);
    }
    mc.keys.push_back(sig.key());
    if (auto partial = marginal_cache_->lookup(mc.keys.back())) {
      cached[o] = 1;
      mc.hits.emplace_back(static_cast<std::uint32_t>(o), std::move(*partial));
    }
  }

  // Reduce the selection to the misses, counting the bytes of every
  // input whose outputs were all served as saved.
  for (std::uint32_t o = 0; o < num_outputs; ++o) {
    if (!cached[o]) mc.executed_orig.push_back(o);
  }
  if (mc.hits.empty()) {
    mc.reduced = std::move(mc.original);
  } else {
    std::vector<std::uint32_t> dropped;
    mc.reduced = reduce_selection(sel, cached, dropped);
    for (std::uint32_t pos : dropped) {
      const Dataset* ds = prepared.all_inputs[sel.input_dataset_of[pos]];
      mc.bytes_saved += ds->chunk(sel.selected_inputs[pos]).bytes;
    }
    mc.fully_cached = mc.executed_orig.empty();
  }

  if (tracing) {
    tr.record({"marginal", "serving", qid, ts_us, tr.now_us() - ts_us,
               static_cast<std::uint32_t>(qid), -1});
  }
  return mc;
}

QueryResult Repository::finalize_from_cache_locked(const Query& query,
                                                   const Prepared& prepared,
                                                   MarginalConsult& consult) {
  QueryResult result;
  // No plan ran; report the requested strategy (kAuto never chose one).
  result.strategy =
      query.strategy == StrategyKind::kAuto ? StrategyKind::kFRA : query.strategy;
  result.marginal_hits = consult.hits.size();
  result.cost.marginal_chunks = consult.hits.size();
  result.cost.marginal_bytes_saved = consult.bytes_saved;

  bool wrote_back = false;
  for (auto& [orig, partial] : consult.hits) {
    const ChunkMeta& meta =
        prepared.output->chunk(consult.original.selected_outputs[orig]);
    std::vector<std::byte> payload = prepared.op->output(meta, partial);
    switch (query.delivery) {
      case OutputDelivery::kWriteBack:
        active_store().put(Chunk(meta, std::move(payload)));
        wrote_back = true;
        break;
      case OutputDelivery::kReturnToClient:
        result.outputs.emplace_back(meta, std::move(payload));
        break;
      case OutputDelivery::kDiscard:
        break;
    }
  }
  if (!result.outputs.empty()) {
    std::sort(result.outputs.begin(), result.outputs.end(),
              [](const Chunk& a, const Chunk& b) { return a.meta().id < b.meta().id; });
  }
  if (wrote_back) marginal_cache_->invalidate_data(query.output_dataset);
  marginal_cache_->note_bytes_saved(consult.bytes_saved);
  return result;
}

QueryResult Repository::execute_planned_locked(const Query& query,
                                               const Prepared& prepared,
                                               PlannedQuery&& planned,
                                               const ComputeCosts& costs,
                                               const ExecOptions& exec_options,
                                               MarginalConsult* marginal) {
  obs::QueryTracer& tr = obs::tracer();
  const bool tracing = tr.enabled();
  const std::uint64_t qid = obs::trace_query();

  ExecOptions options = exec_options;
  if (config_.backend == RepositoryConfig::Backend::kSimulated &&
      options.comm_cpu_bytes_per_sec == 0.0) {
    options.comm_cpu_bytes_per_sec = config_.machine.link.cpu_overhead_bytes_per_sec;
  }

  // Output delivery: write back, return to the client, or discard.
  std::mutex sink_mutex;
  std::vector<Chunk> delivered;
  const OutputDelivery delivery = query.delivery;
  switch (delivery) {
    case OutputDelivery::kWriteBack:
      options.write_output = true;
      break;
    case OutputDelivery::kReturnToClient:
      options.write_output = false;
      options.output_sink = [&sink_mutex, &delivered](Chunk&& chunk) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        delivered.push_back(std::move(chunk));
      };
      break;
    case OutputDelivery::kDiscard:
      options.write_output = false;
      break;
  }

  // A written-back output dataset has new payload bytes: partials that
  // aggregated *from* it are stale.  Scope guard, not a tail call — the
  // engine may have written chunks before a node error rethrows, and
  // those bytes must invalidate even when the query fails.
  struct WriteInvalidate {
    MarginalCache* cache = nullptr;
    std::uint32_t dataset = 0;
    ~WriteInvalidate() {
      if (cache != nullptr) cache->invalidate_data(dataset);
    }
  } write_invalidate;
  if (marginal_cache_ != nullptr && delivery == OutputDelivery::kWriteBack) {
    write_invalidate.cache = marginal_cache_.get();
    write_invalidate.dataset = query.output_dataset;
  }

  // Marginal publish tap: capture each finalized post-combine
  // accumulator as the engine produces it.  Publishing waits until
  // execute_query returns cleanly — a faulted run rethrows before we
  // get there, so a failed query never publishes (PR 5 containment).
  const bool marginal_active = marginal != nullptr && marginal->active;
  std::mutex accum_mutex;
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> captured;
  if (marginal_active) {
    options.accum_sink = [&accum_mutex, &captured](
                             std::uint32_t pos, const std::vector<std::byte>& accum) {
      std::lock_guard<std::mutex> lock(accum_mutex);
      captured.emplace_back(pos, accum);
    };
  }

  QueryResult result;
  result.strategy = planned.chosen;
  result.tiles = planned.plan.num_tiles;
  result.ghost_chunks = planned.plan.total_ghost_chunks;
  result.chunk_reads = planned.plan.total_reads;
  result.estimates = std::move(planned.estimates);

  const std::uint64_t exec_ts_us = tracing ? tr.now_us() : 0;

  if (config_.backend == RepositoryConfig::Backend::kSimulated) {
    sim::ClusterConfig machine = config_.machine;
    machine.num_nodes = config_.num_nodes;
    machine.disks_per_node = config_.disks_per_node;
    machine.accumulator_memory_bytes = config_.memory_per_node;
    sim::SimCluster cluster(machine);
    SimExecutor executor(&cluster, config_.store_payloads ? store_.get() : nullptr);
    result.stats = execute_query(executor, planned, prepared.all_inputs, *prepared.output,
                                 prepared.op, costs, config_.disks_per_node, options);
    // The simulator's modelled I/O is never cached, so the ledger bills
    // every read cold.
    for (const NodeStats& n : result.stats.nodes) {
      result.cost.cold_chunks += n.chunks_read;
    }
    result.cost.cold_bytes = result.stats.total_bytes_read();
  } else {
    const ChunkCacheStats cache_before = cache_ ? cache_->stats() : ChunkCacheStats{};
    {
      // Exclusive lease on a warm executor; released (kept resident)
      // when the lease leaves scope.
      ThreadExecutorPool::Lease lease = executor_pool_->acquire();
      result.stats = execute_query(*lease, planned, prepared.all_inputs, *prepared.output,
                                   prepared.op, costs, config_.disks_per_node, options);
    }
    const std::array<obs::Histogram*, 4>& phase = submit_metrics().phase;
    phase[0]->observe(result.stats.phase_init_s);
    phase[1]->observe(result.stats.phase_lr_s);
    phase[2]->observe(result.stats.phase_gc_s);
    phase[3]->observe(result.stats.phase_oh_s);
    if (cache_ != nullptr) {
      const ChunkCacheStats after = cache_->stats();
      result.stats.cache_hits = after.hits - cache_before.hits;
      result.stats.cache_misses = after.misses - cache_before.misses;
      result.stats.cache_evictions = after.evictions - cache_before.evictions;
      result.cache_hits = result.stats.cache_hits;
      result.cache_misses = result.stats.cache_misses;
      result.cache_evictions = result.stats.cache_evictions;
      // Cost ledger: the cache's hit/miss byte deltas split this query's
      // reads by temperature (same concurrent-submit attribution caveat
      // as cache_hits above).
      result.cost.cached_chunks = result.stats.cache_hits;
      result.cost.cached_bytes = after.hit_bytes - cache_before.hit_bytes;
      result.cost.cold_chunks = result.stats.cache_misses;
      result.cost.cold_bytes = after.miss_bytes - cache_before.miss_bytes;
    } else {
      // No cache below the engine: every chunk the nodes read was cold.
      for (const NodeStats& n : result.stats.nodes) {
        result.cost.cold_chunks += n.chunks_read;
      }
      result.cost.cold_bytes = result.stats.total_bytes_read();
    }
  }

  if (marginal_active) {
    // The run completed cleanly: the captured partials are trustworthy.
    for (auto& [pos, accum] : captured) {
      marginal_cache_->publish(marginal->keys[marginal->executed_orig[pos]],
                               std::move(accum));
    }
    result.marginal_hits = marginal->hits.size();
    result.marginal_misses = marginal->executed_orig.size();
    result.cost.marginal_chunks = marginal->hits.size();
    result.cost.marginal_bytes_saved = marginal->bytes_saved;
    marginal_cache_->note_bytes_saved(marginal->bytes_saved);
    // Merge served partials into this query's delivery alongside the
    // executed chunks.
    for (auto& [orig, partial] : marginal->hits) {
      const ChunkMeta& meta =
          prepared.output->chunk(marginal->original.selected_outputs[orig]);
      std::vector<std::byte> payload = prepared.op->output(meta, partial);
      switch (delivery) {
        case OutputDelivery::kWriteBack:
          active_store().put(Chunk(meta, std::move(payload)));
          break;
        case OutputDelivery::kReturnToClient: {
          std::lock_guard<std::mutex> lock(sink_mutex);
          delivered.push_back(Chunk(meta, std::move(payload)));
          break;
        }
        case OutputDelivery::kDiscard:
          break;
      }
    }
  }

  if (tracing) {
    tr.record({"execute", "serving", qid, exec_ts_us, tr.now_us() - exec_ts_us,
               static_cast<std::uint32_t>(qid), -1});
    // Re-base the engine's per-node phase timeline onto the tracer clock
    // (thread backend only: the simulated backend's spans are in virtual
    // seconds that do not line up with wall time).
    if (config_.backend == RepositoryConfig::Backend::kThreads) {
      for (const PhaseSpan& span : result.stats.trace) {
        obs::TraceEvent e;
        e.name = phase_name(span.phase);
        e.cat = "phase";
        e.query = qid;
        e.ts_us = exec_ts_us + static_cast<std::uint64_t>(span.start_s * 1e6);
        e.dur_us = static_cast<std::uint64_t>(span.duration_s() * 1e6);
        e.tid = static_cast<std::uint32_t>(span.node);
        e.tile = span.tile;
        tr.record(e);
      }
    }
  }

  if (!delivered.empty()) {
    std::sort(delivered.begin(), delivered.end(),
              [](const Chunk& a, const Chunk& b) { return a.meta().id < b.meta().id; });
    result.outputs = std::move(delivered);
  }
  return result;
}

QueryResult Repository::submit_locked(const Query& query, const ComputeCosts& costs,
                                      const ExecOptions& exec_options) {
  Prepared prepared = prepare_locked(query, costs);
  MarginalConsult consult = consult_marginals_locked(prepared);
  if (consult.fully_cached) {
    return finalize_from_cache_locked(query, prepared, consult);
  }
  PlannedQuery planned =
      plan_prepared(prepared, std::move(consult.reduced));
  return execute_planned_locked(query, prepared, std::move(planned), costs, exec_options,
                                consult.active ? &consult : nullptr);
}

QuerySubmissionService::~QuerySubmissionService() {
  stop();
  // Queries accepted but never run (no pool started, no process_all)
  // would otherwise leave the process-wide depth gauge inflated.
  std::lock_guard lock(mutex_);
  scheduler_metrics().queue_depth.add(-static_cast<std::int64_t>(queue_.size()));
  queue_.clear();
}

void QuerySubmissionService::start(int n_workers) {
  std::lock_guard lock(mutex_);
  if (!workers_.empty()) return;
  stopping_ = false;
  workers_.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

void QuerySubmissionService::stop() {
  {
    std::lock_guard lock(mutex_);
    if (workers_.empty()) return;
    stopping_ = true;  // workers finish the queue before exiting
    work_cv_.notify_all();
  }
  for (std::thread& w : workers_) w.join();
  std::lock_guard lock(mutex_);
  workers_.clear();
  stopping_ = false;
}

QuerySubmissionService::QuerySubmissionService(Repository& repository,
                                               const RuntimeConfig& runtime)
    : QuerySubmissionService((runtime.check(), repository), runtime.max_pending) {}

void QuerySubmissionService::set_completion_callback(
    std::function<void(std::uint64_t)> cb) {
  completion_cb_ = std::move(cb);
}

std::uint64_t QuerySubmissionService::enqueue(Query query, ComputeCosts costs,
                                              std::uint64_t client_id,
                                              ExecOptions options) {
  std::unique_lock lock(mutex_);
  // Back-pressure: bound accepted-but-unfinished work while a pool runs.
  if (!workers_.empty()) {
    done_cv_.wait(lock, [this]() {
      return queue_.size() + in_flight_ < max_pending_;
    });
  }
  const std::uint64_t ticket = next_ticket_++;
  queue_.push_back(Pending{ticket, client_id, std::move(query), costs, options,
                           std::chrono::steady_clock::now(),
                           obs::tracer().now_us()});
  scheduler_metrics().enqueued.add();
  scheduler_metrics().queue_depth.add(1);
  work_cv_.notify_one();
  return ticket;
}

std::uint64_t QuerySubmissionService::try_enqueue(Query query, ComputeCosts costs,
                                                  std::uint64_t client_id,
                                                  ExecOptions options) {
  std::lock_guard lock(mutex_);
  if (queue_.size() + in_flight_ >= max_pending_) {
    scheduler_metrics().rejected.add();
    return 0;
  }
  const std::uint64_t ticket = next_ticket_++;
  queue_.push_back(Pending{ticket, client_id, std::move(query), costs, options,
                           std::chrono::steady_clock::now(),
                           obs::tracer().now_us()});
  scheduler_metrics().enqueued.add();
  scheduler_metrics().queue_depth.add(1);
  work_cv_.notify_one();
  return ticket;
}

bool QuerySubmissionService::ticket_pending_locked(std::uint64_t ticket) const {
  if (running_.contains(ticket)) return true;
  for (const Pending& p : queue_) {
    if (p.ticket == ticket) return true;
  }
  return false;
}

namespace {

QuerySubmissionService::Outcome not_found(const char* why) {
  return {Status::make(StatusCode::kNotFound, why), {}};
}

}  // namespace

QuerySubmissionService::Outcome QuerySubmissionService::take(std::uint64_t ticket) {
  std::unique_lock lock(mutex_);
  if (ticket == 0 || ticket >= next_ticket_) return not_found("unknown ticket");
  // Wake on finish *or* on the ticket vanishing (another take() already
  // drained it) — waiting only on the outcome map would block forever
  // for a ticket taken twice.
  done_cv_.wait(lock, [&]() {
    return outcomes_.contains(ticket) || !ticket_pending_locked(ticket);
  });
  auto node = outcomes_.extract(ticket);
  if (node.empty()) return not_found("ticket already taken");
  // A second waiter on this ticket must wake and observe it gone.
  done_cv_.notify_all();
  return std::move(node.mapped());
}

std::optional<QuerySubmissionService::Outcome> QuerySubmissionService::try_take(
    std::uint64_t ticket) {
  std::lock_guard lock(mutex_);
  if (ticket == 0 || ticket >= next_ticket_) return not_found("unknown ticket");
  auto node = outcomes_.extract(ticket);
  if (!node.empty()) return std::move(node.mapped());
  if (!ticket_pending_locked(ticket)) return not_found("ticket already taken");
  return std::nullopt;  // still queued or running
}

bool QuerySubmissionService::pop_runnable(Pending& out) {
  // Candidates are each idle lane's *head* (later queries of the same
  // client never overtake it); among those the highest Qos priority
  // wins, earliest accepted breaking ties.  All-default priorities
  // degenerate to the historical first-free-lane FIFO scan.
  auto best = queue_.end();
  std::unordered_set<std::uint64_t> seen;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!seen.insert(it->client).second) continue;  // not the lane head
    if (busy_clients_.contains(it->client)) continue;
    if (best == queue_.end() ||
        it->options.qos.priority > best->options.qos.priority) {
      best = it;
      // Nothing outranks interactive; the earliest one already wins.
      if (it->options.qos.priority == QosPriority::kInteractive) break;
    }
  }
  if (best == queue_.end()) return false;
  out = std::move(*best);
  queue_.erase(best);
  busy_clients_.insert(out.client);
  running_.insert(out.ticket);
  ++in_flight_;
  scheduler_metrics().queue_depth.add(-1);
  scheduler_metrics().in_flight.add(1);
  return true;
}

void QuerySubmissionService::finish_locked(std::uint64_t ticket, std::uint64_t client,
                                           Outcome&& outcome) {
  outcomes_.emplace(ticket, std::move(outcome));
  busy_clients_.erase(client);
  running_.erase(ticket);
  --in_flight_;
  ++completed_;
}

namespace {

double load_ewma_s(const std::atomic<std::uint64_t>& bits) {
  return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

// alpha = 0.2: a few queries of history — reactive enough to track a
// load shift, smooth enough that one outlier doesn't trigger mass sheds.
void update_ewma_s(std::atomic<std::uint64_t>& bits, double sample) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double prev = std::bit_cast<double>(cur);
    const double next = prev <= 0.0 ? sample : 0.8 * prev + 0.2 * sample;
    if (bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(next),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

bool QuerySubmissionService::maybe_shed(Pending& p) {
  const Qos& qos = p.options.qos;
  if (!qos.drop_on_expiry || !qos.has_deadline()) return false;
  const auto now = std::chrono::steady_clock::now();
  bool shed = now >= qos.deadline;
  if (!shed) {
    // Predictive half: with `ewma` seconds of typical execution ahead,
    // a smaller remaining budget cannot make the deadline — shedding
    // now returns the slot to work that still can.
    const double ewma_s = load_ewma_s(exec_ewma_bits_);
    if (ewma_s > 0.0) {
      shed = std::chrono::duration<double>(qos.deadline - now).count() < ewma_s;
    }
  }
  if (!shed) return false;
  scheduler_metrics().queue_wait.observe(seconds_since(p.enqueued_at));
  scheduler_metrics().in_flight.add(-1);
  scheduler_metrics().shed.add();
  Outcome out;
  out.status = Status::make(StatusCode::kDeadlineExceeded,
                            "deadline exceeded before execution");
  {
    std::lock_guard lock(mutex_);
    finish_locked(p.ticket, p.client, std::move(out));
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  if (completion_cb_) completion_cb_(p.ticket);
  return true;
}

void QuerySubmissionService::run_one(Pending&& p) {
  if (maybe_shed(p)) return;
  // Dispatch latency: how long the accepted query sat in the queue.
  const double wait_s = seconds_since(p.enqueued_at);
  scheduler_metrics().queue_wait.observe(wait_s);
  obs::QueryTracer& tr = obs::tracer();
  const bool tracing = tr.enabled();
  if (tracing) {
    const std::uint64_t now = tr.now_us();
    const std::uint64_t ts = std::min(p.enqueued_ts_us, now);
    tr.record({"queued", "serving", p.ticket, ts, now - ts,
               static_cast<std::uint32_t>(p.ticket), -1});
  }
  Outcome out;
  // Spans recorded inside Repository::submit attach to this ticket; the
  // queue wait rides the same thread into the cost ledger (picked up by
  // record_submit_success on this thread, inside submit).
  obs::set_trace_query(p.ticket);
  obs::set_cost_queue_wait(wait_s);
  try {
    ExecOptions exec_options = p.options;
    // The per-tile phase timeline feeds the exported trace; recording it
    // costs a couple of timestamps per phase, paid only while tracing.
    exec_options.record_trace = exec_options.record_trace || tracing;
    const auto exec_start = std::chrono::steady_clock::now();
    out.result = repository_->submit(p.query, p.costs, exec_options);
    update_ewma_s(exec_ewma_bits_, seconds_since(exec_start));
  } catch (const std::exception& e) {
    out.status = status_from_exception(e);
    ADR_WARN("submission service: ticket " << p.ticket << " failed: " << e.what());
  }
  obs::set_trace_query(0);
  obs::set_cost_queue_wait(0.0);
  scheduler_metrics().in_flight.add(-1);
  (out.ok() ? scheduler_metrics().completed : scheduler_metrics().failed).add();
  {
    std::lock_guard lock(mutex_);
    finish_locked(p.ticket, p.client, std::move(out));
  }
  // A freed lane may unblock a queued query for the same client.
  work_cv_.notify_all();
  done_cv_.notify_all();
  if (completion_cb_) completion_cb_(p.ticket);
}

void QuerySubmissionService::worker_loop() {
  for (;;) {
    Pending p{};
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock,
                    [&]() { return pop_runnable(p) || (stopping_ && queue_.empty()); });
      if (p.ticket == 0) return;  // stopping and nothing runnable
    }
    run_one(std::move(p));
  }
}

std::size_t QuerySubmissionService::process_all() {
  bool pooled = false;
  {
    std::lock_guard lock(mutex_);
    pooled = !workers_.empty();
  }
  if (pooled) return drain();
  // Serial mode: drain the queue on this thread in FIFO order.
  std::size_t ran = 0;
  for (;;) {
    Pending p{};
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty()) return ran;
      p = std::move(queue_.front());
      queue_.pop_front();
      busy_clients_.insert(p.client);
      running_.insert(p.ticket);
      ++in_flight_;
      scheduler_metrics().queue_depth.add(-1);
      scheduler_metrics().in_flight.add(1);
    }
    run_one(std::move(p));
    ++ran;
  }
}

std::size_t QuerySubmissionService::drain() {
  std::unique_lock lock(mutex_);
  const std::uint64_t before = completed_;
  done_cv_.wait(lock, [this]() { return queue_.empty() && in_flight_ == 0; });
  return static_cast<std::size_t>(completed_ - before);
}

std::size_t QuerySubmissionService::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size() + in_flight_;
}

std::optional<Chunk> Repository::read_chunk(std::uint32_t dataset_id,
                                            std::uint32_t index) const {
  std::shared_lock lock(catalog_mutex_);
  auto it = datasets_.find(dataset_id);
  if (it == datasets_.end()) throw std::out_of_range("Repository: unknown dataset");
  const ChunkMeta& meta = it->second.chunk(index);
  return active_store().get(meta.disk, meta.id);
}

void Repository::save_catalog(const std::filesystem::path& path) const {
  std::shared_lock lock(catalog_mutex_);
  std::vector<const Dataset*> all;
  all.reserve(datasets_.size());
  for (const auto& [id, ds] : datasets_) all.push_back(&ds);
  save_catalog_file(path, all);
}

std::size_t Repository::load_catalog(const std::filesystem::path& path) {
  std::vector<Dataset> loaded = load_catalog_file(path);
  std::unique_lock lock(catalog_mutex_);
  std::size_t registered = 0;
  for (Dataset& ds : loaded) {
    for (const ChunkMeta& c : ds.chunks()) {
      if (c.disk < 0 || c.disk >= config_.total_disks()) {
        throw std::invalid_argument("load_catalog: dataset '" + ds.name() +
                                    "' was declustered over a different farm");
      }
    }
    const std::uint32_t id = ds.id();
    next_dataset_id_ = std::max(next_dataset_id_, id + 1);
    // Replacing a dataset changes both what its chunks contain and what
    // its chunk indices *mean*: kill partials keyed on it as input
    // (data version) and as output (shape version).
    if (marginal_cache_ != nullptr && datasets_.contains(id)) {
      marginal_cache_->invalidate_dataset(id);
    }
    datasets_.insert_or_assign(id, std::move(ds));
    ++registered;
  }
  return registered;
}

}  // namespace adr
