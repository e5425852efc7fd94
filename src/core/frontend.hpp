// ADR front end: the public API tying the services together.
//
// Mirrors the paper's architecture (its Figure 2): a front-end process
// owns the attribute-space, dataset, indexing and aggregation services,
// accepts range queries through the query interface service, plans them
// with the query planning service and executes them on the parallel
// back-end: the thread-backed in-process cluster (real payloads, wall
// time).  The simulated IBM SP is reached through emu::run_scenario,
// never through a Repository.
//
// Typical use:
//
//   adr::RepositoryConfig cfg;
//   cfg.num_nodes = 8;
//   adr::Repository repo(cfg);
//   std::uint32_t in  = repo.create_dataset("sensors", domain, chunks);
//   std::uint32_t out = repo.create_dataset("image", out_domain, out_chunks);
//   adr::Query q;
//   q.input_dataset = in; q.output_dataset = out;
//   q.range = ...; q.aggregation = "sum-count-max";
//   q.strategy = adr::StrategyKind::kAuto;
//   adr::QueryResult r = repo.submit(q);
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/fair_shared_mutex.hpp"
#include "common/status.hpp"
#include "core/aggregation.hpp"
#include "core/runtime_config.hpp"
#include "core/attribute_space.hpp"
#include "core/exec/exec_stats.hpp"
#include "core/exec/query_executor.hpp"
#include "core/planner/planner.hpp"
#include "core/query.hpp"
#include "obs/query_cost.hpp"
#include "runtime/executor_pool.hpp"
#include "storage/chunk_cache.hpp"
#include "storage/dataset.hpp"
#include "storage/decluster.hpp"
#include "storage/disk_store.hpp"
#include "storage/marginal_cache.hpp"

namespace adr {

struct RepositoryConfig {
  /// Inert: queries always run on threads.  Kept only because the
  /// end-to-end bench still assigns kThreads; nothing reads it.
  enum class Backend { kThreads };
  Backend backend = Backend::kThreads;

  int num_nodes = 4;
  int disks_per_node = 1;
  /// Per-node memory budget for accumulator chunks (drives tiling).
  std::uint64_t memory_per_node = 32ull * 1024 * 1024;
  /// Non-empty: back the disk farm with files under this directory
  /// (FileChunkStore) instead of memory.
  std::filesystem::path storage_dir;
  /// Reattach to an existing file-backed farm instead of truncating it
  /// (pair with load_catalog() to restore the dataset metadata).
  bool open_existing = false;
  /// Per-node byte budget for the cross-query chunk cache wrapped around
  /// the store (split evenly over the node's disks).  0 disables the
  /// cache.
  std::uint64_t chunk_cache_bytes_per_node = 64ull * 1024 * 1024;
  /// Byte budget for the marginal cache: finalized per-output-chunk
  /// aggregation partials reused across overlapping queries (see
  /// docs/caching.md).  A query whose
  /// output chunk has the same contributing input set as a cached
  /// partial skips that chunk's I/O *and* aggregation.  0 disables it.
  std::uint64_t marginal_cache_bytes = 32ull * 1024 * 1024;

  int total_disks() const { return num_nodes * disks_per_node; }
};

struct QueryResult {
  StrategyKind strategy = StrategyKind::kFRA;
  int tiles = 0;
  std::uint64_t ghost_chunks = 0;
  std::uint64_t chunk_reads = 0;
  /// Marginal-cache attribution: output chunks of this query served
  /// from cached partials vs executed cold (zeros when the cache is
  /// disabled or the query is not cacheable; see docs/caching.md).
  std::uint64_t marginal_hits = 0;
  std::uint64_t marginal_misses = 0;
  /// Itemized resource bill for this query (bytes by temperature, queue
  /// wait, executor wall vs thread-CPU time; see obs/query_cost.hpp).
  /// Finalized on the submit success path and summarized into the
  /// query.cost.* metric family.
  obs::QueryCostLedger cost;
  ExecStats stats;
  /// Cost estimates per strategy when the query used kAuto.
  std::vector<std::pair<StrategyKind, CostEstimate>> estimates;
  /// Finalized output chunks, for OutputDelivery::kReturnToClient
  /// (sorted by chunk id).
  std::vector<Chunk> outputs;
};

/// Thread safety: Repository serves concurrent clients.  The dataset
/// catalog (datasets_ / next_dataset_id_) is guarded by a phase-fair
/// shared mutex (writers are never starved by a stream of submits):
/// submit() and the other readers hold it shared for their whole run, so
/// a dataset can never be replaced or destroyed mid-query; create_dataset()
/// and load_catalog() take it exclusive.  The chunk store / chunk cache
/// and the executor pool have their own internal locks.  Locking order
/// (never acquire in the other direction):
///
///   catalog_mutex_  ->  executor pool mutex  ->  chunk cache shard mutex
///                   ->  ChunkStore disk mutex (offset table only;
///                       payload pread/pwrite runs unlocked)
///                   ->  executor internals
///                   ->  marginal cache version/shard mutexes (leaf)
///
/// Registries (attribute spaces, aggregations, indices) are expected to be
/// populated before concurrent serving starts; lookups are read-only.
/// Per-query planner/executor state is entirely stack-local; the leased
/// executor is exclusive to its query.
class Repository {
 public:
  explicit Repository(const RepositoryConfig& config);

  const RepositoryConfig& config() const { return config_; }

  AttributeSpaceService& attribute_spaces() { return spaces_; }
  AggregationService& aggregations() { return aggregations_; }
  /// The store every component reads and writes through: the caching
  /// decorator when the chunk cache is enabled, else the raw farm.
  ChunkStore& store() { return active_store(); }

  /// The chunk cache, or nullptr when disabled.
  const CachingChunkStore* chunk_cache() const { return cache_.get(); }
  /// Cache counters so far (zeros when the cache is disabled).
  ChunkCacheStats chunk_cache_stats() const;

  /// The marginal (aggregate-reuse) cache, or nullptr when disabled.
  const MarginalCache* marginal_cache() const { return marginal_cache_.get(); }
  /// Marginal-cache counters so far (zeros when disabled).
  MarginalCacheStats marginal_cache_stats() const;

  /// Executor-pool counters so far.
  ThreadExecutorPool::Stats executor_pool_stats() const;

  /// Loads a dataset (paper's four-step load) and returns its id.
  std::uint32_t create_dataset(const std::string& name, const Rect& domain,
                               std::vector<Chunk> chunks,
                               DeclusterMethod method = DeclusterMethod::kHilbert);

  const Dataset& dataset(std::uint32_t id) const;
  const Dataset* find_dataset(const std::string& name) const;
  std::size_t num_datasets() const;

  /// Plans and executes a range query on the back-end.  Safe to call from
  /// many threads at once: each call plans and executes with stack-local
  /// state while holding the catalog's shared lock.  Throws on failure
  /// (StatusError carries the typed code; see common/status.hpp).
  /// `costs` are the per-chunk compute charges kAuto's cost model weighs
  /// candidate plans with.
  QueryResult submit(const Query& query, const ComputeCosts& costs = {},
                     const ExecOptions& exec_options = {});

  /// Convenience: reads one chunk of a dataset back from the disk farm.
  std::optional<Chunk> read_chunk(std::uint32_t dataset_id, std::uint32_t index) const;

  /// Persists all dataset metadata to a catalog file (payloads live in
  /// the file-backed farm when storage_dir is set).
  void save_catalog(const std::filesystem::path& path) const;

  /// Restores datasets from a catalog written by save_catalog(); returns
  /// how many were registered.  Placements must fit this farm.
  std::size_t load_catalog(const std::filesystem::path& path);

 private:
  /// Everything submit needs after catalog resolution: the datasets, the
  /// resolved map/aggregation, and the plan request (caller holds the
  /// catalog lock shared; the pointers stay valid while it does).
  struct Prepared {
    const Dataset* input = nullptr;
    std::vector<const Dataset*> all_inputs;
    const Dataset* output = nullptr;
    const MapFunction* map = nullptr;
    const AggregationOp* op = nullptr;
    PlanRequest request;
  };

  /// Outcome of consulting the marginal cache for one prepared query
  /// (docs/caching.md): the chunk selection, per-output-chunk
  /// signatures, the partials served from cache, and the selection
  /// reduced to the misses.
  struct MarginalConsult {
    /// Cache consulted for this query (gates merge and publish).
    bool active = false;
    /// Every output chunk was served — skip planning and execution.
    bool fully_cached = false;
    /// Signature per original output position (publish keys).
    std::vector<MarginalKey> keys;
    /// Served partials: (original output position, accumulator bytes).
    std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> hits;
    /// Original output position per reduced-plan position.
    std::vector<std::uint32_t> executed_orig;
    /// The full selection, kept to finalize served chunks (moved into
    /// `reduced` when nothing hit).
    QuerySelection original;
    /// The selection to plan: only the misses (all of it when nothing
    /// hit or the consult is inactive).
    QuerySelection reduced;
    /// Input payload bytes whose read and aggregation were skipped.
    std::uint64_t bytes_saved = 0;
  };

  Prepared prepare_locked(const Query& query, const ComputeCosts& costs) const;
  /// Selects the query's chunks and looks every output-chunk signature
  /// up in the marginal cache.  Inactive (the selection goes straight to
  /// `reduced`) when the cache is off or the query is not cacheable (no
  /// aggregation op, op reads existing output).
  MarginalConsult consult_marginals_locked(const Prepared& prepared) const;
  /// Selects the query's chunks and maps them (submit.select_s);
  /// failures become StatusError{kPlanRejected}.
  QuerySelection select_prepared(const Prepared& prepared) const;
  /// Serves the consult's cached partials: op->output per chunk, then
  /// the query's delivery (written back, appended to `delivered`, or
  /// dropped), the marginal cost fields of `result` and the cache's
  /// bytes-saved counter.  Returns whether any chunk was written back;
  /// invalidating after that is the caller's rule.
  bool serve_marginal_hits_locked(const Query& query, const Prepared& prepared,
                                  const MarginalConsult& consult, QueryResult& result,
                                  std::vector<Chunk>& delivered);
  /// Finalizes a fully-cached query straight from served partials: no
  /// plan, no executor, only op->output per chunk plus delivery.
  QueryResult finalize_from_cache_locked(const Query& query, const Prepared& prepared,
                                         const MarginalConsult& consult);
  /// Runs the planning service's second phase on the consult's (possibly
  /// reduced) selection, metrics + trace spans included; failures become
  /// StatusError{kPlanRejected}.
  PlannedQuery plan_prepared(const Prepared& prepared, QuerySelection&& selection) const;
  /// Executes a planned query on a pool lease.  `marginal` non-null (and active) merges served
  /// partials into the delivery, publishes the executed chunks' partials
  /// on success, and fills the marginal_hits/marginal_misses attribution.
  QueryResult execute_planned_locked(const Query& query, const Prepared& prepared,
                                     PlannedQuery&& planned, const ComputeCosts& costs,
                                     const ExecOptions& exec_options,
                                     MarginalConsult* marginal);
  QueryResult submit_locked(const Query& query, const ComputeCosts& costs,
                            const ExecOptions& exec_options);
  ChunkStore& active_store() {
    if (invalidating_store_ != nullptr) return *invalidating_store_;
    return cache_ ? static_cast<ChunkStore&>(*cache_) : *store_;
  }
  const ChunkStore& active_store() const {
    if (invalidating_store_ != nullptr) return *invalidating_store_;
    return cache_ ? static_cast<const ChunkStore&>(*cache_) : *store_;
  }

  RepositoryConfig config_;
  std::unique_ptr<ChunkStore> store_;
  /// Decorates store_ when chunk_cache_bytes_per_node > 0.
  std::unique_ptr<CachingChunkStore> cache_;
  /// Cross-query aggregate reuse when marginal_cache_bytes > 0 (see
  /// docs/caching.md).
  std::unique_ptr<MarginalCache> marginal_cache_;
  /// Outermost store decorator when the marginal cache is on: bumps
  /// data versions on put/erase so out-of-band writes invalidate.
  std::unique_ptr<MarginalInvalidatingStore> invalidating_store_;
  AttributeSpaceService spaces_;
  AggregationService aggregations_;
  /// Guards datasets_ and next_dataset_id_ (see class comment).
  mutable FairSharedMutex catalog_mutex_;
  std::map<std::uint32_t, Dataset> datasets_;
  std::uint32_t next_dataset_id_ = 0;
  /// Warm thread executors shared by all submits (built empty with the
  /// repository, never replaced).
  std::unique_ptr<ThreadExecutorPool> executor_pool_;
};

/// Query submission service (paper Fig. 2): clients enqueue queries
/// through the front end and collect results by ticket.
///
/// Two modes share one queue:
///
///  - Serial (seed behaviour): enqueue() then process_all() runs every
///    pending query in FIFO order on the calling thread.
///  - Worker pool: start(n) spins up n scheduler workers that run
///    independent queries concurrently.  Queries sharing a client id are
///    a FIFO lane — at most one query per client is in flight and lanes
///    complete in submission order, so each client observes the same
///    serial semantics it would get from its own connection.  enqueue()
///    applies back-pressure: it blocks while `max_pending` accepted
///    queries are still queued or running.
///
/// Either way every query takes one path: the worker that pops it runs
/// it alone through Repository::submit.  Overlapping queries share
/// input reads through the repository's chunk and marginal caches, not
/// by executing together.
///
/// Qos (core/qos.hpp): dispatch picks the highest-priority runnable
/// lane head (FIFO within each client lane is never reordered), and a
/// queued query whose deadline has expired — or whose remaining budget
/// is below the recent execution-time EWMA — is *shed* instead of run:
/// its ticket completes with kDeadlineExceeded and the scheduler.shed
/// counter ticks.  Deadlines with drop_on_expiry == false are advisory
/// and never shed.  See docs/scheduling.md.
///
/// take(ticket)/try_take(ticket) retrieve one result and release its
/// slot; drain() blocks until everything accepted so far has finished;
/// stop() drains and joins the workers.
class QuerySubmissionService {
 public:
  explicit QuerySubmissionService(Repository& repository,
                                  std::size_t max_pending = 1024)
      : repository_(&repository), max_pending_(max_pending) {}

  /// RuntimeConfig overload: validates `runtime` (throws
  /// StatusError{kInvalidArgument}) and adopts its max_pending.
  /// start() still takes the worker count — the server decides
  /// when (and whether) to spin the pool up.
  QuerySubmissionService(Repository& repository, const RuntimeConfig& runtime);
  ~QuerySubmissionService();

  QuerySubmissionService(const QuerySubmissionService&) = delete;
  QuerySubmissionService& operator=(const QuerySubmissionService&) = delete;

  /// Starts `n_workers` scheduler threads (no-op if already started).
  void start(int n_workers);

  /// Drains accepted work and joins the workers (no-op when not started).
  void stop();

  /// Registers a hook invoked once per finished ticket, on the worker
  /// thread that finished it, after the outcome is retrievable via
  /// take()/try_take() and outside the service's lock.  The event-driven
  /// server uses it to wake its loop instead of blocking a thread in
  /// take().  Call before start(); the hook must not re-enter the
  /// service except through try_take().
  void set_completion_callback(std::function<void(std::uint64_t)> cb);

  /// Enqueues a query; the returned ticket retrieves its result later.
  /// Queries with the same `client_id` execute in FIFO order relative to
  /// each other.  Blocks for a free slot when the pool is saturated.
  /// `options` travel with the query to execution (output delivery,
  /// pipelining, tracing — see ExecOptions).
  std::uint64_t enqueue(Query query, ComputeCosts costs = {},
                        std::uint64_t client_id = 0, ExecOptions options = {});

  /// Non-blocking enqueue: returns 0 instead of waiting when max_pending
  /// accepted queries are already queued or running (the server turns
  /// this into a protocol-level "server busy" refusal).
  std::uint64_t try_enqueue(Query query, ComputeCosts costs = {},
                            std::uint64_t client_id = 0, ExecOptions options = {});

  /// A finished query's outcome, moved out of the service: a typed
  /// status plus the result when status.ok().
  struct Outcome {
    Status status;
    QueryResult result;  // valid when status.ok()
    bool ok() const { return status.ok(); }
  };

  /// Blocks until the ticket's query finishes, then removes its outcome
  /// from the service and returns it.  The service retains nothing
  /// afterwards, so a long-running server's results map cannot grow
  /// without bound.
  /// An unknown or already-taken ticket returns a kNotFound outcome
  /// immediately.  Note: a ticket accepted but never dispatched (no
  /// pool running and no process_all() in sight) blocks until someone
  /// runs it — use try_take() when polling.
  Outcome take(std::uint64_t ticket);

  /// Non-blocking take: nullopt while the ticket's query is still
  /// queued or running; otherwise exactly take().
  std::optional<Outcome> try_take(std::uint64_t ticket);

  /// Runs every pending query in FIFO order on this thread when no pool
  /// is running; with a pool, equivalent to drain().  Returns how many
  /// queries finished during this call.
  std::size_t process_all();

  /// Blocks until all accepted work has finished; returns how many
  /// queries finished during this call.
  std::size_t drain();

  /// Queued plus in-flight queries.
  std::size_t pending() const;

 private:
  struct Pending {
    std::uint64_t ticket;
    std::uint64_t client;
    Query query;
    ComputeCosts costs;
    ExecOptions options;
    /// Accept time, for the enqueue-to-dispatch wait histogram and the
    /// "queued" trace span.
    std::chrono::steady_clock::time_point enqueued_at{};
    std::uint64_t enqueued_ts_us = 0;  // tracer clock; 0 when not tracing
  };

  void worker_loop();
  void run_one(Pending&& p);
  // Deadline shed check at dispatch time: true (and the outcome is
  // recorded as kDeadlineExceeded) when the query's Qos says drop on
  // expiry and either the deadline has passed or the execution-latency
  // EWMA predicts it will pass before the result lands.  Called without
  // mutex_ held.  See docs/scheduling.md.
  bool maybe_shed(Pending& p);
  // Pops the best runnable queued query: among the head entry of each
  // idle client lane, the highest Qos priority wins, earliest accepted
  // breaking ties (all-default priorities reproduce plain FIFO).  Caller
  // holds mutex_; marks the winner's lane busy.
  bool pop_runnable(Pending& out);
  // Records one finished outcome and frees its lane (caller holds mutex_).
  void finish_locked(std::uint64_t ticket, std::uint64_t client, Outcome&& outcome);
  // True while the ticket is accepted but unfinished: queued or running
  // (caller holds mutex_).  Lets take()/try_take() distinguish "still in
  // flight" from "already taken" — a drained ticket is kNotFound, never
  // a wait that can't end.
  bool ticket_pending_locked(std::uint64_t ticket) const;

  Repository* repository_;
  const std::size_t max_pending_;
  /// Per-ticket completion hook (set before start(); never under mutex_).
  std::function<void(std::uint64_t)> completion_cb_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: new work or stop
  std::condition_variable done_cv_;  // waiters: a query finished
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  std::deque<Pending> queue_;
  std::unordered_set<std::uint64_t> busy_clients_;
  /// Tickets dispatched to a worker (or process_all) and not yet
  /// finished; paired with queue_ scans by ticket_pending_locked().
  std::unordered_set<std::uint64_t> running_;
  std::size_t in_flight_ = 0;
  std::uint64_t completed_ = 0;
  /// Finished outcomes not yet taken, by ticket.
  std::map<std::uint64_t, Outcome> outcomes_;
  std::uint64_t next_ticket_ = 1;
  /// EWMA of recent per-query execution wall seconds (atomic double
  /// bits; updated outside mutex_ after each run).  Feeds the predictive
  /// half of maybe_shed(): a query whose remaining deadline budget is
  /// below the typical execution time cannot finish in time.
  std::atomic<std::uint64_t> exec_ewma_bits_{0};
};

}  // namespace adr
