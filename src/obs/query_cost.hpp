// Per-query cost ledger: what one query actually cost, attributed.
//
// The cumulative metrics answer "how much work has the process done";
// the ledger answers "what did *this* query spend" — the attribution the
// marginal cache, the router, and the self-tuning scheduler need.  The
// repository, which runs every query on the thread executor, fills one
// ledger per QueryResult from the deltas it already computes (chunk-cache
// hit/miss, marginal consults) plus the executor's wall and thread-CPU
// clocks, and emits the totals as the `query.cost.*` metric family on
// submit success.  The simulator (emu::run_scenario) keeps no ledger.
//
// Queue wait crosses from the scheduler into Repository::submit through
// a thread-local context, exactly like obs::set_trace_query: the worker
// deposits the measured wait before calling submit on the same thread.
#pragma once

#include <cstdint>

namespace adr::obs {

/// The attributed cost of one completed query.  Byte/chunk counts
/// reconcile with the cumulative `chunk_cache.*` / `storage.*` series
/// (the serial-submit telemetry test asserts it); under concurrent
/// submits the cache attribution is approximate, like
/// ExecStats::cache_*.
struct QueryCostLedger {
  /// Chunks (and their payload bytes) that missed the chunk cache and
  /// were fetched from the backing store.  With the cache disabled,
  /// every engine read counts here.
  std::uint64_t cold_chunks = 0;
  std::uint64_t cold_bytes = 0;
  /// Chunks (payload bytes) served from the cross-query chunk cache.
  std::uint64_t cached_chunks = 0;
  std::uint64_t cached_bytes = 0;
  /// Output chunks served from marginal-cache partials, and the input
  /// payload bytes those partials saved (read + aggregation skipped).
  std::uint64_t marginal_chunks = 0;
  std::uint64_t marginal_bytes_saved = 0;
  /// Local-reduction (input chunk, accumulator) pairs aggregated.
  std::uint64_t aggregate_pairs = 0;
  /// Scheduler queue wait (0 for direct Repository::submit calls).
  double queue_wait_s = 0.0;
  /// Executor wall time (== stats.total_s) and the node threads' summed
  /// CPU time for the run (0 where per-thread CPU clocks are unreadable).
  double exec_wall_s = 0.0;
  double thread_cpu_s = 0.0;
  /// Submit attempts that produced this result.  Server-side execution
  /// is always 1; AdrClient's retry loop reports its count on
  /// WireResult::attempts (client.* series), not here.
  std::uint32_t attempts = 1;

  std::uint64_t total_chunks() const { return cold_chunks + cached_chunks; }
  std::uint64_t total_bytes() const { return cold_bytes + cached_bytes; }
};

/// Deposits the queue wait the next Repository::submit on this thread
/// should attribute (the scheduler worker calls this just before
/// submitting, and clears it after).
void set_cost_queue_wait(double seconds);
/// The deposited wait (0 when none).
double cost_queue_wait();

}  // namespace adr::obs
