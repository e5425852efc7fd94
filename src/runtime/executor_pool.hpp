// Persistent pool of warm ThreadExecutors.
//
// The seed built a fresh ThreadExecutor per submit — spawning and joining
// num_nodes OS threads per query.  ADR is a long-lived service: queries
// arrive continuously, so the node-thread pools should persist.  This
// pool hands out exclusive leases on warm executors:
//
//   * acquire() returns an idle warm executor when one exists, otherwise
//     constructs a new one.  It NEVER blocks — concurrency is whatever
//     the callers ask for, exactly as with per-query executors, so a
//     query stalled inside the engine (e.g. a blocking aggregation)
//     cannot deadlock unrelated queries.
//   * release() always keeps the executor warm.  A query runs only while
//     a caller holds a lease, so the pool grows to the peak number of
//     concurrent queries and stays there — no cap to tune.
//
// A lease is exclusive: two queries never interleave one executor's
// sliding-window epochs.  Thread safety: acquire/release/
// stats are internally locked; the leased executor itself is used by one
// query at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/thread_executor.hpp"

namespace adr {

class ThreadExecutorPool {
 public:
  struct Stats {
    /// Executors constructed so far (each construction spawns threads).
    std::uint64_t created = 0;
    /// Total acquire() calls.
    std::uint64_t leases = 0;
    /// acquire() calls served by a warm executor (no thread spawn).
    std::uint64_t reuses = 0;
    /// Warm executors currently idle in the pool.
    std::size_t resident = 0;
  };

  /// Executors are built as ThreadExecutor(num_nodes, disks_per_node,
  /// store); `store` may be null (metadata-only) and must outlive the
  /// pool.  Construction spawns nothing; the first acquire() does.
  ThreadExecutorPool(int num_nodes, int disks_per_node, ChunkStore* store);
  ~ThreadExecutorPool();

  ThreadExecutorPool(const ThreadExecutorPool&) = delete;
  ThreadExecutorPool& operator=(const ThreadExecutorPool&) = delete;

  /// RAII lease: returns the executor to the pool on destruction.
  class Lease {
   public:
    Lease(ThreadExecutorPool* pool, std::unique_ptr<ThreadExecutor> executor)
        : pool_(pool), executor_(std::move(executor)) {}
    ~Lease() {
      if (executor_ != nullptr) pool_->release(std::move(executor_));
    }
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ThreadExecutor& operator*() { return *executor_; }
    ThreadExecutor* operator->() { return executor_.get(); }

   private:
    ThreadExecutorPool* pool_;
    std::unique_ptr<ThreadExecutor> executor_;
  };

  /// Never blocks: reuses a warm executor or constructs a fresh one.
  Lease acquire();

  Stats stats() const;

 private:
  friend class Lease;
  void release(std::unique_ptr<ThreadExecutor> executor);

  const int num_nodes_;
  const int disks_per_node_;
  ChunkStore* const store_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadExecutor>> idle_;
  std::uint64_t created_ = 0;
  std::uint64_t leases_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace adr
