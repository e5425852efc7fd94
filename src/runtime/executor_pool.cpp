#include "runtime/executor_pool.hpp"

#include <stdexcept>

#include "common/fault.hpp"
#include "obs/metrics.hpp"

namespace adr {
namespace {

// Cumulative, process-wide series (metric catalog: docs/observability.md).
struct PoolMetrics {
  obs::Counter& leases;
  obs::Counter& warm_leases;
  obs::Counter& cold_leases;
  obs::Gauge& resident;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{obs::metrics().counter("executor_pool.leases"),
                       obs::metrics().counter("executor_pool.warm_leases"),
                       obs::metrics().counter("executor_pool.cold_leases"),
                       obs::metrics().gauge("executor_pool.resident")};
  return m;
}

}  // namespace

ThreadExecutorPool::ThreadExecutorPool(int num_nodes, int disks_per_node,
                                       ChunkStore* store)
    : num_nodes_(num_nodes), disks_per_node_(disks_per_node), store_(store) {
  if (num_nodes_ < 1 || disks_per_node_ < 1) {
    throw std::invalid_argument("ThreadExecutorPool: bad machine shape");
  }
}

ThreadExecutorPool::~ThreadExecutorPool() {
  std::lock_guard<std::mutex> lock(mutex_);
  pool_metrics().resident.add(-static_cast<std::int64_t>(idle_.size()));
}

ThreadExecutorPool::Lease ThreadExecutorPool::acquire() {
  // Injectable lease failure (arm with kBusy to emulate a saturated
  // farm): checked before any pool state mutates, so a refused lease
  // leaves counters and the idle list untouched.
  fault::faults().check("runtime.lease");
  std::unique_ptr<ThreadExecutor> executor;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++leases_;
    pool_metrics().leases.add();
    if (!idle_.empty()) {
      executor = std::move(idle_.back());
      idle_.pop_back();
      ++reuses_;
      pool_metrics().warm_leases.add();
      pool_metrics().resident.add(-1);
    } else {
      ++created_;
      pool_metrics().cold_leases.add();
    }
  }
  // Construction (thread spawn) happens outside the pool lock.
  if (executor == nullptr) {
    executor = std::make_unique<ThreadExecutor>(num_nodes_, disks_per_node_, store_);
  }
  return Lease(this, std::move(executor));
}

void ThreadExecutorPool::release(std::unique_ptr<ThreadExecutor> executor) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(executor));
  pool_metrics().resident.add(1);
}

ThreadExecutorPool::Stats ThreadExecutorPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.created = created_;
  s.leases = leases_;
  s.reuses = reuses_;
  s.resident = idle_.size();
  return s;
}

}  // namespace adr
