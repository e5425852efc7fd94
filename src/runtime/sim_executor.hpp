// Discrete-event-simulation executor.
//
// Runs the query engine in virtual time on a modelled cluster: reads queue
// on the owning disk's FCFS server, sends traverse the sender egress /
// switch latency / receiver ingress path, and compute occupies the node's
// CPU.  An optional ChunkStore supplies real payloads; without one the
// executor runs metadata-only (counts and times are still exact).
#pragma once

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/executor.hpp"
#include "sim/cluster.hpp"
#include "storage/disk_store.hpp"

namespace adr {

class SimExecutor : public Executor {
 public:
  /// `store` may be null for metadata-only simulation.
  SimExecutor(sim::SimCluster* cluster, ChunkStore* store);

  int num_nodes() const override;
  void post(int node, Task task) override;
  void read(int node, int global_disk, ChunkId id, std::uint64_t bytes,
            ReadCallback done) override;
  void write(int node, int global_disk, Chunk chunk, Task done) override;
  void send(Message msg) override;
  void set_message_handler(MessageHandler handler) override;
  void compute(int node, double cost_seconds, Task done) override;
  void window_sync(int node, int epoch, int lag, Task done) override;
  void finish(int node) override;
  double run(std::function<void(int)> entry) override;
  double now_seconds() const override;

  sim::SimCluster& cluster() { return *cluster_; }

  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }

 private:
  /// Per-node LRU buffer cache over (disk, chunk) keys, modelling the
  /// node's file-system cache.  Enabled by ClusterConfig::disk_cache_bytes.
  struct NodeCache {
    struct Entry {
      std::uint64_t key;
      std::uint64_t bytes;
    };
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::uint64_t resident = 0;
  };
  static std::uint64_t cache_key(int global_disk, ChunkId id) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(global_disk)) << 40) ^
           (static_cast<std::uint64_t>(id.dataset) << 32) ^ id.index;
  }
  bool cache_lookup(int node, std::uint64_t key);
  void cache_insert(int node, std::uint64_t key, std::uint64_t bytes);
  sim::SimCluster* cluster_;
  ChunkStore* store_;
  MessageHandler handler_;
  // Sliding-window state: highest epoch completed per node, plus parked
  // callbacks waiting for the window to advance.
  struct WindowWaiter {
    int epoch;
    int lag;
    Task task;
  };
  std::vector<int> epoch_completed_;
  std::vector<WindowWaiter> window_waiters_;
  std::vector<NodeCache> caches_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  int finished_ = 0;
};

}  // namespace adr
