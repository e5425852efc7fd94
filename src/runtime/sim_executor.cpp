#include "runtime/sim_executor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace adr {

SimExecutor::SimExecutor(sim::SimCluster* cluster, ChunkStore* store)
    : cluster_(cluster), store_(store) {
  assert(cluster_ != nullptr);
  if (store_ != nullptr && store_->num_disks() != cluster_->config().total_disks()) {
    throw std::invalid_argument("SimExecutor: store disk count != cluster disk count");
  }
  caches_.resize(static_cast<size_t>(cluster_->num_nodes()));
}

int SimExecutor::num_nodes() const { return cluster_->num_nodes(); }

void SimExecutor::post(int node, Task task) {
  (void)node;  // single-threaded simulation: node context is implicit
  cluster_->sim().schedule(0, std::move(task));
}

bool SimExecutor::cache_lookup(int node, std::uint64_t key) {
  if (cluster_->config().disk_cache_bytes == 0) return false;
  NodeCache& cache = caches_[static_cast<size_t>(node)];
  auto it = cache.index.find(key);
  if (it == cache.index.end()) return false;
  cache.lru.splice(cache.lru.begin(), cache.lru, it->second);  // touch
  return true;
}

void SimExecutor::cache_insert(int node, std::uint64_t key, std::uint64_t bytes) {
  const std::uint64_t capacity = cluster_->config().disk_cache_bytes;
  if (capacity == 0 || bytes > capacity) return;
  NodeCache& cache = caches_[static_cast<size_t>(node)];
  auto it = cache.index.find(key);
  if (it != cache.index.end()) {
    cache.lru.splice(cache.lru.begin(), cache.lru, it->second);
    return;
  }
  while (cache.resident + bytes > capacity && !cache.lru.empty()) {
    const NodeCache::Entry& victim = cache.lru.back();
    cache.resident -= victim.bytes;
    cache.index.erase(victim.key);
    cache.lru.pop_back();
  }
  cache.lru.push_front(NodeCache::Entry{key, bytes});
  cache.index[key] = cache.lru.begin();
  cache.resident += bytes;
}

void SimExecutor::read(int node, int global_disk, ChunkId id, std::uint64_t bytes,
                       ReadCallback done) {
  assert(cluster_->node_of_disk(global_disk) == node);
  ChunkStore* store = store_;
  auto deliver = [store, global_disk, id, done = std::move(done)]() {
    if (store != nullptr) {
      done(store->get(global_disk, id));
    } else {
      done(std::nullopt);
    }
  };

  const std::uint64_t key = cache_key(global_disk, id);
  if (cache_lookup(node, key)) {
    ++cache_hits_;
    // Buffer-cache hit: a memory copy instead of a disk access.
    cluster_->sim().schedule(sim::from_micros(50.0), std::move(deliver));
    return;
  }
  ++cache_misses_;
  sim::DiskModel& disk = cluster_->node(node).disk(cluster_->local_disk(global_disk));
  disk.read(bytes, [this, node, key, bytes, deliver = std::move(deliver)]() mutable {
    cache_insert(node, key, bytes);
    deliver();
  });
}

void SimExecutor::write(int node, int global_disk, Chunk chunk, Task done) {
  assert(cluster_->node_of_disk(global_disk) == node);
  sim::DiskModel& disk = cluster_->node(node).disk(cluster_->local_disk(global_disk));
  const std::uint64_t bytes = chunk.meta().bytes;
  // Write-through: the written chunk is warm in the buffer cache.
  cache_insert(node, cache_key(global_disk, chunk.meta().id), bytes);
  ChunkStore* store = store_;
  disk.write(bytes, [store, chunk = std::move(chunk), done = std::move(done)]() mutable {
    if (store != nullptr) store->put(std::move(chunk));
    done();
  });
}

void SimExecutor::send(Message msg) {
  assert(handler_ != nullptr);
  assert(msg.src >= 0 && msg.src < num_nodes());
  assert(msg.dst >= 0 && msg.dst < num_nodes());
  if (msg.src == msg.dst) {
    // Local delivery costs no network time.
    cluster_->sim().schedule(0, [this, msg = std::move(msg)]() { handler_(msg); });
    return;
  }
  sim::NicModel& src_nic = cluster_->node(msg.src).nic();
  sim::NicModel& dst_nic = cluster_->node(msg.dst).nic();
  src_nic.send(dst_nic, msg.bytes, [this, msg = std::move(msg)]() { handler_(msg); });
}

void SimExecutor::set_message_handler(MessageHandler handler) {
  handler_ = std::move(handler);
}

void SimExecutor::compute(int node, double cost_seconds, Task done) {
  assert(cost_seconds >= 0.0);
  const double speed = cluster_->config().cpu_speed;
  const sim::SimDuration d = sim::from_seconds(cost_seconds / speed);
  cluster_->node(node).cpu().acquire(d, std::move(done));
}

void SimExecutor::window_sync(int node, int epoch, int lag, Task done) {
  if (epoch_completed_.empty()) epoch_completed_.assign(static_cast<size_t>(num_nodes()), -1);
  epoch_completed_[static_cast<size_t>(node)] =
      std::max(epoch_completed_[static_cast<size_t>(node)], epoch);
  window_waiters_.push_back(WindowWaiter{epoch, lag, std::move(done)});
  const int min_done = *std::min_element(epoch_completed_.begin(), epoch_completed_.end());
  std::vector<Task> ready;
  std::erase_if(window_waiters_, [min_done, &ready](WindowWaiter& w) {
    if (w.epoch - w.lag <= min_done) {
      ready.push_back(std::move(w.task));
      return true;
    }
    return false;
  });
  for (Task& t : ready) cluster_->sim().schedule(0, std::move(t));
}

void SimExecutor::finish(int node) {
  (void)node;
  ++finished_;
}

double SimExecutor::run(std::function<void(int)> entry) {
  finished_ = 0;
  epoch_completed_.clear();
  const sim::SimTime start = cluster_->sim().now();
  for (int n = 0; n < num_nodes(); ++n) {
    cluster_->sim().schedule(0, [entry, n]() { entry(n); });
  }
  cluster_->sim().run();
  if (finished_ != num_nodes()) {
    throw std::logic_error("SimExecutor: simulation drained with " +
                           std::to_string(num_nodes() - finished_) +
                           " node(s) unfinished (engine deadlock)");
  }
  return sim::to_seconds(cluster_->sim().now() - start);
}

double SimExecutor::now_seconds() const { return sim::to_seconds(cluster_->sim().now()); }

}  // namespace adr
