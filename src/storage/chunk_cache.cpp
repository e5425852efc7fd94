#include "storage/chunk_cache.hpp"

#include <cassert>
#include <stdexcept>

#include "common/fault.hpp"
#include "obs/metrics.hpp"

namespace adr {
namespace {

// Cumulative process-wide series folding every cache instance's shard
// counters (metric catalog: docs/observability.md).  The per-instance
// ChunkCacheStats stay exact per cache; these are what the stats
// endpoint and long-running dashboards read.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& hit_bytes;
  obs::Counter& miss_bytes;
  obs::Counter& evictions;
  obs::Counter& insertions;
  obs::Counter& invalidations;
  obs::Gauge& resident_bytes;
  obs::Gauge& resident_chunks;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m{obs::metrics().counter("chunk_cache.hits"),
                        obs::metrics().counter("chunk_cache.misses"),
                        obs::metrics().counter("chunk_cache.hit_bytes"),
                        obs::metrics().counter("chunk_cache.miss_bytes"),
                        obs::metrics().counter("chunk_cache.evictions"),
                        obs::metrics().counter("chunk_cache.insertions"),
                        obs::metrics().counter("chunk_cache.invalidations"),
                        obs::metrics().gauge("chunk_cache.resident_bytes"),
                        obs::metrics().gauge("chunk_cache.resident_chunks")};
  return m;
}

}  // namespace

CachingChunkStore::CachingChunkStore(ChunkStore& backing, std::uint64_t bytes_per_disk)
    : backing_(&backing), bytes_per_disk_(bytes_per_disk) {
  if (backing_->num_disks() < 1) {
    throw std::invalid_argument("CachingChunkStore: backing store has no disks");
  }
  shards_.reserve(static_cast<std::size_t>(backing_->num_disks()));
  for (int d = 0; d < backing_->num_disks(); ++d) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

CachingChunkStore::~CachingChunkStore() {
  // Residency gauges are process-wide; give back what this instance
  // still holds so a destroyed repository doesn't leak phantom bytes.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(shard->bytes));
    cache_metrics().resident_chunks.add(
        -static_cast<std::int64_t>(shard->entries.size()));
  }
}

void CachingChunkStore::remove_locked(Shard& shard, ChunkId id) const {
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return;
  shard.bytes -= it->second.charged_bytes;
  cache_metrics().resident_bytes.add(
      -static_cast<std::int64_t>(it->second.charged_bytes));
  cache_metrics().resident_chunks.add(-1);
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
}

void CachingChunkStore::install_locked(Shard& shard, const Chunk& chunk) const {
  const std::uint64_t cost = charge(chunk);
  remove_locked(shard, chunk.meta().id);  // refresh: drop any stale copy
  if (cost > bytes_per_disk_) return;     // larger than the whole budget
  while (shard.bytes + cost > bytes_per_disk_) {
    assert(!shard.lru.empty());
    remove_locked(shard, shard.lru.back());
    ++shard.evictions;
    cache_metrics().evictions.add();
  }
  shard.lru.push_front(chunk.meta().id);
  Entry entry{chunk, shard.lru.begin(), cost};
  shard.bytes += cost;
  shard.entries.emplace(chunk.meta().id, std::move(entry));
  ++shard.insertions;
  cache_metrics().insertions.add();
  cache_metrics().resident_bytes.add(static_cast<std::int64_t>(cost));
  cache_metrics().resident_chunks.add(1);
}

void CachingChunkStore::put(Chunk chunk) {
  const int disk = chunk.meta().disk;
  if (disk < 0 || disk >= num_disks()) {
    // Let the backing store produce its usual error for bad placements.
    backing_->put(std::move(chunk));
    return;
  }
  Shard& shard = shard_of(disk);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // Write-through first: backing is ground truth.  An uncached id (every
  // put of a dataset load) hands its payload over without a copy; the
  // shard lock keeps it uncached until the backing put is done.
  if (!shard.entries.contains(chunk.meta().id)) {
    backing_->put(std::move(chunk));
    return;
  }
  backing_->put(chunk);
  // Coherence on overwrite of a cached id: refresh in place.
  ++shard.invalidations;
  cache_metrics().invalidations.add();
  install_locked(shard, chunk);
}

std::optional<Chunk> CachingChunkStore::get(int disk, ChunkId id) const {
  if (disk < 0 || disk >= num_disks()) return backing_->get(disk, id);
  Shard& shard = shard_of(disk);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(id);
  if (it != shard.entries.end()) {
    ++shard.hits;
    shard.hit_bytes += it->second.chunk.payload().size();
    cache_metrics().hits.add();
    cache_metrics().hit_bytes.add(it->second.chunk.payload().size());
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return it->second.chunk;
  }
  ++shard.misses;
  cache_metrics().misses.add();
  // A failed backing fetch must never populate the shard: a fault that
  // throws below (or the injected one here, between the fetch and the
  // install) would otherwise be masked for every later reader, serving
  // bytes the "disk" never delivered.
  std::optional<Chunk> chunk = backing_->get(disk, id);
  fault::faults().check("storage.cache_fetch");
  if (chunk.has_value()) {
    shard.miss_bytes += chunk->payload().size();
    cache_metrics().miss_bytes.add(chunk->payload().size());
    install_locked(shard, *chunk);
  }
  return chunk;
}

bool CachingChunkStore::contains(int disk, ChunkId id) const {
  return backing_->contains(disk, id);
}

bool CachingChunkStore::erase(int disk, ChunkId id) {
  if (disk < 0 || disk >= num_disks()) return backing_->erase(disk, id);
  Shard& shard = shard_of(disk);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(id);
  if (it != shard.entries.end()) {
    ++shard.invalidations;
    cache_metrics().invalidations.add();
    remove_locked(shard, id);
  }
  return backing_->erase(disk, id);
}

std::size_t CachingChunkStore::chunk_count(int disk) const {
  return backing_->chunk_count(disk);
}

std::uint64_t CachingChunkStore::bytes_on_disk(int disk) const {
  return backing_->bytes_on_disk(disk);
}

ChunkCacheStats CachingChunkStore::stats() const {
  ChunkCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.hit_bytes += shard->hit_bytes;
    total.miss_bytes += shard->miss_bytes;
    total.evictions += shard->evictions;
    total.insertions += shard->insertions;
    total.invalidations += shard->invalidations;
    total.resident_bytes += shard->bytes;
    total.resident_chunks += shard->entries.size();
  }
  return total;
}

void CachingChunkStore::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(shard->bytes));
    cache_metrics().resident_chunks.add(
        -static_cast<std::int64_t>(shard->entries.size()));
    shard->lru.clear();
    shard->entries.clear();
    shard->bytes = 0;
  }
}

}  // namespace adr
