// Cross-query chunk cache (the buffer cache the paper flushed away,
// rebuilt for the serving path).
//
// CachingChunkStore decorates any ChunkStore with a sharded LRU payload
// cache: one shard per disk of the farm, each with its own lock and byte
// budget, so node threads reading from different disks never contend.
// Reads that hit serve from memory; misses fall through to the backing
// store and populate the shard.  put() is write-through and updates an
// already-cached id in place (a put of an uncached id does not allocate
// cache space — query outputs don't pollute the read cache); erase()
// invalidates.  The cache sits *below* the engine: plan chunk-read counts
// and ExecStats::chunks_read are unchanged, only where the bytes come
// from changes — exactly the layering bench/ablation_caching.cpp modelled
// in the simulator.
//
// Thread safety: fully thread-safe.  Lock order: shard mutex -> backing
// store's disk mutex (a shard lock is held across the backing get on a
// miss; the backing store never calls back into the cache).  In
// FileChunkStore that per-disk mutex guards only the offset table, and
// payload I/O runs unlocked with pread/pwrite.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/disk_store.hpp"

namespace adr {

/// Monotonic counters, aggregated over all shards.
struct ChunkCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Payload bytes served from memory (hits) vs fetched from the
  /// backing store (misses) — the byte-level split the per-query cost
  /// ledger reconciles against (obs/query_cost.hpp).
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t invalidations = 0;
  /// Point-in-time occupancy.
  std::uint64_t resident_bytes = 0;
  std::uint64_t resident_chunks = 0;
};

class CachingChunkStore : public ChunkStore {
 public:
  /// Wraps `backing` (not owned; must outlive the cache) with one LRU
  /// shard per backing disk, each budgeted `bytes_per_disk`.
  CachingChunkStore(ChunkStore& backing, std::uint64_t bytes_per_disk);
  ~CachingChunkStore() override;

  void put(Chunk chunk) override;
  std::optional<Chunk> get(int disk, ChunkId id) const override;
  bool contains(int disk, ChunkId id) const override;
  bool erase(int disk, ChunkId id) override;
  std::size_t chunk_count(int disk) const override;
  std::uint64_t bytes_on_disk(int disk) const override;
  int num_disks() const override { return backing_->num_disks(); }

  ChunkStore& backing() { return *backing_; }
  std::uint64_t bytes_per_disk() const { return bytes_per_disk_; }

  ChunkCacheStats stats() const;

  /// Drops every cached payload (counters keep counting).
  void clear();

 private:
  /// Memory charged to a cached chunk beyond its payload (map/list node
  /// and metadata overhead) so metadata-only chunks still have a cost.
  static constexpr std::uint64_t kEntryOverheadBytes = 64;

  struct Entry {
    Chunk chunk;
    std::list<ChunkId>::iterator lru_pos;
    std::uint64_t charged_bytes = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<ChunkId> lru;  // front = most recently used
    std::unordered_map<ChunkId, Entry, ChunkIdHash> entries;
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t hit_bytes = 0;
    std::uint64_t miss_bytes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t invalidations = 0;
  };

  static std::uint64_t charge(const Chunk& chunk) {
    return chunk.payload().size() + kEntryOverheadBytes;
  }

  Shard& shard_of(int disk) const { return *shards_[static_cast<std::size_t>(disk)]; }
  /// Inserts or refreshes `chunk` in `shard`, evicting LRU entries until
  /// it fits.  Caller holds the shard mutex.
  void install_locked(Shard& shard, const Chunk& chunk) const;
  void remove_locked(Shard& shard, ChunkId id) const;

  ChunkStore* backing_;
  std::uint64_t bytes_per_disk_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adr
