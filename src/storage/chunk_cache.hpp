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
// Layout: each per-disk shard keeps its entries in a flat slot array
// recycled through a free list.  An open-addressing index (linear
// probing, backward-shift deletion) maps ChunkId to a slot, and the LRU
// order is a doubly linked list of slot numbers held in a dense array
// beside the slots, so no entry allocates a node and eviction order is
// exact LRU.  Payloads are immutable and shared (Chunk): a hit hands out
// a reference to the cached buffer, and an install keeps a reference to
// the fetched one — neither copies bytes.
//
// Thread safety: fully thread-safe.  No shard lock is held across a
// backing get: a miss records the shard's generation, fetches unlocked,
// and installs only if no put or erase bumped the generation meanwhile,
// so a fetch that raced a write never caches stale bytes.  put() and
// erase() hold the shard lock across the backing write, so the cache and
// the backing store see writes to one disk in the same order.  Lock
// order: shard mutex -> backing store's disk mutex (the backing store
// never calls back into the cache).  Evicted and replaced buffers are
// released after the shard lock drops.  In FileChunkStore the per-disk
// mutex guards only the offset table; payload I/O runs unlocked with
// pread/pwrite.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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
  /// Memory charged to a cached chunk beyond its payload (slot, index
  /// cell and metadata) so metadata-only chunks still have a cost.
  static constexpr std::uint64_t kEntryOverheadBytes = 64;

  /// One disk's entries, index and counters (chunk_cache.cpp).
  struct Shard;

  static std::uint64_t charge(const Chunk& chunk) {
    return chunk.payload().size() + kEntryOverheadBytes;
  }

  Shard& shard_of(int disk) const { return *shards_[static_cast<std::size_t>(disk)]; }

  ChunkStore* backing_;
  std::uint64_t bytes_per_disk_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adr
