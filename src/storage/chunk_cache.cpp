#include "storage/chunk_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <mutex>
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

constexpr std::uint32_t kNil = UINT32_MAX;

}  // namespace

struct CachingChunkStore::Shard {
  /// A cached chunk.
  struct Slot {
    ChunkMeta meta;
    Chunk::Payload payload;
    std::uint64_t charged_bytes = 0;
  };
  /// LRU neighbours of slot k, kept apart from the slots so an LRU touch
  /// stays in one small dense array.  Free slots chain through `next`.
  struct Link {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  /// Index cell: `slot == kNil` marks it empty.
  struct Cell {
    ChunkId id;
    std::uint32_t slot = kNil;
  };

  mutable std::mutex mutex;
  std::vector<Slot> slots;
  std::vector<Link> links;  // parallel to `slots`
  std::vector<Cell> index;  // power-of-two size, at most half full
  int index_shift = 64;     // 64 - log2(index.size())
  std::uint32_t free_head = kNil;
  std::uint32_t mru = kNil;
  std::uint32_t lru = kNil;
  std::uint64_t live = 0;
  std::uint64_t bytes = 0;
  /// Bumped by every put and erase: a miss installs its fetch only if
  /// the generation it saw before fetching is still current.
  std::uint64_t generation = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t invalidations = 0;

  std::size_t home(ChunkId id) const {
    // Fibonacci hashing: the top bits of a multiplicative mix.
    const std::uint64_t key = (static_cast<std::uint64_t>(id.dataset) << 32) | id.index;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> index_shift);
  }
  std::size_t next_cell(std::size_t i) const { return (i + 1) & (index.size() - 1); }

  /// Index position holding `id`, or index.size() when absent.
  std::size_t find_cell(ChunkId id) const {
    if (index.empty()) return index.size();
    for (std::size_t i = home(id);; i = next_cell(i)) {
      if (index[i].slot == kNil) return index.size();
      if (index[i].id == id) return i;
    }
  }

  std::uint32_t find(ChunkId id) const {
    const std::size_t i = find_cell(id);
    return i < index.size() ? index[i].slot : kNil;
  }

  void index_insert(ChunkId id, std::uint32_t slot) {
    std::size_t i = home(id);
    while (index[i].slot != kNil) i = next_cell(i);
    index[i] = {id, slot};
  }

  /// Backward-shift deletion: pull each later cell of the probe run into
  /// the hole when its home lies at or before the hole, so lookups never
  /// need tombstones.
  void index_erase(std::size_t hole) {
    const std::size_t mask = index.size() - 1;
    for (std::size_t j = next_cell(hole); index[j].slot != kNil; j = next_cell(j)) {
      const std::size_t h = home(index[j].id);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        index[hole] = index[j];
        hole = j;
      }
    }
    index[hole].slot = kNil;
  }

  /// Keeps the index at most half full after one more insert.
  void reserve_one() {
    if (2 * (live + 1) <= index.size()) return;
    std::vector<Cell> old(std::max<std::size_t>(16, 2 * index.size()));
    old.swap(index);
    index_shift = 64 - std::countr_zero(index.size());
    for (const Cell& c : old) {
      if (c.slot != kNil) index_insert(c.id, c.slot);
    }
  }

  void unlink(std::uint32_t s) {
    const Link link = links[s];
    (link.prev == kNil ? mru : links[link.prev].next) = link.next;
    (link.next == kNil ? lru : links[link.next].prev) = link.prev;
  }

  void push_front(std::uint32_t s) {
    links[s] = {kNil, mru};
    (mru == kNil ? lru : links[mru].prev) = s;
    mru = s;
  }

  void touch(std::uint32_t s) {
    if (s == mru) return;
    unlink(s);
    push_front(s);
  }

  /// Drops the entry at index position `cell`; its payload moves to
  /// `released` so the buffer is freed after the lock drops.
  void remove_cell(std::size_t cell, std::vector<Chunk::Payload>& released) {
    const std::uint32_t s = index[cell].slot;
    Slot& slot = slots[s];
    released.push_back(std::move(slot.payload));
    index_erase(cell);
    unlink(s);
    bytes -= slot.charged_bytes;
    --live;
    cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(slot.charged_bytes));
    cache_metrics().resident_chunks.add(-1);
    links[s].next = free_head;
    free_head = s;
  }

  /// Inserts `chunk` (absent from the shard) as most recently used,
  /// evicting from the LRU end until it fits `budget`.
  void install(const Chunk& chunk, std::uint64_t cost, std::uint64_t budget,
               std::vector<Chunk::Payload>& released) {
    if (cost > budget) return;  // larger than the whole budget
    while (bytes + cost > budget) {
      assert(lru != kNil);
      remove_cell(find_cell(slots[lru].meta.id), released);
      ++evictions;
      cache_metrics().evictions.add();
    }
    reserve_one();
    std::uint32_t s = free_head;
    if (s != kNil) {
      free_head = links[s].next;
    } else {
      s = static_cast<std::uint32_t>(slots.size());
      links.emplace_back();  // first: a throw below leaves links[s] valid
      slots.emplace_back();
    }
    slots[s].meta = chunk.meta();
    slots[s].payload = chunk.shared_payload();
    slots[s].charged_bytes = cost;
    push_front(s);
    index_insert(chunk.meta().id, s);
    bytes += cost;
    ++live;
    ++insertions;
    cache_metrics().insertions.add();
    cache_metrics().resident_bytes.add(static_cast<std::int64_t>(cost));
    cache_metrics().resident_chunks.add(1);
  }

  /// Empties the shard; its slots (and their buffers) move to `released`.
  void reset(std::vector<Slot>& released) {
    cache_metrics().resident_bytes.add(-static_cast<std::int64_t>(bytes));
    cache_metrics().resident_chunks.add(-static_cast<std::int64_t>(live));
    released.swap(slots);
    links.clear();
    index.clear();
    index_shift = 64;
    free_head = mru = lru = kNil;
    live = 0;
    bytes = 0;
  }
};

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
    cache_metrics().resident_chunks.add(-static_cast<std::int64_t>(shard->live));
  }
}

void CachingChunkStore::put(Chunk chunk) {
  const int disk = chunk.meta().disk;
  if (disk < 0 || disk >= num_disks()) {
    // Let the backing store produce its usual error for bad placements.
    backing_->put(std::move(chunk));
    return;
  }
  Shard& shard = shard_of(disk);
  // Declared before the lock, so replaced buffers are freed after it drops.
  std::vector<Chunk::Payload> released;
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.generation;
  // Write-through first: backing is ground truth.  An uncached id (every
  // put of a dataset load) is not cached by the put either.
  const std::size_t cell = shard.find_cell(chunk.meta().id);
  if (cell == shard.index.size()) {
    backing_->put(std::move(chunk));
    return;
  }
  backing_->put(chunk);
  // Coherence on overwrite of a cached id: refresh in place.
  ++shard.invalidations;
  cache_metrics().invalidations.add();
  shard.remove_cell(cell, released);
  shard.install(chunk, charge(chunk), bytes_per_disk_, released);
}

std::optional<Chunk> CachingChunkStore::get(int disk, ChunkId id) const {
  if (disk < 0 || disk >= num_disks()) return backing_->get(disk, id);
  Shard& shard = shard_of(disk);
  std::uint64_t generation = 0;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    const std::uint32_t s = shard.find(id);
    if (s != kNil) {
      shard.touch(s);
      Chunk hit(shard.slots[s].meta, shard.slots[s].payload);
      const std::uint64_t size = hit.payload().size();
      ++shard.hits;
      shard.hit_bytes += size;
      lock.unlock();
      cache_metrics().hits.add();
      cache_metrics().hit_bytes.add(size);
      return hit;
    }
    ++shard.misses;
    generation = shard.generation;
  }
  cache_metrics().misses.add();
  // A failed backing fetch must never populate the shard: a fault that
  // throws below (or the injected one here, between the fetch and the
  // install) would otherwise be masked for every later reader, serving
  // bytes the "disk" never delivered.
  std::optional<Chunk> chunk = backing_->get(disk, id);
  fault::faults().check("storage.cache_fetch");
  if (!chunk.has_value()) return chunk;
  const std::uint64_t size = chunk->payload().size();
  cache_metrics().miss_bytes.add(size);
  std::vector<Chunk::Payload> released;
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.miss_bytes += size;
  // A put or erase since the fetch began may have replaced these bytes;
  // a concurrent miss may have installed them already.
  if (shard.generation == generation && shard.find(id) == kNil) {
    shard.install(*chunk, charge(*chunk), bytes_per_disk_, released);
  }
  return chunk;
}

bool CachingChunkStore::contains(int disk, ChunkId id) const {
  return backing_->contains(disk, id);
}

bool CachingChunkStore::erase(int disk, ChunkId id) {
  if (disk < 0 || disk >= num_disks()) return backing_->erase(disk, id);
  Shard& shard = shard_of(disk);
  std::vector<Chunk::Payload> released;
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.generation;
  const std::size_t cell = shard.find_cell(id);
  if (cell < shard.index.size()) {
    ++shard.invalidations;
    cache_metrics().invalidations.add();
    shard.remove_cell(cell, released);
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
    total.resident_chunks += shard->live;
  }
  return total;
}

void CachingChunkStore::clear() {
  for (const auto& shard : shards_) {
    std::vector<Shard::Slot> released;
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->reset(released);
  }
}

}  // namespace adr
