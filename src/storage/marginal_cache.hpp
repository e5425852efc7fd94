// Semantic aggregate reuse: a cross-query cache of finalized
// per-accumulator-chunk partials (data-cube marginals).
//
// The chunk cache (storage/chunk_cache.hpp) reuses *bytes*; this layer
// reuses *aggregates*.  Because AggregationOp is associative and
// commutative, the post-global-combine accumulator a completed query
// holds for one output chunk is a pure function of (a) the aggregation
// operation, (b) the mapping function, and (c) the exact set of input
// chunks that contributed — it does not depend on the strategy, the
// tiling, or any other query parameter.  That makes
// it exactly a data-cube marginal: any later query whose range induces
// the same contributing set for that accumulator chunk can skip both the
// I/O and the compute for it and pay only for the fringe.
//
// Keying.  An entry is addressed by a 128-bit canonical signature mixed
// (MarginalSignature) from: the aggregation name, the map-function name,
// the output chunk identity (dataset id, shape version, chunk index,
// chunk bytes), and the sorted contributing input chunk set, each tagged
// with its dataset's id and *data version*.  Versions make invalidation
// O(1): writing a dataset's payloads bumps its data version, replacing a
// dataset (load_catalog over an existing id) bumps both versions, and
// every entry minted under the old version becomes unreachable — the LRU
// sweeps it out under byte pressure.  Two queries with the same range
// but a different map or aggregation mix different names and therefore
// never collide.
//
// Structure mirrors CachingChunkStore: fixed shards (keyed by signature
// bits, not disk — partials have no placement), each with its own lock,
// LRU list and byte budget.  Thread safety: fully thread-safe; the
// version table sits behind its own mutex, acquired before any shard
// lock (never the other way).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/disk_store.hpp"

namespace adr {

/// 128-bit canonical signature of one cached partial.
struct MarginalKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const MarginalKey&) const = default;
};

struct MarginalKeyHash {
  std::size_t operator()(const MarginalKey& k) const {
    // hi and lo are already well-mixed; fold them.
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Canonical signature hasher: a keyed streaming mix over the query
/// parameters that determine a partial's value.  Two independent lanes
/// give 128 bits, so accidental collisions are out of reach for any
/// realistic catalog.  Mixing is order-sensitive — callers must feed
/// fields in a canonical order (the cache's consult path sorts the
/// contributing chunk set before mixing).
class MarginalSignature {
 public:
  MarginalSignature();

  void mix(std::uint64_t value);
  void mix(std::string_view text);

  MarginalKey key() const { return MarginalKey{hi_, lo_}; }

 private:
  std::uint64_t hi_;
  std::uint64_t lo_;
};

/// A dataset's version pair as captured at consult time.
struct MarginalVersions {
  /// Bumped when the dataset's chunk payloads change (query write-back,
  /// chunk erase): partials computed *from* the dataset are stale.
  std::uint64_t data = 0;
  /// Bumped when the dataset's shape changes (replaced wholesale via
  /// load_catalog): partials *into* its chunks are stale too.
  std::uint64_t shape = 0;
};

/// Monotonic counters plus point-in-time occupancy, over all shards.
struct MarginalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t publishes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // dataset version bumps
  /// Input payload bytes whose read *and* aggregation were skipped
  /// because the covering partials were served from this cache.
  std::uint64_t bytes_saved = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t resident_entries = 0;
};

class MarginalCache {
 public:
  /// Total byte budget over `num_shards` LRU shards (each gets an equal
  /// slice, minimum one entry's overhead worth).
  explicit MarginalCache(std::uint64_t byte_budget, int num_shards = 8);
  ~MarginalCache();

  MarginalCache(const MarginalCache&) = delete;
  MarginalCache& operator=(const MarginalCache&) = delete;

  /// The cached partial for `key`, or nullopt.  Hits refresh LRU order.
  std::optional<std::vector<std::byte>> lookup(const MarginalKey& key);

  /// Installs a finalized partial (refreshing any stale copy), evicting
  /// LRU entries until it fits.  Oversized partials are dropped.
  void publish(const MarginalKey& key, std::vector<std::byte> partial);

  /// Current version pair for a dataset (zeros until first bump).
  MarginalVersions versions(std::uint32_t dataset_id) const;

  /// Dataset payloads changed (write-back, erase): bump data version.
  void invalidate_data(std::uint32_t dataset_id);

  /// Dataset replaced wholesale: bump data and shape versions.
  void invalidate_dataset(std::uint32_t dataset_id);

  /// Records input bytes not read because partials were served from the
  /// cache (kept here so the process-wide series stays in one place).
  void note_bytes_saved(std::uint64_t bytes);

  std::uint64_t byte_budget() const { return byte_budget_; }

  MarginalCacheStats stats() const;

  /// Drops every cached partial (counters and versions keep counting).
  void clear();

 private:
  /// Charged per entry beyond the partial payload (map/list node plus
  /// key/metadata overhead) so tiny partials still have a cost.
  static constexpr std::uint64_t kEntryOverheadBytes = 96;

  struct Entry {
    std::vector<std::byte> partial;
    std::list<MarginalKey>::iterator lru_pos;
    std::uint64_t charged_bytes = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<MarginalKey> lru;  // front = most recently used
    std::unordered_map<MarginalKey, Entry, MarginalKeyHash> entries;
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t publishes = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_of(const MarginalKey& key) const {
    return *shards_[static_cast<std::size_t>(key.hi % shards_.size())];
  }
  void remove_locked(Shard& shard, const MarginalKey& key) const;

  std::uint64_t byte_budget_;
  std::uint64_t bytes_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards versions_ and the invalidation/bytes-saved counters.
  mutable std::mutex version_mutex_;
  std::unordered_map<std::uint32_t, MarginalVersions> versions_;
  std::uint64_t invalidations_ = 0;
  std::uint64_t bytes_saved_ = 0;
};

/// ChunkStore decorator closing the out-of-band write hole: every
/// put/erase through the repository's store handle bumps the written
/// dataset's data version in the marginal cache, so partials computed
/// from the old payloads become unreachable exactly like they do for
/// query write-back.  Reads forward untouched (one virtual hop).
class MarginalInvalidatingStore : public ChunkStore {
 public:
  MarginalInvalidatingStore(ChunkStore& inner, MarginalCache& cache)
      : inner_(inner), cache_(cache) {}

  void put(Chunk chunk) override {
    const std::uint32_t dataset = chunk.meta().id.dataset;
    inner_.put(std::move(chunk));
    cache_.invalidate_data(dataset);
  }

  std::optional<Chunk> get(int disk, ChunkId id) const override {
    return inner_.get(disk, id);
  }

  bool contains(int disk, ChunkId id) const override {
    return inner_.contains(disk, id);
  }

  bool erase(int disk, ChunkId id) override {
    const bool existed = inner_.erase(disk, id);
    if (existed) cache_.invalidate_data(id.dataset);
    return existed;
  }

  std::size_t chunk_count(int disk) const override {
    return inner_.chunk_count(disk);
  }

  std::uint64_t bytes_on_disk(int disk) const override {
    return inner_.bytes_on_disk(disk);
  }

  int num_disks() const override { return inner_.num_disks(); }

 private:
  ChunkStore& inner_;
  MarginalCache& cache_;
};

}  // namespace adr
