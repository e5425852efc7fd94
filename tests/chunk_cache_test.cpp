// CachingChunkStore (cross-query chunk cache) and ThreadExecutorPool
// tests: LRU mechanics and coherence against the backing store, then the
// Repository-level behaviour the PR exists for — a repeated query served
// warm out of the cache on a reused executor, byte-identical to cold.
//
// The ChunkCache.Concurrent* / ExecutorPool.* suites are ThreadSanitizer
// targets (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "core/frontend.hpp"
#include "runtime/executor_pool.hpp"
#include "storage/chunk_cache.hpp"
#include "storage/disk_store.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

Chunk make_chunk(std::uint32_t dataset, std::uint32_t index, int disk,
                 std::size_t payload_bytes, std::byte fill = std::byte{0xAB}) {
  ChunkMeta meta;
  meta.id = {dataset, index};
  meta.disk = disk;
  meta.bytes = payload_bytes;
  meta.mbr = Rect::cube(2, 0.0, 1.0);
  return Chunk(meta, std::vector<std::byte>(payload_bytes, fill));
}

// ------------------------------------------------- store-level behaviour

TEST(ChunkCache, MissThenHitServesIdenticalBytes) {
  MemoryChunkStore backing(2);
  backing.put(make_chunk(1, 0, 0, 100, std::byte{0x11}));
  backing.put(make_chunk(1, 1, 1, 200, std::byte{0x22}));
  CachingChunkStore cache(backing, /*bytes_per_disk=*/1 << 20);

  const auto cold0 = cache.get(0, {1, 0});
  const auto cold1 = cache.get(1, {1, 1});
  ASSERT_TRUE(cold0.has_value());
  ASSERT_TRUE(cold1.has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().resident_chunks, 2u);

  const auto warm0 = cache.get(0, {1, 0});
  const auto warm1 = cache.get(1, {1, 1});
  ASSERT_TRUE(warm0.has_value());
  ASSERT_TRUE(warm1.has_value());
  EXPECT_EQ(warm0->payload(), cold0->payload());
  EXPECT_EQ(warm1->payload(), cold1->payload());
  EXPECT_EQ(warm0->meta().id, cold0->meta().id);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ChunkCache, MissingChunkIsMissNotCrash) {
  MemoryChunkStore backing(1);
  CachingChunkStore cache(backing, 1 << 20);
  EXPECT_FALSE(cache.get(0, {9, 9}).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().resident_chunks, 0u);  // absent chunks not cached
}

TEST(ChunkCache, FailedFetchIsNeverCached) {
  // Regression: a fetch that errors must not install anything — a
  // cached copy would mask the fault for every later reader, serving
  // bytes the disk never delivered.
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 64, std::byte{0x33}));
  CachingChunkStore cache(backing, 1 << 20);

  fault::ScopedFaultPlan plan(/*seed=*/51);
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kOneShot;
  plan.arm("storage.cache_fetch", spec);
  EXPECT_THROW(cache.get(0, {1, 0}), StatusError);
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);

  // Budget spent: the retry is a clean miss that fetches real bytes.
  const auto retried = cache.get(0, {1, 0});
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->payload()[0], std::byte{0x33});
  EXPECT_EQ(cache.stats().hits, 0u);  // nothing was poisoned into a hit
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().resident_chunks, 1u);
}

TEST(ChunkCache, LruEvictsLeastRecentlyUsedFirst) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 100));
  backing.put(make_chunk(1, 1, 0, 100));
  backing.put(make_chunk(1, 2, 0, 100));
  // Budget fits exactly two 100-byte payloads (+64B overhead each).
  CachingChunkStore cache(backing, /*bytes_per_disk=*/2 * (100 + 64));

  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // cache: [0]
  ASSERT_TRUE(cache.get(0, {1, 1}).has_value());  // cache: [1, 0]
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // touch 0 -> [0, 1]
  ASSERT_TRUE(cache.get(0, {1, 2}).has_value());  // evicts 1 -> [2, 0]
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident_chunks, 2u);

  ChunkCacheStats before = cache.stats();
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // still resident: hit
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  before = cache.stats();
  ASSERT_TRUE(cache.get(0, {1, 1}).has_value());  // was evicted: miss
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(ChunkCache, OversizedChunkBypassesCache) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 4096));
  CachingChunkStore cache(backing, /*bytes_per_disk=*/256);
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());
  EXPECT_EQ(cache.stats().resident_chunks, 0u);  // never installed
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // still served, via backing
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ChunkCache, EraseInvalidatesCachedCopy) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 100));
  CachingChunkStore cache(backing, 1 << 20);
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // now cached
  EXPECT_TRUE(cache.erase(0, {1, 0}));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  // No stale hit: the chunk is gone from cache AND backing.
  EXPECT_FALSE(cache.get(0, {1, 0}).has_value());
  EXPECT_FALSE(backing.contains(0, {1, 0}));
}

TEST(ChunkCache, PutRefreshesCachedIdInPlace) {
  MemoryChunkStore backing(1);
  backing.put(make_chunk(1, 0, 0, 100, std::byte{0x01}));
  CachingChunkStore cache(backing, 1 << 20);
  ASSERT_TRUE(cache.get(0, {1, 0}).has_value());  // cached with 0x01 bytes

  cache.put(make_chunk(1, 0, 0, 100, std::byte{0x02}));  // overwrite
  const auto after = cache.get(0, {1, 0});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->payload()[0], std::byte{0x02});  // no stale bytes served
  EXPECT_EQ(backing.get(0, {1, 0})->payload()[0], std::byte{0x02});
}

TEST(ChunkCache, PutOfUncachedIdDoesNotAllocateCacheSpace) {
  MemoryChunkStore backing(1);
  CachingChunkStore cache(backing, 1 << 20);
  // Query outputs are written through but must not pollute the read cache.
  cache.put(make_chunk(7, 0, 0, 100));
  EXPECT_EQ(cache.stats().resident_chunks, 0u);
  EXPECT_TRUE(backing.contains(0, {7, 0}));  // write-through happened
}

TEST(ChunkCache, ConcurrentGetsAccountEveryAccess) {
  // ThreadSanitizer target: concurrent hits and misses over shared
  // shards, with an eviction-heavy budget so install/evict race too.
  const int kChunks = 16;
  MemoryChunkStore backing(2);
  for (int i = 0; i < kChunks; ++i) {
    backing.put(make_chunk(1, static_cast<std::uint32_t>(i), i % 2, 256,
                           static_cast<std::byte>(i)));
  }
  CachingChunkStore cache(backing, /*bytes_per_disk=*/4 * (256 + 64));

  const int kThreads = 8;
  const int kGetsEach = 200;
  std::atomic<int> bad_payloads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int g = 0; g < kGetsEach; ++g) {
        const int i = (t * 7 + g) % kChunks;
        const auto chunk = cache.get(i % 2, {1, static_cast<std::uint32_t>(i)});
        if (!chunk.has_value() || chunk->payload().size() != 256 ||
            chunk->payload()[0] != static_cast<std::byte>(i)) {
          ++bad_payloads;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_payloads.load(), 0);
  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kGetsEach));
  EXPECT_LE(stats.resident_bytes, 2u * 4 * (256 + 64));  // budget held
}

// ------------------------------------------------- ThreadExecutorPool

TEST(ExecutorPool, WarmExecutorIsReusedNotRespawned) {
  ThreadExecutorPool pool(/*num_nodes=*/2, /*disks_per_node=*/1,
                          /*store=*/nullptr);
  { auto lease = pool.acquire(); }  // build + return one executor
  ThreadExecutorPool::Stats s = pool.stats();
  EXPECT_EQ(s.created, 1u);
  EXPECT_EQ(s.resident, 1u);

  {
    auto lease = pool.acquire();  // warm: no new construction
    EXPECT_EQ(lease->completed_runs(), 0u);
  }
  s = pool.stats();
  EXPECT_EQ(s.created, 1u);
  EXPECT_EQ(s.leases, 2u);
  EXPECT_EQ(s.reuses, 1u);
}

TEST(ExecutorPool, AcquireNeverBlocksUnderContention) {
  ThreadExecutorPool pool(2, 1, nullptr);
  {
    auto a = pool.acquire();
    auto b = pool.acquire();  // pool empty: constructs rather than waits
    EXPECT_EQ(pool.stats().created, 2u);
  }
  // Both stay warm: the pool keeps every executor it built.
  EXPECT_EQ(pool.stats().resident, 2u);
}

// ------------------------------------------------- Repository-level

RepositoryConfig cached_thread_config() {
  RepositoryConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  // These suites pin the byte-cache layer: keep the marginal cache out
  // of the way so repeated queries actually re-read their inputs
  // (marginal-cache serving has its own suites in marginal_cache_test).
  cfg.marginal_cache_bytes = 0;
  return cfg;
}

std::vector<Chunk> grid_chunks(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t v = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      std::vector<std::uint64_t> vals(static_cast<std::size_t>(values_per_chunk));
      for (auto& x : vals) x = ++v;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> grid_accumulators(int n_side) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

Query sum_query(std::uint32_t in, std::uint32_t out) {
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect(Point{0.0, 0.0}, Point{0.999, 0.999});
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  return q;
}

TEST(ChunkCache, RepeatedQueryRunsWarmOnReusedExecutor) {
  // The acceptance scenario: submit the same query twice.  The second run
  // must (a) reuse the warm executor — no new thread spawn — and (b) read
  // its inputs out of the chunk cache, while returning byte-identical
  // outputs.
  Repository repo(cached_thread_config());
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_chunks(8, 4));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_accumulators(2));

  const QueryResult cold = repo.submit(sum_query(in, out));
  EXPECT_GT(cold.stats.cache_misses, 0u);  // first run fills the cache

  const QueryResult warm = repo.submit(sum_query(in, out));
  EXPECT_GT(warm.stats.cache_hits, 0u)  // second run served from memory
      << warm.stats.summary();

  // Executor reuse: one pool built on first submit, leased twice.
  const ThreadExecutorPool::Stats pool = repo.executor_pool_stats();
  EXPECT_EQ(pool.created, 1u);
  EXPECT_EQ(pool.leases, 2u);
  EXPECT_EQ(pool.reuses, 1u);

  // The cache must not change observable results or engine-level counts.
  EXPECT_EQ(warm.chunk_reads, cold.chunk_reads);
  ASSERT_EQ(warm.outputs.size(), cold.outputs.size());
  for (std::size_t i = 0; i < warm.outputs.size(); ++i) {
    EXPECT_EQ(warm.outputs[i].meta().id, cold.outputs[i].meta().id);
    EXPECT_EQ(warm.outputs[i].payload(), cold.outputs[i].payload());
  }
}

TEST(ChunkCache, DisabledCacheKeepsSeedBehaviour) {
  RepositoryConfig cfg = cached_thread_config();
  cfg.chunk_cache_bytes_per_node = 0;  // opt out
  Repository repo(cfg);
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_chunks(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_accumulators(2));
  EXPECT_EQ(repo.chunk_cache(), nullptr);
  const QueryResult r1 = repo.submit(sum_query(in, out));
  const QueryResult r2 = repo.submit(sum_query(in, out));
  EXPECT_EQ(r2.stats.cache_hits, 0u);
  ASSERT_EQ(r1.outputs.size(), r2.outputs.size());
  for (std::size_t i = 0; i < r1.outputs.size(); ++i) {
    EXPECT_EQ(r1.outputs[i].payload(), r2.outputs[i].payload());
  }
}

TEST(ChunkCache, DatasetEraseInvalidatesCachedChunks) {
  // Overwriting a dataset's chunks after a query must not leave stale
  // payloads in the cache (repo erase/put goes through the decorator).
  Repository repo(cached_thread_config());
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0),
                                      grid_chunks(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                                       grid_accumulators(2));
  const QueryResult cold = repo.submit(sum_query(in, out));
  ASSERT_GT(repo.chunk_cache_stats().resident_chunks, 0u);
  const std::uint64_t invalidations_before =
      repo.chunk_cache_stats().invalidations;

  // Rewrite every input chunk with different values through the repo's
  // store; the cached copies must be refreshed, not served stale.
  auto replacement = grid_chunks(4, 2);
  for (auto& chunk : replacement) {
    for (auto& b : chunk.payload()) b = static_cast<std::byte>(0xEE);
  }
  std::uint32_t index = 0;
  for (auto& chunk : replacement) {
    const ChunkId id{in, index++};
    for (int d = 0; d < repo.store().num_disks(); ++d) {
      const auto existing = repo.store().get(d, id);
      if (!existing.has_value()) continue;
      chunk.meta().id = id;
      chunk.meta().disk = d;
      repo.store().put(chunk);
    }
  }
  EXPECT_GT(repo.chunk_cache_stats().invalidations, invalidations_before);

  const QueryResult warm = repo.submit(sum_query(in, out));
  // Values changed, so the aggregate must change: stale cache would
  // reproduce the cold outputs byte-for-byte.
  ASSERT_EQ(warm.outputs.size(), cold.outputs.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < warm.outputs.size(); ++i) {
    if (warm.outputs[i].payload() != cold.outputs[i].payload()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace adr
