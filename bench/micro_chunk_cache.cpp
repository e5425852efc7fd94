// Microbenchmark: the chunk cache's read path over a FileChunkStore farm
// of 2 KiB chunks (the end-to-end scan archive's chunk size).
//
//   BM_CacheHit            every get is a hit: lookup, LRU touch, and a
//                          reference to the shared payload.
//   BM_CacheMissEvict      every get misses: the pread below the cache,
//                          the install and one eviction.
//   BM_TwoReadersPerShard  two threads per disk, ids drawn at random from
//                          a working set four times the budget (about a
//                          quarter of gets hit, as in the scan workload).
//
//   ./micro_chunk_cache --benchmark_out=BENCH_micro_chunk_cache.json
//       --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "storage/chunk_cache.hpp"
#include "storage/disk_store.hpp"

namespace {

using namespace adr;

constexpr int kDisks = 2;
constexpr std::uint32_t kChunksPerDisk = 1024;
constexpr std::uint64_t kChunkBytes = 2048;
/// Cached chunks per disk for the miss and mixed cases.
constexpr std::uint64_t kBudgetChunks = kChunksPerDisk / 4;

/// One farm shared by every case, in a private temporary directory that
/// is removed at exit.
struct Farm {
  std::filesystem::path dir;
  std::unique_ptr<FileChunkStore> store;

  Farm()
      : dir(std::filesystem::temp_directory_path() /
            ("adr_micro_chunk_cache_" + std::to_string(::getpid()))) {
    store = std::make_unique<FileChunkStore>(dir, kDisks);
    for (int d = 0; d < kDisks; ++d) {
      for (std::uint32_t i = 0; i < kChunksPerDisk; ++i) {
        ChunkMeta meta;
        meta.id = {static_cast<std::uint32_t>(d), i};
        meta.disk = d;
        meta.bytes = kChunkBytes;
        store->put(Chunk(meta, std::vector<std::byte>(kChunkBytes, std::byte{0x5A})));
      }
    }
  }
  ~Farm() {
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

FileChunkStore& farm() {
  static Farm f;
  return *f.store;
}

std::uint64_t budget(std::uint64_t chunks) {
  return chunks * (kChunkBytes + 64);  // 64 B per-entry overhead
}

void BM_CacheHit(benchmark::State& state) {
  CachingChunkStore cache(farm(), budget(kChunksPerDisk));
  for (std::uint32_t i = 0; i < kChunksPerDisk; ++i) cache.get(0, {0, i});
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(0, {0, i}));
    i = (i + 1) % kChunksPerDisk;
  }
  if (cache.stats().misses != kChunksPerDisk) state.SkipWithError("a timed get missed");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kChunkBytes));
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissEvict(benchmark::State& state) {
  // A cyclic scan over four times the budget: LRU never hits.
  CachingChunkStore cache(farm(), budget(kBudgetChunks));
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(0, {0, i}));
    i = (i + 1) % kChunksPerDisk;
  }
  if (cache.stats().hits != 0) state.SkipWithError("a timed get hit");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kChunkBytes));
}
BENCHMARK(BM_CacheMissEvict);

void BM_TwoReadersPerShard(benchmark::State& state) {
  static CachingChunkStore* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new CachingChunkStore(farm(), budget(kBudgetChunks));
  }
  // Threads 2k and 2k+1 read disk k.
  const int disk = state.thread_index() / 2;
  std::mt19937 rng(static_cast<unsigned>(state.thread_index()) + 1);
  std::uniform_int_distribution<std::uint32_t> pick(0, kChunksPerDisk - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache->get(disk, {static_cast<std::uint32_t>(disk), pick(rng)}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kChunkBytes));
  if (state.thread_index() == 0) {
    const ChunkCacheStats s = cache->stats();
    state.counters["hit_ratio"] =
        static_cast<double>(s.hits) / static_cast<double>(s.hits + s.misses);
    delete cache;
    cache = nullptr;
  }
}
BENCHMARK(BM_TwoReadersPerShard)->Threads(2 * kDisks)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
