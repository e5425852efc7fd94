// MarginalCache (semantic aggregate reuse) tests: signature and LRU
// mechanics first, then the Repository-level serving behaviour — repeat
// and overlapping queries served from cached partials byte-identically,
// invalidation on dataset writes and erases, nothing published from a
// failed query, and no false hits across different maps or aggregations.
//
// The MarginalCache.Concurrent* suite is a ThreadSanitizer target (see
// .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "core/frontend.hpp"
#include "obs/metrics.hpp"
#include "storage/disk_store.hpp"
#include "storage/marginal_cache.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

MarginalKey key_of(std::uint64_t a, std::uint64_t b) {
  MarginalSignature sig;
  sig.mix(a);
  sig.mix(b);
  return sig.key();
}

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// ------------------------------------------------- signature mechanics

TEST(MarginalCache, SignatureIsDeterministicAndFieldSensitive) {
  EXPECT_EQ(key_of(1, 2), key_of(1, 2));
  EXPECT_NE(key_of(1, 2), key_of(2, 1));  // order matters
  EXPECT_NE(key_of(1, 2), key_of(1, 3));
  // String mixing is length-prefixed: ("ab","c") must not alias ("a","bc").
  MarginalSignature s1, s2;
  s1.mix("ab");
  s1.mix("c");
  s2.mix("a");
  s2.mix("bc");
  EXPECT_NE(s1.key(), s2.key());
}

TEST(MarginalCache, SignatureSeparatesMapAndAggregationNames) {
  // The collision that must never happen: same range (same contributing
  // set), different filter/map or aggregation.  Only the names differ in
  // the mix; the keys must still split.
  const auto sig_for = [](const char* agg, const char* map) {
    MarginalSignature sig;
    sig.mix(agg);
    sig.mix(map);
    sig.mix(7);            // output dataset
    sig.mix(0);            // shape version
    sig.mix(3);            // output chunk
    sig.mix((5ull << 32) | 11);  // one contributing input chunk
    return sig.key();
  };
  const MarginalKey base = sig_for("sum-count-max", "identity");
  EXPECT_EQ(base, sig_for("sum-count-max", "identity"));
  EXPECT_NE(base, sig_for("count", "identity"));
  EXPECT_NE(base, sig_for("sum-count-max", "affine"));
}

// ------------------------------------------------- cache mechanics

TEST(MarginalCache, LookupMissThenPublishHit) {
  MarginalCache cache(1 << 20);
  const MarginalKey k = key_of(1, 1);
  EXPECT_FALSE(cache.lookup(k).has_value());
  cache.publish(k, bytes_of({1, 2, 3}));
  const auto hit = cache.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, bytes_of({1, 2, 3}));
  const MarginalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
}

TEST(MarginalCache, PublishRefreshesExistingKeyInPlace) {
  MarginalCache cache(1 << 20);
  const MarginalKey k = key_of(1, 1);
  cache.publish(k, bytes_of({1}));
  cache.publish(k, bytes_of({9, 9}));
  const auto hit = cache.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, bytes_of({9, 9}));
  EXPECT_EQ(cache.stats().resident_entries, 1u);
}

TEST(MarginalCache, ByteBudgetEvictsLeastRecentlyUsedFirst) {
  // Single shard so the LRU order is directly observable.  Budget fits
  // exactly two entries (96B overhead + 32B partial each).
  MarginalCache cache(2 * (96 + 32), /*num_shards=*/1);
  const MarginalKey a = key_of(1, 1), b = key_of(2, 2), c = key_of(3, 3);
  const std::vector<std::byte> partial(32, std::byte{0x5A});
  cache.publish(a, partial);               // [a]
  cache.publish(b, partial);               // [b, a]
  ASSERT_TRUE(cache.lookup(a).has_value());  // touch a -> [a, b]
  cache.publish(c, partial);               // evicts b -> [c, a]
  const MarginalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_entries, 2u);
  EXPECT_LE(stats.resident_bytes, 2u * (96 + 32));
  EXPECT_TRUE(cache.lookup(a).has_value());   // survived (recently used)
  EXPECT_FALSE(cache.lookup(b).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(c).has_value());
}

TEST(MarginalCache, OversizedPartialIsDroppedNotCached) {
  MarginalCache cache(128, /*num_shards=*/1);
  const MarginalKey k = key_of(1, 1);
  cache.publish(k, std::vector<std::byte>(4096, std::byte{0}));
  EXPECT_FALSE(cache.lookup(k).has_value());
  EXPECT_EQ(cache.stats().resident_entries, 0u);
}

TEST(MarginalCache, ClearDropsEntriesKeepsCounters) {
  MarginalCache cache(1 << 20);
  cache.publish(key_of(1, 1), bytes_of({1}));
  ASSERT_TRUE(cache.lookup(key_of(1, 1)).has_value());
  cache.clear();
  EXPECT_EQ(cache.stats().resident_entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().publishes, 1u);  // monotonic counters survive
  EXPECT_FALSE(cache.lookup(key_of(1, 1)).has_value());
}

TEST(MarginalCache, VersionBumpsDistinguishDataAndShape) {
  MarginalCache cache(1 << 20);
  EXPECT_EQ(cache.versions(7).data, 0u);
  EXPECT_EQ(cache.versions(7).shape, 0u);
  cache.invalidate_data(7);
  EXPECT_EQ(cache.versions(7).data, 1u);
  EXPECT_EQ(cache.versions(7).shape, 0u);  // payload write: shape stable
  cache.invalidate_dataset(7);
  EXPECT_EQ(cache.versions(7).data, 2u);
  EXPECT_EQ(cache.versions(7).shape, 1u);  // replacement bumps both
  EXPECT_EQ(cache.versions(8).data, 0u);   // other datasets untouched
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(MarginalCache, InvalidatingStoreBumpsOnPutAndErase) {
  MarginalCache cache(1 << 20);
  MemoryChunkStore backing(1);
  MarginalInvalidatingStore store(backing, cache);

  ChunkMeta meta;
  meta.id = {5, 0};
  meta.disk = 0;
  meta.bytes = 8;
  store.put(Chunk(meta, std::vector<std::byte>(8, std::byte{1})));
  EXPECT_EQ(cache.versions(5).data, 1u);
  EXPECT_TRUE(backing.contains(0, {5, 0}));  // write-through happened

  EXPECT_TRUE(store.erase(0, {5, 0}));
  EXPECT_EQ(cache.versions(5).data, 2u);
  EXPECT_FALSE(store.erase(0, {5, 0}));      // absent: no phantom bump
  EXPECT_EQ(cache.versions(5).data, 2u);
}

TEST(MarginalCache, ConcurrentPublishLookupInvalidateIsSafe) {
  // ThreadSanitizer target: publishes, lookups and version bumps racing
  // over shared shards with an eviction-heavy budget.
  MarginalCache cache(8 * (96 + 64));
  const int kThreads = 8;
  const int kOpsEach = 300;
  std::atomic<int> bad_payloads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kOpsEach; ++i) {
        const std::uint64_t n = static_cast<std::uint64_t>((t * 13 + i) % 16);
        const MarginalKey k = key_of(n, n + 1);
        if (i % 3 == 0) {
          cache.publish(k, std::vector<std::byte>(
                               64, static_cast<std::byte>(n)));
        } else if (i % 7 == 0) {
          cache.invalidate_data(static_cast<std::uint32_t>(n));
        } else {
          const auto hit = cache.lookup(k);
          if (hit.has_value() &&
              (hit->size() != 64 || (*hit)[0] != static_cast<std::byte>(n))) {
            ++bad_payloads;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_payloads.load(), 0);
  EXPECT_LE(cache.stats().resident_bytes, 8u * (96 + 64));
}

// ------------------------------------------------- Repository serving

RepositoryConfig marginal_config(std::uint64_t marginal_bytes = 32ull << 20) {
  RepositoryConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  cfg.marginal_cache_bytes = marginal_bytes;
  return cfg;
}

std::vector<Chunk> grid_inputs(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t v = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      std::vector<std::uint64_t> vals(static_cast<std::size_t>(values_per_chunk));
      for (auto& x : vals) x = (++v) % 997;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> grid_accumulators(int n_side, std::size_t bytes = 24) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(bytes, std::byte{0}));
    }
  }
  return chunks;
}

struct Fixture {
  Repository repo;
  std::uint32_t in = 0;
  std::uint32_t out = 0;

  explicit Fixture(RepositoryConfig cfg = marginal_config())
      : repo(cfg) {
    in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 4));
    out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0),
                              grid_accumulators(2));
  }
};

Query window(std::uint32_t in, std::uint32_t out, double x0, double x1,
             StrategyKind strategy = StrategyKind::kFRA) {
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect(Point{x0, 0.0}, Point{x1, 0.999});
  q.aggregation = "sum-count-max";
  q.strategy = strategy;
  q.delivery = OutputDelivery::kReturnToClient;
  return q;
}

void expect_same_outputs(const std::vector<Chunk>& a,
                         const std::vector<Chunk>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].meta().id, b[i].meta().id);
    EXPECT_EQ(a[i].payload(), b[i].payload());
  }
}

TEST(MarginalServing, RepeatQueryFullyServedFromPartials) {
  Fixture f;
  const Query q = window(f.in, f.out, 0.0, 0.999);
  const QueryResult cold = f.repo.submit(q);
  EXPECT_EQ(cold.marginal_hits, 0u);
  EXPECT_EQ(cold.marginal_misses, cold.outputs.size());
  EXPECT_GT(f.repo.marginal_cache_stats().publishes, 0u);

  const QueryResult warm = f.repo.submit(q);
  EXPECT_EQ(warm.marginal_hits, warm.outputs.size());
  EXPECT_EQ(warm.marginal_misses, 0u);
  EXPECT_EQ(warm.stats.total_lr_pairs(), 0u);  // no aggregation re-ran
  EXPECT_EQ(warm.chunk_reads, 0u);             // no input I/O either
  expect_same_outputs(warm.outputs, cold.outputs);
  EXPECT_GT(f.repo.marginal_cache_stats().bytes_saved, 0u);
}

TEST(MarginalServing, OverlappingRangeReusesInteriorPartials) {
  // Window A covers output column 0 ([0, 0.5)); window B covers both
  // columns.  B's column-0 contributing set is exactly A's, so B serves
  // column 0 from A's partials and only executes column 1.
  Fixture f;
  const QueryResult a = f.repo.submit(window(f.in, f.out, 0.0, 0.5));
  EXPECT_EQ(a.marginal_hits, 0u);

  const QueryResult b = f.repo.submit(window(f.in, f.out, 0.0, 0.999));
  EXPECT_GT(b.marginal_hits, 0u);    // interior reuse across ranges
  EXPECT_GT(b.marginal_misses, 0u);  // the fringe still executed

  // Byte-identical to the same query on a marginal-cache-free repo.
  Fixture ref(marginal_config(/*marginal_bytes=*/0));
  ASSERT_EQ(ref.repo.marginal_cache(), nullptr);
  const QueryResult cold = ref.repo.submit(window(ref.in, ref.out, 0.0, 0.999));
  expect_same_outputs(b.outputs, cold.outputs);
}

TEST(MarginalServing, StoreWriteInvalidatesPartials) {
  // Overwriting an input chunk through the repo's store handle must bump
  // the dataset's data version: the repeat query misses, re-executes,
  // and reflects the new bytes.
  Fixture f;
  const Query q = window(f.in, f.out, 0.0, 0.999);
  const QueryResult cold = f.repo.submit(q);

  // Rewrite input chunk 0 with maxed-out values through the store.
  for (int d = 0; d < f.repo.store().num_disks(); ++d) {
    auto existing = f.repo.store().get(d, {f.in, 0});
    if (!existing.has_value()) continue;
    std::vector<std::uint64_t> vals(existing->payload().size() /
                                    sizeof(std::uint64_t));
    for (auto& v : vals) v = 99999;
    std::memcpy(existing->payload().data(), vals.data(),
                existing->payload().size());
    f.repo.store().put(*existing);
  }

  const QueryResult after = f.repo.submit(q);
  EXPECT_EQ(after.marginal_hits, 0u);  // every partial went stale
  bool any_diff = false;
  for (std::size_t i = 0; i < after.outputs.size(); ++i) {
    if (after.outputs[i].payload() != cold.outputs[i].payload()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);  // stale partials would reproduce cold bytes
}

TEST(MarginalServing, StoreEraseInvalidatesPartials) {
  Fixture f;
  const Query q = window(f.in, f.out, 0.0, 0.999);
  f.repo.submit(q);
  ASSERT_GT(f.repo.marginal_cache_stats().publishes, 0u);
  const std::uint64_t data_before =
      f.repo.marginal_cache()->versions(f.in).data;

  // Erase then restore one input chunk through the store handle: the
  // erase alone must bump the version (partials were computed from a
  // chunk that no longer exists).
  std::optional<Chunk> held;
  for (int d = 0; d < f.repo.store().num_disks(); ++d) {
    held = f.repo.store().get(d, {f.in, 0});
    if (held.has_value()) {
      ASSERT_TRUE(f.repo.store().erase(d, {f.in, 0}));
      break;
    }
  }
  ASSERT_TRUE(held.has_value());
  EXPECT_GT(f.repo.marginal_cache()->versions(f.in).data, data_before);
  f.repo.store().put(*held);  // restore so the repeat query can run

  const QueryResult after = f.repo.submit(q);
  EXPECT_EQ(after.marginal_hits, 0u);  // erase invalidated everything
}

TEST(MarginalServing, FailedQueryPublishesNothing) {
  Fixture f;
  const Query q = window(f.in, f.out, 0.0, 0.999);
  {
    fault::ScopedFaultPlan plan(/*seed=*/71);
    fault::FaultSpec spec;
    spec.trigger = fault::Trigger::kOneShot;
    spec.after_hits = 3;  // let a few fetches succeed first
    plan.arm("storage.fetch", spec);
    EXPECT_THROW(f.repo.submit(q), StatusError);
  }
  // The failed query must not have published partial partials.
  EXPECT_EQ(f.repo.marginal_cache_stats().publishes, 0u);

  // Retry executes cold (no hits — nothing was cached) and succeeds...
  const QueryResult retry = f.repo.submit(q);
  EXPECT_EQ(retry.marginal_hits, 0u);
  ASSERT_FALSE(retry.outputs.empty());

  // ...and only now is the cache populated.
  const QueryResult warm = f.repo.submit(q);
  EXPECT_EQ(warm.marginal_hits, warm.outputs.size());
  expect_same_outputs(warm.outputs, retry.outputs);
}

TEST(MarginalServing, DifferentAggregationOrMapNeverFalseHits) {
  Fixture f;
  f.repo.attribute_spaces().register_map(std::make_shared<AffineMap>(
      std::vector<double>{1.0, 1.0}, std::vector<double>{0.0, 0.0}, 2));

  const Query base = window(f.in, f.out, 0.0, 0.999);
  const QueryResult cold = f.repo.submit(base);
  EXPECT_EQ(cold.marginal_hits, 0u);

  // Same range, different aggregation: the contributing set is identical
  // but the signature mixes the op name — must miss and recompute.
  Query counted = base;
  counted.aggregation = "count";
  const QueryResult count_result = f.repo.submit(counted);
  EXPECT_EQ(count_result.marginal_hits, 0u);

  // Same range, identity-equivalent affine map: produces the same bytes,
  // but under a different map name — must miss, not alias.
  Query mapped = base;
  mapped.map_function = "affine";
  const QueryResult affine_result = f.repo.submit(mapped);
  EXPECT_EQ(affine_result.marginal_hits, 0u);
  expect_same_outputs(affine_result.outputs, cold.outputs);

  // Each variant still hits itself on repeat.
  EXPECT_EQ(f.repo.submit(counted).marginal_hits,
            count_result.outputs.size());
  EXPECT_EQ(f.repo.submit(mapped).marginal_hits, affine_result.outputs.size());
}

TEST(MarginalServing, WritebackRepeatServedFromPartials) {
  // kWriteBack delivery: the cached fast path must write the same bytes
  // to the output dataset that a cold execution writes.
  RepositoryConfig cfg = marginal_config();
  Fixture f(cfg);
  Query q = window(f.in, f.out, 0.0, 0.999);
  q.delivery = OutputDelivery::kWriteBack;

  f.repo.submit(q);
  std::vector<Chunk> cold_chunks;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto c = f.repo.read_chunk(f.out, i);
    ASSERT_TRUE(c.has_value());
    cold_chunks.push_back(std::move(*c));
  }

  const QueryResult warm = f.repo.submit(q);
  EXPECT_GT(warm.marginal_hits, 0u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto c = f.repo.read_chunk(f.out, i);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->payload(), cold_chunks[i].payload());
  }
}

// Property: over {FRA, SRA, DA}, every query served with the marginal
// cache on — cold, partially cached, fully cached, and after a seeded
// mid-pass fault — returns bytes identical to a marginal-cache-free
// repository.
TEST(MarginalServing, CachedResultsByteIdenticalAcrossStrategies) {
  const std::vector<std::pair<double, double>> windows = {
      {0.0, 0.999},  // full range
      {0.0, 0.5},    // output column 0 exactly
      {0.5, 0.999},  // output column 1 exactly
      {0.25, 0.75},  // straddles both columns with fringe contributing sets
  };

  for (const StrategyKind strategy :
       {StrategyKind::kFRA, StrategyKind::kSRA, StrategyKind::kDA}) {
    // Reference: marginal cache off, serial submits.
    Fixture ref(marginal_config(/*marginal_bytes=*/0));
    std::vector<QueryResult> expected;
    for (const auto& [x0, x1] : windows) {
      expected.push_back(ref.repo.submit(window(ref.in, ref.out, x0, x1, strategy)));
    }

    // The cache on: three passes (populate, reuse, reuse), with a seeded
    // one-shot fetch fault landing inside the first pass.
    Fixture f;
    {
      fault::ScopedFaultPlan plan(/*seed=*/1234);
      fault::FaultSpec spec;
      spec.trigger = fault::Trigger::kOneShot;
      spec.after_hits = 9;
      plan.arm("storage.fetch", spec);
      for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t w = 0; w < windows.size(); ++w) {
          const Query q =
              window(f.in, f.out, windows[w].first, windows[w].second, strategy);
          QueryResult got;
          try {
            got = f.repo.submit(q);
          } catch (const StatusError&) {
            got = f.repo.submit(q);  // injected fault: one retry
          }
          expect_same_outputs(got.outputs, expected[w].outputs);
        }
      }
    }
    EXPECT_GT(f.repo.marginal_cache_stats().hits, 0u);
  }
}

TEST(MarginalServing, SelectionTimedApartFromPlanningOnEveryPath) {
  auto count = [](const char* name) {
    return obs::metrics().histogram(name).snapshot().count;
  };
  // One sample per executed query in each of the engine's phase series;
  // here every planned query executes.
  const std::array<const char*, 4> phases = {"exec.phase_init_s", "exec.phase_lr_s",
                                             "exec.phase_gc_s", "exec.phase_oh_s"};
  auto expect_observed = [&](Repository& repo, const Query& q, std::uint64_t selects,
                             std::uint64_t plans) {
    const std::uint64_t select0 = count("submit.select_s");
    const std::uint64_t plan0 = count("submit.plan_s");
    std::array<std::uint64_t, 4> phase0{};
    for (std::size_t k = 0; k < phases.size(); ++k) phase0[k] = count(phases[k]);
    repo.submit(q);
    EXPECT_EQ(count("submit.select_s") - select0, selects);
    EXPECT_EQ(count("submit.plan_s") - plan0, plans);
    for (std::size_t k = 0; k < phases.size(); ++k) {
      EXPECT_EQ(count(phases[k]) - phase0[k], plans) << phases[k];
    }
  };
  Fixture cached;
  const Query q = window(cached.in, cached.out, 0.0, 0.999);
  expect_observed(cached.repo, q, 1, 1);  // consult path, all misses
  expect_observed(cached.repo, q, 1, 0);  // fully served: selected, never planned or run
  Fixture uncached(marginal_config(/*marginal_bytes=*/0));
  expect_observed(uncached.repo, window(uncached.in, uncached.out, 0.0, 0.999), 1, 1);
}

TEST(MarginalServing, DisabledCacheKeepsSeedBehaviour) {
  Fixture f(marginal_config(/*marginal_bytes=*/0));
  EXPECT_EQ(f.repo.marginal_cache(), nullptr);
  const Query q = window(f.in, f.out, 0.0, 0.999);
  const QueryResult r1 = f.repo.submit(q);
  const QueryResult r2 = f.repo.submit(q);
  EXPECT_EQ(r2.marginal_hits, 0u);
  EXPECT_EQ(r2.marginal_misses, 0u);
  EXPECT_EQ(f.repo.marginal_cache_stats().publishes, 0u);
  expect_same_outputs(r2.outputs, r1.outputs);
}

}  // namespace
}  // namespace adr
