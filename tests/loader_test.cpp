#include "storage/loader.hpp"

#include <gtest/gtest.h>

namespace adr {
namespace {

std::vector<Chunk> payload_chunks(int n) {
  std::vector<Chunk> chunks;
  for (int i = 0; i < n; ++i) {
    ChunkMeta m;
    m.mbr = Rect(Point{static_cast<double>(i), 0.0}, Point{i + 0.9, 1.0});
    std::vector<std::byte> payload(64, std::byte{static_cast<unsigned char>(i)});
    chunks.emplace_back(m, std::move(payload));
  }
  return chunks;
}

TEST(Loader, FourStepLoadPlacesStoresIndexes) {
  MemoryChunkStore store(4);
  LoadOptions options;
  options.decluster.num_disks = 4;
  const Rect domain(Point{0.0, 0.0}, Point{16.0, 1.0});
  Dataset ds = load_dataset(7, "sensor", domain, payload_chunks(16), store, options);

  // Renumbered ids, placement assigned, index built.
  EXPECT_EQ(ds.id(), 7u);
  EXPECT_EQ(ds.num_chunks(), 16u);
  std::size_t stored = 0;
  for (int d = 0; d < 4; ++d) stored += store.chunk_count(d);
  EXPECT_EQ(stored, 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    const ChunkMeta& meta = ds.chunk(i);
    EXPECT_EQ(meta.id, (ChunkId{7, i}));
    EXPECT_GE(meta.disk, 0);
    EXPECT_LT(meta.disk, 4);
    EXPECT_EQ(meta.bytes, 64u);  // inferred from payload
    auto chunk = store.get(meta.disk, meta.id);
    ASSERT_TRUE(chunk.has_value());
    EXPECT_TRUE(chunk->has_payload());
  }
}

TEST(Loader, BalancedPlacement) {
  MemoryChunkStore store(4);
  LoadOptions options;
  options.decluster.num_disks = 4;
  const Rect domain(Point{0.0, 0.0}, Point{16.0, 1.0});
  load_dataset(0, "x", domain, payload_chunks(16), store, options);
  for (int d = 0; d < 4; ++d) EXPECT_EQ(store.chunk_count(d), 4u);
}

TEST(Loader, IndexFindsLoadedChunks) {
  MemoryChunkStore store(2);
  LoadOptions options;
  options.decluster.num_disks = 2;
  const Rect domain(Point{0.0, 0.0}, Point{8.0, 1.0});
  Dataset ds = load_dataset(0, "q", domain, payload_chunks(8), store, options);
  const auto hits = ds.find_chunks(Rect(Point{3.0, 0.0}, Point{4.0, 1.0}));
  EXPECT_EQ(hits, (std::vector<std::uint32_t>{3, 4}));
}

TEST(LoaderMeta, MetaVariantPlacesAndIndexes) {
  std::vector<ChunkMeta> metas;
  for (int i = 0; i < 10; ++i) {
    ChunkMeta m;
    m.mbr = Rect(Point{static_cast<double>(i), 0.0}, Point{i + 0.9, 1.0});
    m.bytes = 1000;
    metas.push_back(m);
  }
  DeclusterOptions opts;
  opts.num_disks = 5;
  const Rect domain(Point{0.0, 0.0}, Point{10.0, 1.0});
  Dataset ds = load_dataset_meta(4, "m", domain, metas, opts);
  EXPECT_EQ(ds.num_chunks(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ds.chunk(i).id, (ChunkId{4, i}));
    EXPECT_GE(ds.chunk(i).disk, 0);
    EXPECT_LT(ds.chunk(i).disk, 5);
  }
}

}  // namespace
}  // namespace adr
