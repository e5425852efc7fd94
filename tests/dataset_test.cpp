#include "storage/dataset.hpp"

#include <gtest/gtest.h>

namespace adr {
namespace {

std::vector<ChunkMeta> line_chunks(std::uint32_t dataset_id, int n) {
  std::vector<ChunkMeta> chunks;
  for (int i = 0; i < n; ++i) {
    ChunkMeta m;
    m.id = {dataset_id, static_cast<std::uint32_t>(i)};
    m.mbr = Rect(Point{static_cast<double>(i), 0.0}, Point{i + 0.9, 1.0});
    m.bytes = 100 * (static_cast<std::uint64_t>(i) + 1);
    chunks.push_back(m);
  }
  return chunks;
}

TEST(Dataset, AccountsBytesAndChunks) {
  Dataset ds(3, "test", Rect::cube(2, 0.0, 10.0), line_chunks(3, 4));
  EXPECT_EQ(ds.id(), 3u);
  EXPECT_EQ(ds.name(), "test");
  EXPECT_EQ(ds.num_chunks(), 4u);
  EXPECT_EQ(ds.total_bytes(), 100u + 200 + 300 + 400);
  EXPECT_DOUBLE_EQ(ds.mean_chunk_bytes(), 250.0);
}

TEST(Dataset, EmptyDataset) {
  Dataset ds(0, "empty", Rect::cube(2, 0.0, 1.0), {});
  EXPECT_EQ(ds.num_chunks(), 0u);
  EXPECT_DOUBLE_EQ(ds.mean_chunk_bytes(), 0.0);
  EXPECT_TRUE(ds.find_chunks(Rect::cube(2, 0.0, 1.0)).empty());
}

TEST(Dataset, FindChunksAfterIndexing) {
  Dataset ds(0, "line", Rect(Point{0.0, 0.0}, Point{10.0, 1.0}), line_chunks(0, 10));
  const auto hits = ds.find_chunks(Rect(Point{2.5, 0.0}, Point{4.5, 1.0}));
  EXPECT_EQ(hits, (std::vector<std::uint32_t>{2, 3, 4}));
}

TEST(Dataset, SetPlacementUpdatesDisks) {
  Dataset ds(0, "p", Rect::cube(2, 0.0, 10.0), line_chunks(0, 3));
  ds.set_placement({2, 0, 1});
  EXPECT_EQ(ds.chunk(0).disk, 2);
  EXPECT_EQ(ds.chunk(1).disk, 0);
  EXPECT_EQ(ds.chunk(2).disk, 1);
}

TEST(Dataset, ChunkAccessor) {
  Dataset ds(1, "a", Rect::cube(2, 0.0, 10.0), line_chunks(1, 2));
  EXPECT_EQ(ds.chunk(1).id, (ChunkId{1, 1}));
  EXPECT_EQ(ds.chunk(1).bytes, 200u);
}

}  // namespace
}  // namespace adr
