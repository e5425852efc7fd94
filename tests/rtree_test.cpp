#include "storage/rtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"

namespace adr {
namespace {

std::vector<Rect> random_rects(int n, int dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Point lo(dims), hi(dims);
    for (int d = 0; d < dims; ++d) {
      const double a = rng.uniform(0.0, 100.0);
      lo[d] = a;
      hi[d] = a + rng.uniform(0.0, 5.0);
    }
    rects.emplace_back(lo, hi);
  }
  return rects;
}

std::vector<std::uint32_t> brute_force(const std::vector<Rect>& rects, const Rect& q) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < rects.size(); ++i) {
    if (rects[i].intersects(q)) out.push_back(i);
  }
  return out;
}

TEST(RTree, EmptyTreeQueriesEmpty) {
  RTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.query(Rect::cube(2, 0.0, 1.0)).empty());
  EXPECT_EQ(tree.height(), 1);
}

TEST(RTree, BulkLoadSingleEntry) {
  RTree tree;
  tree.bulk_load({Rect::cube(2, 0.0, 1.0)});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.query(Rect::cube(2, 0.5, 2.0)), (std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(tree.query(Rect::cube(2, 2.0, 3.0)).empty());
}

TEST(RTree, BulkLoadMatchesBruteForce2D) {
  const auto rects = random_rects(500, 2, 1);
  RTree tree;
  tree.bulk_load(rects);
  EXPECT_EQ(tree.size(), 500u);
  Rng rng(2);
  for (int q = 0; q < 50; ++q) {
    Point lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      lo[d] = rng.uniform(0.0, 90.0);
      hi[d] = lo[d] + rng.uniform(0.0, 30.0);
    }
    const Rect query(lo, hi);
    EXPECT_EQ(tree.query(query), brute_force(rects, query));
  }
}

TEST(RTree, BulkLoadMatchesBruteForce3D) {
  const auto rects = random_rects(300, 3, 3);
  RTree tree;
  tree.bulk_load(rects);
  Rng rng(4);
  for (int q = 0; q < 30; ++q) {
    Point lo(3), hi(3);
    for (int d = 0; d < 3; ++d) {
      lo[d] = rng.uniform(0.0, 80.0);
      hi[d] = lo[d] + rng.uniform(0.0, 40.0);
    }
    const Rect query(lo, hi);
    EXPECT_EQ(tree.query(query), brute_force(rects, query));
  }
}

TEST(RTree, QueryAllReturnsSortedValues) {
  const auto rects = random_rects(100, 2, 9);
  RTree tree;
  tree.bulk_load(rects);
  auto all = tree.query(Rect::cube(2, -10.0, 200.0));
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(all.size(), 100u);
}

TEST(RTree, HeightGrowsLogarithmically) {
  RTree small;
  small.bulk_load(random_rects(10, 2, 10));
  RTree big;
  big.bulk_load(random_rects(5000, 2, 11));
  EXPECT_LE(small.height(), 2);
  EXPECT_LE(big.height(), 4);  // fanout 16 => 16^4 >> 5000
  EXPECT_GT(big.node_count(), small.node_count());
}

TEST(RTree, BoundsCoverAllEntries) {
  const auto rects = random_rects(250, 2, 12);
  RTree tree;
  tree.bulk_load(rects);
  const Rect bounds = tree.bounds();
  for (const Rect& r : rects) EXPECT_TRUE(bounds.contains(r));
}

TEST(RTree, VisitWithoutMaterializing) {
  const auto rects = random_rects(100, 2, 13);
  RTree tree;
  tree.bulk_load(rects);
  const Rect q = Rect::cube(2, 20.0, 60.0);
  std::size_t visited = 0;
  tree.visit(q, [&](std::uint32_t, const Rect& mbr) {
    EXPECT_TRUE(mbr.intersects(q));
    ++visited;
  });
  EXPECT_EQ(visited, brute_force(rects, q).size());
}

TEST(RTree, DuplicateRectsAllReturned) {
  std::vector<Rect> rects(20, Rect::cube(2, 0.0, 1.0));
  RTree tree(4);
  tree.bulk_load(rects);
  EXPECT_EQ(tree.query(Rect::cube(2, 0.5, 0.6)).size(), 20u);
}

TEST(RTree, RebuildReplacesContents) {
  RTree tree;
  tree.bulk_load(random_rects(50, 2, 13));
  tree.bulk_load({Rect::cube(2, 0.0, 1.0)});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.query(Rect::cube(2, 0.0, 2.0)).size(), 1u);
}

TEST(RTree, EmptyIndex) {
  RTree tree;
  tree.bulk_load({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.query(Rect::cube(2, 0.0, 1.0)).empty());
}

TEST(RTree, MatchesBruteForce) {
  Rng gen(11);
  std::vector<Rect> rects;
  for (int i = 0; i < 400; ++i) {
    const double x = gen.uniform(0.0, 100.0), y = gen.uniform(0.0, 100.0);
    rects.emplace_back(Point{x, y}, Point{x + gen.uniform(0.1, 4.0), y + gen.uniform(0.1, 4.0)});
  }
  RTree tree;
  tree.bulk_load(rects);
  EXPECT_EQ(tree.size(), 400u);
  Rng rng(12);
  for (int q = 0; q < 40; ++q) {
    const double x = rng.uniform(0.0, 90.0), y = rng.uniform(0.0, 90.0);
    const Rect query(Point{x, y},
                     Point{x + rng.uniform(1.0, 25.0), y + rng.uniform(1.0, 25.0)});
    EXPECT_EQ(tree.query(query), brute_force(rects, query));
  }
}

TEST(RTree, QueryOutsideBoundsEmpty) {
  RTree tree;
  tree.bulk_load(random_rects(100, 2, 14));
  EXPECT_TRUE(tree.query(Rect::cube(2, 500.0, 600.0)).empty());
}

}  // namespace
}  // namespace adr
