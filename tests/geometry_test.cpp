#include "common/geometry.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace adr {
namespace {

TEST(Point, DefaultIsZeroDimensional) {
  Point p;
  EXPECT_EQ(p.dims(), 0);
}

TEST(Point, InitializerListSetsDimsAndCoords) {
  Point p{1.0, 2.0, 3.0};
  EXPECT_EQ(p.dims(), 3);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
  EXPECT_DOUBLE_EQ(p[2], 3.0);
}

TEST(Point, SpanConstructorMatchesInitializerList) {
  const double coords[] = {4.0, 5.0};
  Point a{4.0, 5.0};
  Point b{std::span<const double>(coords)};
  EXPECT_EQ(a, b);
}

TEST(Point, EqualityRequiresSameDims) {
  EXPECT_NE(Point({1.0}), Point({1.0, 0.0}));
  EXPECT_EQ(Point({1.0, 2.0}), Point({1.0, 2.0}));
}

TEST(Point, MutableIndexing) {
  Point p(2);
  p[0] = 7.0;
  p[1] = -3.0;
  EXPECT_DOUBLE_EQ(p[0], 7.0);
  EXPECT_DOUBLE_EQ(p[1], -3.0);
}

TEST(Point, StreamFormat) {
  std::ostringstream os;
  os << Point({1.0, 2.5});
  EXPECT_EQ(os.str(), "(1, 2.5)");
}

TEST(Rect, CubeCoversRange) {
  Rect r = Rect::cube(3, -1.0, 1.0);
  EXPECT_EQ(r.dims(), 3);
  EXPECT_TRUE(r.valid());
  EXPECT_DOUBLE_EQ(r.volume(), 8.0);
}

TEST(Rect, DefaultInvalid) {
  Rect r;
  EXPECT_FALSE(r.valid());
  EXPECT_DOUBLE_EQ(r.volume(), 0.0);
}

TEST(Rect, InvertedBoundsInvalid) {
  Rect r(Point{1.0, 0.0}, Point{0.0, 1.0});
  EXPECT_FALSE(r.valid());
}

TEST(Rect, ContainsPointInclusiveOnBoundary) {
  Rect r = Rect::cube(2, 0.0, 1.0);
  EXPECT_TRUE(r.contains(Point{0.0, 0.0}));
  EXPECT_TRUE(r.contains(Point{1.0, 1.0}));
  EXPECT_TRUE(r.contains(Point{0.5, 0.5}));
  EXPECT_FALSE(r.contains(Point{1.0001, 0.5}));
}

TEST(Rect, ContainsPointRejectsDimMismatch) {
  Rect r = Rect::cube(2, 0.0, 1.0);
  EXPECT_FALSE(r.contains(Point{0.5}));
}

TEST(Rect, ContainsRect) {
  Rect outer = Rect::cube(2, 0.0, 10.0);
  Rect inner(Point{1.0, 1.0}, Point{2.0, 2.0});
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
  EXPECT_TRUE(outer.contains(outer));
}

TEST(Rect, IntersectsOverlap) {
  Rect a(Point{0.0, 0.0}, Point{2.0, 2.0});
  Rect b(Point{1.0, 1.0}, Point{3.0, 3.0});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
}

TEST(Rect, IntersectsSharedFaceIsClosed) {
  Rect a(Point{0.0, 0.0}, Point{1.0, 1.0});
  Rect b(Point{1.0, 0.0}, Point{2.0, 1.0});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_DOUBLE_EQ(a.overlap_volume(b), 0.0);
}

TEST(Rect, DisjointDoNotIntersect) {
  Rect a(Point{0.0, 0.0}, Point{1.0, 1.0});
  Rect b(Point{1.1, 0.0}, Point{2.0, 1.0});
  EXPECT_FALSE(a.intersects(b));
  EXPECT_FALSE(b.intersects(a));
}

TEST(Rect, DimMismatchNeverIntersects) {
  Rect a = Rect::cube(2, 0.0, 1.0);
  Rect b = Rect::cube(3, 0.0, 1.0);
  EXPECT_FALSE(a.intersects(b));
}

TEST(Rect, OverlapVolume) {
  Rect a(Point{0.0, 0.0}, Point{2.0, 2.0});
  Rect b(Point{1.0, 1.0}, Point{4.0, 4.0});
  EXPECT_DOUBLE_EQ(a.overlap_volume(b), 1.0);
  EXPECT_DOUBLE_EQ(a.overlap_volume(a), 4.0);
}

TEST(Rect, JoinCoversBoth) {
  Rect a(Point{0.0, 0.0}, Point{1.0, 1.0});
  Rect b(Point{2.0, -1.0}, Point{3.0, 0.5});
  Rect j = Rect::join(a, b);
  EXPECT_TRUE(j.contains(a));
  EXPECT_TRUE(j.contains(b));
  EXPECT_DOUBLE_EQ(j.lo()[1], -1.0);
  EXPECT_DOUBLE_EQ(j.hi()[0], 3.0);
}

TEST(Rect, JoinWithEmptyIsIdentity) {
  Rect a = Rect::cube(2, 0.0, 1.0);
  EXPECT_EQ(Rect::join(Rect(), a), a);
  EXPECT_EQ(Rect::join(a, Rect()), a);
}

TEST(Rect, CenterAndExtent) {
  Rect r(Point{0.0, 2.0}, Point{4.0, 6.0});
  EXPECT_DOUBLE_EQ(r.center(0), 2.0);
  EXPECT_DOUBLE_EQ(r.center(1), 4.0);
  EXPECT_DOUBLE_EQ(r.extent(0), 4.0);
  EXPECT_EQ(r.center(), Point({2.0, 4.0}));
}

TEST(Rect, InflatedUniform) {
  Rect r = Rect::cube(2, 0.0, 1.0).inflated(0.5);
  EXPECT_DOUBLE_EQ(r.lo()[0], -0.5);
  EXPECT_DOUBLE_EQ(r.hi()[1], 1.5);
}

TEST(Rect, InflatedPerDimension) {
  const double amounts[] = {1.0, 0.0};
  Rect r = Rect::cube(2, 0.0, 1.0).inflated(std::span<const double>(amounts));
  EXPECT_DOUBLE_EQ(r.lo()[0], -1.0);
  EXPECT_DOUBLE_EQ(r.hi()[0], 2.0);
  EXPECT_DOUBLE_EQ(r.lo()[1], 0.0);
  EXPECT_DOUBLE_EQ(r.hi()[1], 1.0);
}

TEST(Rect, DegenerateHasZeroVolumeButIntersects) {
  Rect line(Point{0.0, 0.5}, Point{1.0, 0.5});
  EXPECT_TRUE(line.valid());
  EXPECT_DOUBLE_EQ(line.volume(), 0.0);
  EXPECT_TRUE(line.intersects(Rect::cube(2, 0.0, 1.0)));
}

}  // namespace
}  // namespace adr
