// Geometry primitives for multi-dimensional attribute spaces.
//
// ADR associates every data item with a point in a multi-dimensional
// attribute space and every chunk with a minimum bounding rectangle (MBR).
// Range queries are axis-aligned boxes in the same space.  Dimensions are
// dynamic at run time but bounded by kMaxDims so that Point/Rect stay
// trivially copyable and allocation free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>

namespace adr {

/// Maximum number of dimensions an attribute space may have.
inline constexpr int kMaxDims = 8;

/// A point in a multi-dimensional attribute space.
///
/// Coordinates beyond `dims` are kept at zero so that equality and hashing
/// can ignore them safely.
class Point {
 public:
  Point() = default;

  /// Constructs a `d`-dimensional origin.
  explicit Point(int d);

  /// Constructs from an explicit coordinate list (dims = list size).
  Point(std::initializer_list<double> coords);

  /// Constructs from a span of coordinates.
  explicit Point(std::span<const double> coords);

  int dims() const { return dims_; }

  double operator[](int i) const { return c_[static_cast<size_t>(i)]; }
  double& operator[](int i) { return c_[static_cast<size_t>(i)]; }

  std::span<const double> coords() const { return {c_.data(), static_cast<size_t>(dims_)}; }

  bool operator==(const Point& o) const;
  bool operator!=(const Point& o) const { return !(*this == o); }

  std::string to_string() const;

 private:
  std::array<double, kMaxDims> c_{};
  int dims_ = 0;
};

/// An axis-aligned (hyper-)rectangle: the MBR of a chunk or a range query.
///
/// A Rect is *valid* iff lo[i] <= hi[i] for every dimension.  The empty
/// rectangle (dims() == 0) intersects nothing and contains nothing.
class Rect {
 public:
  Rect() = default;
  Rect(Point lo, Point hi);

  /// The rectangle covering [lo, hi] in every one of `d` dimensions.
  static Rect cube(int d, double lo, double hi);

  /// Smallest rectangle containing both arguments.
  static Rect join(const Rect& a, const Rect& b);

  int dims() const { return lo_.dims(); }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  bool valid() const;

  /// Extent along dimension `i` (hi - lo).
  double extent(int i) const { return hi_[i] - lo_[i]; }

  /// Midpoint along dimension `i`.
  double center(int i) const { return 0.5 * (lo_[i] + hi_[i]); }

  /// Centroid point.
  Point center() const;

  /// Product of extents (length/area/volume...).  Zero-extent dims count
  /// as zero, so degenerate rectangles have zero volume.
  double volume() const;

  bool contains(const Point& p) const;
  bool contains(const Rect& r) const;

  /// Closed-interval intersection test: rectangles sharing only a face
  /// still intersect.  Mismatched dimensionalities never intersect.
  bool intersects(const Rect& r) const;

  /// Volume of the intersection (zero when disjoint).
  double overlap_volume(const Rect& r) const;

  /// Grows the rectangle by `amount` on every side of every dimension.
  Rect inflated(double amount) const;

  /// Grows/shrinks each side by a per-dimension amount.
  Rect inflated(std::span<const double> amounts) const;

  bool operator==(const Rect& o) const { return lo_ == o.lo_ && hi_ == o.hi_; }
  bool operator!=(const Rect& o) const { return !(*this == o); }

  std::string to_string() const;

 private:
  Point lo_;
  Point hi_;
};

std::ostream& operator<<(std::ostream& os, const Point& p);
std::ostream& operator<<(std::ostream& os, const Rect& r);

}  // namespace adr
