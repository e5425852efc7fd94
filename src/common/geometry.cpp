#include "common/geometry.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>

namespace adr {

Point::Point(int d) : dims_(d) { assert(d >= 0 && d <= kMaxDims); }

Point::Point(std::initializer_list<double> coords) {
  assert(coords.size() <= static_cast<size_t>(kMaxDims));
  dims_ = static_cast<int>(coords.size());
  std::copy(coords.begin(), coords.end(), c_.begin());
}

Point::Point(std::span<const double> coords) {
  assert(coords.size() <= static_cast<size_t>(kMaxDims));
  dims_ = static_cast<int>(coords.size());
  std::copy(coords.begin(), coords.end(), c_.begin());
}

bool Point::operator==(const Point& o) const {
  if (dims_ != o.dims_) return false;
  for (int i = 0; i < dims_; ++i) {
    if (c_[static_cast<size_t>(i)] != o.c_[static_cast<size_t>(i)]) return false;
  }
  return true;
}

std::string Point::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

Rect::Rect(Point lo, Point hi) : lo_(lo), hi_(hi) { assert(lo.dims() == hi.dims()); }

Rect Rect::cube(int d, double lo, double hi) {
  Point l(d), h(d);
  for (int i = 0; i < d; ++i) {
    l[i] = lo;
    h[i] = hi;
  }
  return Rect(l, h);
}

Rect Rect::join(const Rect& a, const Rect& b) {
  if (a.dims() == 0) return b;
  if (b.dims() == 0) return a;
  assert(a.dims() == b.dims());
  Point lo(a.dims()), hi(a.dims());
  for (int i = 0; i < a.dims(); ++i) {
    lo[i] = std::min(a.lo_[i], b.lo_[i]);
    hi[i] = std::max(a.hi_[i], b.hi_[i]);
  }
  return Rect(lo, hi);
}

bool Rect::valid() const {
  if (dims() == 0) return false;
  for (int i = 0; i < dims(); ++i) {
    if (lo_[i] > hi_[i]) return false;
  }
  return true;
}

Point Rect::center() const {
  Point p(dims());
  for (int i = 0; i < dims(); ++i) p[i] = center(i);
  return p;
}

double Rect::volume() const {
  if (dims() == 0) return 0.0;
  double v = 1.0;
  for (int i = 0; i < dims(); ++i) v *= std::max(0.0, extent(i));
  return v;
}

bool Rect::contains(const Point& p) const {
  if (p.dims() != dims() || dims() == 0) return false;
  for (int i = 0; i < dims(); ++i) {
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::contains(const Rect& r) const {
  if (r.dims() != dims() || dims() == 0) return false;
  for (int i = 0; i < dims(); ++i) {
    if (r.lo_[i] < lo_[i] || r.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::intersects(const Rect& r) const {
  if (r.dims() != dims() || dims() == 0) return false;
  for (int i = 0; i < dims(); ++i) {
    if (r.hi_[i] < lo_[i] || r.lo_[i] > hi_[i]) return false;
  }
  return true;
}

double Rect::overlap_volume(const Rect& r) const {
  if (!intersects(r)) return 0.0;
  double v = 1.0;
  for (int i = 0; i < dims(); ++i) {
    v *= std::max(0.0, std::min(hi_[i], r.hi_[i]) - std::max(lo_[i], r.lo_[i]));
  }
  return v;
}

Rect Rect::inflated(double amount) const {
  Point lo = lo_, hi = hi_;
  for (int i = 0; i < dims(); ++i) {
    lo[i] -= amount;
    hi[i] += amount;
  }
  return Rect(lo, hi);
}

Rect Rect::inflated(std::span<const double> amounts) const {
  assert(static_cast<int>(amounts.size()) == dims());
  Point lo = lo_, hi = hi_;
  for (int i = 0; i < dims(); ++i) {
    lo[i] -= amounts[static_cast<size_t>(i)];
    hi[i] += amounts[static_cast<size_t>(i)];
  }
  return Rect(lo, hi);
}

std::string Rect::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  os << '(';
  for (int i = 0; i < p.dims(); ++i) {
    if (i) os << ", ";
    os << p[i];
  }
  return os << ')';
}

std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << '[' << r.lo() << " .. " << r.hi() << ']';
}

}  // namespace adr
