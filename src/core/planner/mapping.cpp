#include "core/planner/mapping.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace adr {
namespace {

/// Output sets this small are one bucket, tested whole: a browse
/// viewport's few outputs need no lattice set-up.
constexpr std::size_t kScanAllOutputs = 16;

using Cells = std::array<int, kMaxDims>;

/// A uniform lattice over the selected outputs' bounding box: bucket b
/// lists, ascending, the outputs whose MBR reaches into it.
struct Lattice {
  int dims = 0;
  Cells cells{};
  std::array<double, kMaxDims> origin{}, inv_width{};
  std::vector<std::uint32_t> offsets, ids;

  /// Monotone in v, so a rect's cell box covers every point of it; out of
  /// range (and NaN) clamps to the edge cells.
  int cell(int d, double v) const {
    const double t = (v - origin[d]) * inv_width[d];
    if (!(t > 0.0)) return 0;
    return t >= cells[d] ? cells[d] - 1 : static_cast<int>(t);
  }

  /// Calls fn(bucket) once per bucket of r's cell box (a dimension whose
  /// lo cell is past its hi cell contributes the lo cell only).
  template <class Fn>
  void for_each_bucket(const Rect& r, Fn&& fn) const {
    Cells lo{}, hi{};
    for (int d = 0; d < dims; ++d) {
      lo[d] = cell(d, r.lo()[d]);
      hi[d] = cell(d, r.hi()[d]);
    }
    Cells at = lo;
    for (;;) {
      std::size_t bucket = 0;
      for (int d = dims - 1; d >= 0; --d) bucket = bucket * cells[d] + at[d];
      fn(bucket);
      int d = 0;
      for (; d < dims && at[d] >= hi[d]; ++d) at[d] = lo[d];
      if (d == dims) return;
      ++at[d];
    }
  }
};

/// Cells per dimension: as many as the widest output's extent fits into
/// the bounding box, so a regular grid gets one bucket per chunk and an
/// output reaches into about two cells per dimension at most; capped so
/// there are at most two buckets per output.  A small set is one bucket
/// tested whole, as is a set of mixed dimensionality (no common lattice).
Lattice build_lattice(std::span<const Rect* const> outputs) {
  Lattice l;
  const int dims = outputs.empty() ? 0 : outputs.front()->dims();
  if (outputs.size() > kScanAllOutputs &&
      std::all_of(outputs.begin(), outputs.end(),
                  [dims](const Rect* r) { return r->dims() == dims; })) {
    l.dims = dims;
  }
  std::array<double, kMaxDims> lo, hi, widest{};
  lo.fill(std::numeric_limits<double>::infinity());
  hi.fill(-std::numeric_limits<double>::infinity());
  for (const Rect* r : outputs) {
    for (int d = 0; d < l.dims; ++d) {
      lo[d] = std::min(lo[d], r->lo()[d]);
      hi[d] = std::max(hi[d], r->hi()[d]);
      widest[d] = std::max(widest[d], r->extent(d));
    }
  }
  const double n = static_cast<double>(outputs.size());
  std::size_t buckets = 1;
  for (int d = 0; d < l.dims; ++d) {
    const double cap = std::floor(std::pow(2.0 * n, 1.0 / l.dims));
    const double extent = hi[d] - lo[d];
    const double fit = widest[d] > 0.0 ? std::floor(extent / widest[d]) : cap;
    l.cells[d] = std::isfinite(extent) && extent > 0.0
                     ? static_cast<int>(std::clamp(fit, 1.0, cap))
                     : 1;
    l.origin[d] = lo[d];
    l.inv_width[d] = l.cells[d] > 1 ? l.cells[d] / extent : 0.0;
    buckets *= static_cast<std::size_t>(l.cells[d]);
  }

  // Counting fill: outputs go in ascending, so every bucket is sorted.
  l.offsets.assign(buckets + 1, 0);
  for (const Rect* r : outputs) {
    l.for_each_bucket(*r, [&](std::size_t b) { ++l.offsets[b + 1]; });
  }
  for (std::size_t b = 1; b < l.offsets.size(); ++b) l.offsets[b] += l.offsets[b - 1];
  l.ids.resize(l.offsets.back());
  std::vector<std::uint32_t> next(l.offsets.begin(), l.offsets.end() - 1);
  for (std::uint32_t o = 0; o < outputs.size(); ++o) {
    l.for_each_bucket(*outputs[o], [&](std::size_t b) { l.ids[next[b]++] = o; });
  }
  return l;
}

}  // namespace

ChunkMapping build_mapping(std::span<const Rect* const> input_mbrs,
                           std::span<const Rect* const> output_mbrs,
                           const MapFunction* map) {
  IdentityMap identity(output_mbrs.empty() ? 0 : output_mbrs.front()->dims());
  if (map == nullptr) map = &identity;
  const Lattice lattice = build_lattice(output_mbrs);
  // Last input that tested each output (an output sits in every bucket it
  // reaches).
  std::vector<std::uint32_t> tested_by(output_mbrs.size(),
                                       std::numeric_limits<std::uint32_t>::max());

  ChunkMapping m;
  m.out_offsets.reserve(input_mbrs.size() + 1);
  m.out_ids.reserve(input_mbrs.size());
  for (std::uint32_t i = 0; i < input_mbrs.size(); ++i) {
    const Rect p = map->project(*input_mbrs[i]);
    const std::size_t row = m.out_ids.size();
    int buckets = 0;
    lattice.for_each_bucket(p, [&](std::size_t b) {
      ++buckets;
      for (std::uint32_t k = lattice.offsets[b]; k < lattice.offsets[b + 1]; ++k) {
        const std::uint32_t o = lattice.ids[k];
        if (tested_by[o] == i) continue;
        tested_by[o] = i;
        if (output_mbrs[o]->intersects(p)) m.out_ids.push_back(o);
      }
    });
    // Buckets go in lattice order, not output order.
    if (buckets > 1) {
      std::sort(m.out_ids.begin() + static_cast<std::ptrdiff_t>(row), m.out_ids.end());
    }
    m.out_offsets.push_back(static_cast<std::uint32_t>(m.out_ids.size()));
  }
  m.transpose(output_mbrs.size());
  return m;
}

ChunkMapping build_mapping(const std::vector<Rect>& input_mbrs,
                           const std::vector<Rect>& output_mbrs,
                           const MapFunction* map) {
  std::vector<const Rect*> inputs, outputs;
  for (const Rect& r : input_mbrs) inputs.push_back(&r);
  for (const Rect& r : output_mbrs) outputs.push_back(&r);
  return build_mapping(inputs, outputs, map);
}

}  // namespace adr
