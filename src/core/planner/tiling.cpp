#include "core/planner/tiling.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/hilbert.hpp"
#include "common/random.hpp"

namespace adr {

std::vector<std::uint32_t> tiling_order(const std::vector<Rect>& output_mbrs,
                                        const Rect& domain, TilingOrder order,
                                        std::uint64_t seed) {
  std::vector<std::uint32_t> positions(output_mbrs.size());
  std::iota(positions.begin(), positions.end(), 0u);
  switch (order) {
    case TilingOrder::kHilbert: {
      std::vector<std::uint64_t> keys(output_mbrs.size());
      for (std::size_t i = 0; i < output_mbrs.size(); ++i) {
        keys[i] = hilbert_index_in_domain(output_mbrs[i].center(), domain, 16);
      }
      std::stable_sort(positions.begin(), positions.end(),
                       [&keys](std::uint32_t a, std::uint32_t b) {
                         return keys[a] < keys[b];
                       });
      break;
    }
    case TilingOrder::kRowMajor: {
      // Lexicographic by midpoint coordinates (last dim fastest).
      std::stable_sort(positions.begin(), positions.end(),
                       [&output_mbrs](std::uint32_t a, std::uint32_t b) {
                         const Rect& ra = output_mbrs[a];
                         const Rect& rb = output_mbrs[b];
                         for (int d = 0; d < ra.dims(); ++d) {
                           if (ra.center(d) != rb.center(d)) {
                             return ra.center(d) < rb.center(d);
                           }
                         }
                         return a < b;
                       });
      break;
    }
    case TilingOrder::kRandom: {
      Rng rng(seed);
      rng.shuffle(positions);
      break;
    }
  }
  return positions;
}

std::uint64_t tile_read_incidences(const ChunkMapping& mapping,
                                   const std::vector<int>& tile_of_output) {
  std::uint64_t incidences = 0;
  // Stamp (input position + 1) per tile already counted for this input.
  std::vector<std::uint32_t> stamp;
  for (std::uint32_t i = 0; i < mapping.num_inputs(); ++i) {
    for (std::uint32_t o : mapping.outputs_of(i)) {
      const auto tile = static_cast<std::size_t>(tile_of_output[o]);
      if (tile >= stamp.size()) stamp.resize(tile + 1, 0);
      incidences += std::exchange(stamp[tile], i + 1) != i + 1;
    }
  }
  return incidences;
}

}  // namespace adr
