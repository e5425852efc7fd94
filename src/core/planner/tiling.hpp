// Output-chunk ordering for tiling.
//
// All three strategies select output chunks in the same order when packing
// tiles (paper section 3): the Hilbert index of each output chunk's MBR
// midpoint, whose locality keeps each tile spatially compact and thereby
// minimizes the number of input chunks crossing tile boundaries.
// Row-major and random orders are provided for the tiling ablation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "core/planner/plan.hpp"
#include "core/query.hpp"

namespace adr {

/// Returns output positions (0..n-1) in the order tiles should consume
/// them.  `domain` is the output attribute space extent.
std::vector<std::uint32_t> tiling_order(const std::vector<Rect>& output_mbrs,
                                        const Rect& domain, TilingOrder order,
                                        std::uint64_t seed = 1);

/// Measures tiling quality for a given assignment of outputs to tiles:
/// the total number of (input chunk, tile) incidences, i.e. how many chunk
/// reads a strategy that reads each needed input once per tile performs.
/// Lower is better; the minimum is the number of distinct inputs used.
std::uint64_t tile_read_incidences(const ChunkMapping& mapping,
                                   const std::vector<int>& tile_of_output);

}  // namespace adr
