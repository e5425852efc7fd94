// Chunk-level mapping construction.
//
// Composes the user Map function with the output dataset's chunk layout:
// input chunk i contributes to output chunk o iff Map(mbr(i)) intersects
// mbr(o) under the closed-interval Rect::intersects.  This is the
// planner's "efficient inverse mapping function or efficient search
// method" the paper requires for step 15 of Figure 4.
//
// The selected output MBRs are bucketed once into a uniform lattice over
// their bounding box (one bucket per chunk on a regular output grid), so
// each projected input tests only the outputs in the lattice cells it
// covers; very small output sets are scanned whole instead.  Rows go
// straight into the flat CSR ChunkMapping and the reverse direction is a
// counting-sort transpose: no per-query tree, no per-input allocation.
#pragma once

#include <span>
#include <vector>

#include "common/geometry.hpp"
#include "core/attribute_space.hpp"
#include "core/planner/plan.hpp"

namespace adr {

/// Builds the mapping over *selected* chunk MBRs, read in place through
/// the pointers.  `map` may be null (identity onto the output
/// dimensionality).
ChunkMapping build_mapping(std::span<const Rect* const> input_mbrs,
                           std::span<const Rect* const> output_mbrs,
                           const MapFunction* map);

/// The same over rect lists.
ChunkMapping build_mapping(const std::vector<Rect>& input_mbrs,
                           const std::vector<Rect>& output_mbrs,
                           const MapFunction* map);

}  // namespace adr
