// Shared fixtures for planner/executor tests.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/geometry.hpp"
#include "core/planner/mapping.hpp"
#include "core/planner/plan.hpp"
#include "core/planner/tiling.hpp"

namespace adr::testing {

/// Geometry for a synthetic scenario: `in_per_out` x `in_per_out` input
/// chunks nested inside each output chunk of an `out_n` x `out_n` grid.
struct GridScenario {
  Rect domain;
  std::vector<Rect> input_mbrs;
  std::vector<Rect> output_mbrs;
  ChunkMapping mapping;
};

/// A mapping row as a vector, for comparisons.
inline std::vector<std::uint32_t> ids(std::span<const std::uint32_t> row) {
  return {row.begin(), row.end()};
}

/// The mapping whose input->output rows are `rows`, over `num_outputs`
/// outputs.
inline ChunkMapping mapping_from_lists(
    const std::vector<std::vector<std::uint32_t>>& rows, std::size_t num_outputs) {
  ChunkMapping m;
  for (const auto& row : rows) {
    m.out_ids.insert(m.out_ids.end(), row.begin(), row.end());
    m.out_offsets.push_back(static_cast<std::uint32_t>(m.out_ids.size()));
  }
  m.transpose(num_outputs);
  return m;
}

inline Rect cell(const Rect& domain, int n, int ix, int iy) {
  const double dx = domain.extent(0) / n;
  const double dy = domain.extent(1) / n;
  const double e = 1e-9;
  return Rect(Point{domain.lo()[0] + ix * dx + e * dx, domain.lo()[1] + iy * dy + e * dy},
              Point{domain.lo()[0] + (ix + 1) * dx - e * dx,
                    domain.lo()[1] + (iy + 1) * dy - e * dy});
}

inline GridScenario make_grid_scenario(int out_n, int in_per_out) {
  GridScenario s;
  s.domain = Rect::cube(2, 0.0, 1.0);
  const int in_n = out_n * in_per_out;
  for (int iy = 0; iy < out_n; ++iy) {
    for (int ix = 0; ix < out_n; ++ix) {
      s.output_mbrs.push_back(cell(s.domain, out_n, ix, iy));
    }
  }
  for (int iy = 0; iy < in_n; ++iy) {
    for (int ix = 0; ix < in_n; ++ix) {
      s.input_mbrs.push_back(cell(s.domain, in_n, ix, iy));
    }
  }
  s.mapping = build_mapping(s.input_mbrs, s.output_mbrs, nullptr);
  return s;
}

/// PlannerInput over a scenario with round-robin chunk ownership.
inline PlannerInput make_planner_input(const GridScenario& s, int nodes,
                                       std::uint64_t memory_per_node,
                                       std::uint64_t input_bytes = 1000,
                                       std::uint64_t output_bytes = 500,
                                       double accum_multiplier = 1.0) {
  PlannerInput in;
  in.num_nodes = nodes;
  in.memory_per_node = memory_per_node;
  in.mapping = &s.mapping;
  in.owner_of_input.resize(s.input_mbrs.size());
  in.input_bytes.assign(s.input_mbrs.size(), input_bytes);
  for (std::size_t i = 0; i < s.input_mbrs.size(); ++i) {
    in.owner_of_input[i] = static_cast<int>(i % static_cast<std::size_t>(nodes));
  }
  in.owner_of_output.resize(s.output_mbrs.size());
  in.output_bytes.assign(s.output_mbrs.size(), output_bytes);
  in.accum_bytes.assign(
      s.output_mbrs.size(),
      static_cast<std::uint64_t>(static_cast<double>(output_bytes) * accum_multiplier));
  for (std::size_t o = 0; o < s.output_mbrs.size(); ++o) {
    in.owner_of_output[o] = static_cast<int>(o % static_cast<std::size_t>(nodes));
  }
  in.output_order = tiling_order(s.output_mbrs, s.domain, TilingOrder::kHilbert);
  return in;
}

}  // namespace adr::testing
