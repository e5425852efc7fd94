#include "core/planner/tiling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "test_helpers.hpp"

namespace adr {
namespace {

using testing::make_grid_scenario;

TEST(TilingOrder, IsAPermutation) {
  const auto s = make_grid_scenario(4, 1);
  for (TilingOrder order :
       {TilingOrder::kHilbert, TilingOrder::kRowMajor, TilingOrder::kRandom}) {
    auto perm = tiling_order(s.output_mbrs, s.domain, order, 5);
    std::sort(perm.begin(), perm.end());
    std::vector<std::uint32_t> expect(16);
    std::iota(expect.begin(), expect.end(), 0u);
    EXPECT_EQ(perm, expect) << to_string(order);
  }
}

TEST(TilingOrder, RowMajorSortsByCoordinates) {
  const auto s = make_grid_scenario(2, 1);
  // Outputs laid out row by row: ids 0..3 at (0,0),(1,0),(0,1),(1,1).
  const auto order = tiling_order(s.output_mbrs, s.domain, TilingOrder::kRowMajor);
  // Lexicographic by (x, y): (0,0), (0,1), (1,0), (1,1) -> ids 0,2,1,3.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 1, 3}));
}

TEST(TilingOrder, HilbertConsecutiveAreSpatialNeighbors) {
  const auto s = make_grid_scenario(8, 1);
  const auto order = tiling_order(s.output_mbrs, s.domain, TilingOrder::kHilbert);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    const Rect& a = s.output_mbrs[order[k]];
    const Rect& b = s.output_mbrs[order[k + 1]];
    const double dist = std::abs(a.center(0) - b.center(0)) +
                        std::abs(a.center(1) - b.center(1));
    EXPECT_LT(dist, 0.13) << "jump at position " << k;  // one cell = 0.125
  }
}

TEST(TilingOrder, RandomSeedControls) {
  const auto s = make_grid_scenario(4, 1);
  const auto a = tiling_order(s.output_mbrs, s.domain, TilingOrder::kRandom, 1);
  const auto b = tiling_order(s.output_mbrs, s.domain, TilingOrder::kRandom, 1);
  const auto c = tiling_order(s.output_mbrs, s.domain, TilingOrder::kRandom, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TileReadIncidences, CountsDistinctTilesPerInput) {
  // Input 0 -> outputs {0, 1}; input 1 -> {1}; tiles: 0->t0, 1->t1.
  const ChunkMapping in_to_out = testing::mapping_from_lists({{0, 1}, {1}}, 2);
  std::vector<int> tile_of_output = {0, 1};
  EXPECT_EQ(tile_read_incidences(in_to_out, tile_of_output), 3u);
  // Same tile: each input read once.
  tile_of_output = {0, 0};
  EXPECT_EQ(tile_read_incidences(in_to_out, tile_of_output), 2u);
}

TEST(TileReadIncidences, HilbertBeatsRandomOrderOnLocalizedInputs) {
  // Inputs overlapping 2x2 output neighborhoods: a spatially compact
  // tiling re-reads fewer inputs across tile boundaries.
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::vector<Rect> outputs;
  for (int iy = 0; iy < 8; ++iy) {
    for (int ix = 0; ix < 8; ++ix) outputs.push_back(testing::cell(domain, 8, ix, iy));
  }
  std::vector<Rect> inputs;
  for (int iy = 0; iy < 16; ++iy) {
    for (int ix = 0; ix < 16; ++ix) {
      Rect c = testing::cell(domain, 16, ix, iy);
      inputs.push_back(c.inflated(0.04));  // overlap neighbours
    }
  }
  const ChunkMapping m = build_mapping(inputs, outputs, nullptr);

  auto tiles_for = [&](TilingOrder order) {
    const auto perm = tiling_order(outputs, domain, order, 3);
    // Pack 8 outputs per tile.
    std::vector<int> tile_of_output(outputs.size());
    for (std::size_t pos = 0; pos < perm.size(); ++pos) {
      tile_of_output[perm[pos]] = static_cast<int>(pos / 8);
    }
    return tile_read_incidences(m, tile_of_output);
  };

  EXPECT_LT(tiles_for(TilingOrder::kHilbert), tiles_for(TilingOrder::kRandom));
}

}  // namespace
}  // namespace adr
