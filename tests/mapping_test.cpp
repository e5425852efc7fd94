#include "core/planner/mapping.hpp"

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/planner/planner.hpp"
#include "storage/loader.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using testing::make_grid_scenario;

TEST(BuildMapping, NestedGridHasFanOutOne) {
  const auto s = make_grid_scenario(4, 2);  // 16 outputs, 64 inputs
  EXPECT_EQ(s.mapping.num_inputs(), 64u);
  EXPECT_EQ(s.mapping.num_outputs(), 16u);
  for (std::uint32_t i = 0; i < s.mapping.num_inputs(); ++i) {
    EXPECT_EQ(s.mapping.outputs_of(i).size(), 1u);
  }
  EXPECT_DOUBLE_EQ(s.mapping.mean_fan_out(), 1.0);
  EXPECT_DOUBLE_EQ(s.mapping.mean_fan_in(), 4.0);
  EXPECT_EQ(s.mapping.edge_count(), 64u);
}

TEST(BuildMapping, OutToInInvertsInToOut) {
  const auto s = make_grid_scenario(3, 3);
  for (std::uint32_t i = 0; i < s.mapping.num_inputs(); ++i) {
    for (std::uint32_t o : s.mapping.outputs_of(i)) {
      const auto ins = s.mapping.inputs_of(o);
      EXPECT_NE(std::find(ins.begin(), ins.end(), i), ins.end());
    }
  }
  std::size_t edges_via_out = 0;
  for (std::uint32_t o = 0; o < s.mapping.num_outputs(); ++o) {
    edges_via_out += s.mapping.inputs_of(o).size();
  }
  EXPECT_EQ(edges_via_out, s.mapping.edge_count());
}

TEST(BuildMapping, OverlappingInputsHaveHigherFanOut) {
  // Input MBRs twice the size of output chunks overlap ~4 outputs.
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::vector<Rect> outputs;
  for (int iy = 0; iy < 4; ++iy) {
    for (int ix = 0; ix < 4; ++ix) outputs.push_back(testing::cell(domain, 4, ix, iy));
  }
  std::vector<Rect> inputs;
  inputs.emplace_back(Point{0.3, 0.3}, Point{0.7, 0.7});  // spans 2x2 inner chunks
  const ChunkMapping m = build_mapping(inputs, outputs, nullptr);
  EXPECT_EQ(m.outputs_of(0).size(), 4u);
}

TEST(BuildMapping, CustomMapFunctionApplied) {
  // Project 3-D inputs onto the first two dims.
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::vector<Rect> outputs;
  for (int iy = 0; iy < 2; ++iy) {
    for (int ix = 0; ix < 2; ++ix) outputs.push_back(testing::cell(domain, 2, ix, iy));
  }
  std::vector<Rect> inputs = {
      Rect(Point{0.1, 0.1, 5.0}, Point{0.2, 0.2, 6.0}),  // -> output 0
      Rect(Point{0.8, 0.8, 0.0}, Point{0.9, 0.9, 1.0}),  // -> output 3
  };
  IdentityMap drop_time(2);
  const ChunkMapping m = build_mapping(inputs, outputs, &drop_time);
  EXPECT_EQ(testing::ids(m.outputs_of(0)), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(testing::ids(m.outputs_of(1)), (std::vector<std::uint32_t>{3}));
}

TEST(BuildMapping, InputOutsideAllOutputsHasNoTargets) {
  std::vector<Rect> outputs = {Rect::cube(2, 0.0, 1.0)};
  std::vector<Rect> inputs = {Rect::cube(2, 2.0, 3.0)};
  const ChunkMapping m = build_mapping(inputs, outputs, nullptr);
  EXPECT_TRUE(m.outputs_of(0).empty());
  EXPECT_DOUBLE_EQ(m.mean_fan_out(), 0.0);
}

TEST(BuildMapping, EmptyInputs) {
  std::vector<Rect> outputs = {Rect::cube(2, 0.0, 1.0)};
  const ChunkMapping m = build_mapping({}, outputs, nullptr);
  EXPECT_EQ(m.num_inputs(), 0u);
  EXPECT_EQ(m.num_outputs(), 1u);
  EXPECT_DOUBLE_EQ(m.mean_fan_in(), 0.0);
}

TEST(BuildMapping, TargetsSortedAscending) {
  const auto s = make_grid_scenario(4, 1);
  std::vector<Rect> wide = {Rect::cube(2, 0.0, 1.0)};  // covers everything
  const ChunkMapping m = build_mapping(wide, s.output_mbrs, nullptr);
  EXPECT_EQ(m.outputs_of(0).size(), 16u);
  EXPECT_TRUE(std::is_sorted(m.outputs_of(0).begin(), m.outputs_of(0).end()));
}

// ---- differential: the CSR mapping against a brute-force O(N*M) scan ----

using Rows = std::vector<std::vector<std::uint32_t>>;

/// Every (input, output) pair through the closed-interval Rect::intersects.
Rows brute_force_rows(const std::vector<Rect>& inputs, const std::vector<Rect>& outputs,
                      const MapFunction* map) {
  IdentityMap identity(outputs.empty() ? 0 : outputs.front().dims());
  const MapFunction* fn = map != nullptr ? map : &identity;
  Rows rows(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Rect projected = fn->project(inputs[i]);
    for (std::uint32_t o = 0; o < outputs.size(); ++o) {
      if (outputs[o].intersects(projected)) rows[i].push_back(o);
    }
  }
  return rows;
}

/// Both directions equal the brute-force rows and their transpose, ids
/// ascending.
void expect_mapping_equals(const ChunkMapping& m, const Rows& rows,
                           std::size_t num_outputs) {
  ASSERT_EQ(m.num_inputs(), rows.size());
  ASSERT_EQ(m.num_outputs(), num_outputs);
  Rows columns(num_outputs);
  std::size_t edges = 0;
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(testing::ids(m.outputs_of(i)), rows[i]) << "input " << i;
    for (std::uint32_t o : rows[i]) columns[o].push_back(i);
    edges += rows[i].size();
  }
  for (std::uint32_t o = 0; o < num_outputs; ++o) {
    EXPECT_EQ(testing::ids(m.inputs_of(o)), columns[o]) << "output " << o;
  }
  EXPECT_EQ(m.edge_count(), edges);
}

Rect random_rect(Rng& rng, int dims, double lo, double hi, double max_side) {
  Point a(dims), b(dims);
  for (int d = 0; d < dims; ++d) {
    const double side = rng.chance(0.15) ? 0.0 : rng.uniform(0.0, max_side);
    a[d] = rng.uniform(lo, hi);
    b[d] = a[d] + side;
  }
  return Rect(a, b);
}

/// Seeded scenes around the lattice's regimes: whole-scan output sets
/// (<= 16), regular grids whose cells share faces, overlapping
/// non-uniform outputs with zero-extent rects, higher-dimensional point
/// outputs, and AffineMap projections with spread (and a negative scale)
/// from 3-D inputs.
struct Scene {
  std::vector<Rect> inputs, outputs;
  std::unique_ptr<MapFunction> map;
};

Scene make_scene(std::uint64_t seed) {
  Rng rng(seed);
  Scene s;
  const int kind = static_cast<int>(seed % 4);
  const int num_inputs = static_cast<int>(rng.uniform_int(0, 300));
  if (kind == 0) {
    // Shared faces: an un-inset g x g grid on integer lines, inputs
    // snapped to the same lines (some zero-extent: points and segments).
    const int g = static_cast<int>(rng.uniform_int(1, 24));
    for (int y = 0; y < g; ++y) {
      for (int x = 0; x < g; ++x) {
        s.outputs.emplace_back(Point{double(x), double(y)}, Point{x + 1.0, y + 1.0});
      }
    }
    for (int i = 0; i < num_inputs; ++i) {
      Point a(2), b(2);
      for (int d = 0; d < 2; ++d) {
        a[d] = static_cast<double>(rng.uniform_int(-1, g + 1));
        b[d] = a[d] + static_cast<double>(rng.uniform_int(0, 3));
      }
      s.inputs.emplace_back(a, b);
    }
  } else if (kind == 1) {
    // Overlapping, non-uniform outputs in 2-D or 3-D.
    const int dims = static_cast<int>(rng.uniform_int(2, 3));
    const int m = static_cast<int>(rng.uniform_int(1, 400));
    for (int o = 0; o < m; ++o) {
      const double side = rng.chance(0.1) ? 40.0 : rng.uniform(0.0, 6.0);
      s.outputs.push_back(random_rect(rng, dims, 0.0, 100.0, side));
    }
    for (int i = 0; i < num_inputs; ++i) {
      s.inputs.push_back(random_rect(rng, dims, -10.0, 110.0, 15.0));
    }
  } else if (kind == 3) {
    // 4- to 6-D outputs that are mostly points: the resolution rule asks
    // for a lattice far too fine, which must coarsen.
    const int dims = static_cast<int>(rng.uniform_int(4, 6));
    const int m = static_cast<int>(rng.uniform_int(17, 300));
    for (int o = 0; o < m; ++o) {
      s.outputs.push_back(random_rect(rng, dims, 0.0, 10.0, 0.0));
    }
    for (int i = 0; i < num_inputs; ++i) {
      s.inputs.push_back(random_rect(rng, dims, 0.0, 10.0, 6.0));
    }
  } else {
    // 3-D inputs through an AffineMap with spread onto a 2-D grid that
    // is not anchored at the origin.
    const int g = static_cast<int>(rng.uniform_int(2, 30));
    const double w = rng.uniform(0.5, 3.0);
    for (int y = 0; y < g; ++y) {
      for (int x = 0; x < g; ++x) {
        s.outputs.emplace_back(Point{5.0 + x * w, -3.0 + y * w},
                               Point{5.0 + (x + 1) * w, -3.0 + (y + 1) * w});
      }
    }
    s.map = std::make_unique<AffineMap>(std::vector<double>{1.5, -0.75, 1.0},
                                        std::vector<double>{4.0, 20.0, 0.0}, 2,
                                        std::vector<double>{rng.uniform(0.0, 1.0), 0.25});
    for (int i = 0; i < num_inputs; ++i) {
      s.inputs.push_back(random_rect(rng, 3, -5.0, 40.0, 4.0));
    }
  }
  return s;
}

TEST(MappingDifferential, MatchesBruteForceOnSeededScenes) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scene s = make_scene(seed);
    const ChunkMapping m = build_mapping(s.inputs, s.outputs, s.map.get());
    expect_mapping_equals(m, brute_force_rows(s.inputs, s.outputs, s.map.get()),
                          s.outputs.size());
  }
}

TEST(MappingDifferential, EmptyInputsOnEveryPath) {
  // Scanned whole (a few outputs) and bucketed (a 10x10 grid).
  for (int g : {2, 10}) {
    const auto s = make_grid_scenario(g, 1);
    const ChunkMapping m = build_mapping({}, s.output_mbrs, nullptr);
    expect_mapping_equals(m, {}, s.output_mbrs.size());
    for (std::uint32_t o = 0; o < m.num_outputs(); ++o) {
      EXPECT_TRUE(m.inputs_of(o).empty());
    }
  }
}

/// Two input datasets (the second offset by half a cell so its chunks
/// straddle output faces) selected and mapped in one pass: positions
/// run over the first dataset's chunks, then the second's.
TEST(MappingDifferential, TwoInputDatasetsMatchBruteForce) {
  const auto s = make_grid_scenario(6, 3);  // 36 outputs, 324 inputs
  std::vector<ChunkMeta> first, second, outputs;
  for (const Rect& r : s.input_mbrs) {
    ChunkMeta meta;
    meta.mbr = r;
    meta.bytes = 8;
    first.push_back(meta);
    const double shift = 0.5 / 18.0;
    meta.mbr = Rect(Point{r.lo()[0] + shift, r.lo()[1]},
                    Point{r.hi()[0] + shift, r.hi()[1]});
    second.push_back(meta);
  }
  for (const Rect& r : s.output_mbrs) {
    ChunkMeta meta;
    meta.mbr = r;
    meta.bytes = 8;
    outputs.push_back(meta);
  }
  DeclusterOptions placement;
  placement.num_disks = 2;
  const Dataset a = load_dataset_meta(0, "a", s.domain, first, placement);
  const Dataset b = load_dataset_meta(1, "b", s.domain, second, placement);
  const Dataset out = load_dataset_meta(2, "out", s.domain, outputs, placement);

  PlanRequest req;
  req.input = &a;
  req.extra_inputs = {&b};
  req.output = &out;
  req.range = Rect(Point{0.2, 0.1}, Point{0.9, 0.7});
  const QuerySelection sel = select_query_chunks(req);
  ASSERT_GT(sel.selected_inputs.size(), 0u);
  ASSERT_TRUE(std::is_sorted(sel.input_dataset_of.begin(), sel.input_dataset_of.end()));
  EXPECT_EQ(sel.input_dataset_of.back(), 1);

  std::vector<Rect> in_mbrs, out_mbrs;
  for (std::size_t pos = 0; pos < sel.selected_inputs.size(); ++pos) {
    const Dataset& ds = sel.input_dataset_of[pos] == 0 ? a : b;
    in_mbrs.push_back(ds.chunk(sel.selected_inputs[pos]).mbr);
  }
  for (std::uint32_t c : sel.selected_outputs) out_mbrs.push_back(out.chunk(c).mbr);
  expect_mapping_equals(sel.mapping, brute_force_rows(in_mbrs, out_mbrs, nullptr),
                        out_mbrs.size());
}

/// The marginal cache's partial hit: the reduced selection's mapping is
/// the one build_mapping gives over the reduced MBRs, and the inputs it
/// drops are exactly those whose every output was served.
TEST(MappingDifferential, ReducedSelectionEqualsFreshMapping) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scene scene = make_scene(seed);
    if (scene.outputs.empty()) continue;
    QuerySelection sel;
    for (std::uint32_t i = 0; i < scene.inputs.size(); ++i) {
      sel.selected_inputs.push_back(100 + i);
      sel.input_dataset_of.push_back(static_cast<std::uint16_t>(i % 2));
    }
    for (std::uint32_t o = 0; o < scene.outputs.size(); ++o) {
      sel.selected_outputs.push_back(1000 + o);
    }
    sel.mapping = build_mapping(scene.inputs, scene.outputs, scene.map.get());

    Rng rng(mix_seed(seed, 5));
    std::vector<char> served(scene.outputs.size());
    for (char& c : served) c = rng.chance(0.5) ? 1 : 0;
    std::vector<std::uint32_t> dropped;
    const QuerySelection reduced = reduce_selection(sel, served, dropped);

    std::vector<Rect> kept_in, kept_out;
    std::vector<std::uint32_t> expect_dropped;
    for (std::uint32_t o = 0; o < scene.outputs.size(); ++o) {
      if (!served[o]) kept_out.push_back(scene.outputs[o]);
    }
    std::vector<std::uint32_t> kept_ids;
    std::vector<std::uint16_t> kept_ordinals;
    for (std::uint32_t i = 0; i < scene.inputs.size(); ++i) {
      const auto outs = sel.mapping.outputs_of(i);
      const bool all_served =
          !outs.empty() &&
          std::all_of(outs.begin(), outs.end(),
                      [&](std::uint32_t o) { return served[o] != 0; });
      if (all_served) {
        expect_dropped.push_back(i);
        continue;
      }
      kept_in.push_back(scene.inputs[i]);
      kept_ids.push_back(sel.selected_inputs[i]);
      kept_ordinals.push_back(sel.input_dataset_of[i]);
    }
    EXPECT_EQ(dropped, expect_dropped);
    EXPECT_EQ(reduced.selected_inputs, kept_ids);
    EXPECT_EQ(reduced.input_dataset_of, kept_ordinals);
    ASSERT_EQ(reduced.selected_outputs.size(), kept_out.size());
    expect_mapping_equals(reduced.mapping,
                          brute_force_rows(kept_in, kept_out, scene.map.get()),
                          kept_out.size());
  }
}

}  // namespace
}  // namespace adr
