#include "emulator/emulator.hpp"

#include <gtest/gtest.h>

#include "core/planner/mapping.hpp"

namespace adr::emu {
namespace {

ChunkMapping map_app(const EmulatedApp& app) {
  std::vector<Rect> in_mbrs, out_mbrs;
  for (const Chunk& c : app.input_chunks) in_mbrs.push_back(c.meta().mbr);
  for (const Chunk& c : app.output_chunks) out_mbrs.push_back(c.meta().mbr);
  IdentityMap drop(app.output_domain.dims());
  return build_mapping(in_mbrs, out_mbrs, &drop);
}

TEST(GridCell, CellsDoNotTouchNeighbors) {
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  const Rect a = grid_cell(domain, 4, 4, 0, 0);
  const Rect b = grid_cell(domain, 4, 4, 1, 0);
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(domain.contains(a));
}

TEST(MakePayload, DeterministicAndBounded) {
  const auto a = make_payload(3, 8);
  const auto b = make_payload(3, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 8 * sizeof(std::uint64_t));
  Chunk c(ChunkMeta{}, make_payload(5, 16));
  for (std::uint64_t v : c.as<std::uint64_t>()) EXPECT_LT(v, 1000u);
}

TEST(MakeOutputGrid, ShapeAndBytes) {
  const auto grid = make_output_grid(Rect::cube(2, 0.0, 1.0), 4, 3, 1000, 0);
  EXPECT_EQ(grid.size(), 12u);
  for (const Chunk& c : grid) {
    EXPECT_EQ(c.meta().bytes, 1000u);
    EXPECT_FALSE(c.has_payload());
  }
}

TEST(MakeOutputGrid, PayloadModeZeroFilled) {
  const auto grid = make_output_grid(Rect::cube(2, 0.0, 1.0), 2, 2, 0, 3);
  for (const Chunk& c : grid) {
    ASSERT_TRUE(c.has_payload());
    for (std::uint64_t v : c.as<std::uint64_t>()) EXPECT_EQ(v, 0u);
  }
}

// --------------------------------------------------------------- SAT

TEST(SatEmulator, ChunkCountAndDomains) {
  SatParams p;
  p.common.num_input_chunks = 2000;
  const EmulatedApp app = make_sat(p);
  EXPECT_EQ(app.name, "SAT");
  EXPECT_EQ(app.input_chunks.size(), 2000u);
  EXPECT_EQ(app.output_chunks.size(), 256u);
  EXPECT_EQ(app.input_domain.dims(), 3);
  EXPECT_EQ(app.output_domain.dims(), 2);
  for (const Chunk& c : app.input_chunks) {
    EXPECT_TRUE(app.input_domain.contains(c.meta().mbr)) << c.meta().mbr.to_string();
  }
}

TEST(SatEmulator, FanOutNearPaperValue) {
  SatParams p;
  p.common.num_input_chunks = 9000;
  const EmulatedApp app = make_sat(p);
  const ChunkMapping m = map_app(app);
  // Paper Table 1: average fan-out 4.6 for SAT.
  EXPECT_NEAR(m.mean_fan_out(), 4.6, 1.0);
  // Fan-in ~161 at 9K chunks.
  EXPECT_NEAR(m.mean_fan_in(), 161.0, 40.0);
}

TEST(SatEmulator, PolarChunksElongated) {
  SatParams p;
  p.common.num_input_chunks = 4000;
  const EmulatedApp app = make_sat(p);
  double polar = 0.0, equatorial = 0.0;
  int polar_n = 0, equatorial_n = 0;
  for (const Chunk& c : app.input_chunks) {
    const Rect& mbr = c.meta().mbr;
    const double lat = mbr.center(1);
    if (std::abs(lat) > 60.0) {
      polar += mbr.extent(0);
      ++polar_n;
    } else if (std::abs(lat) < 30.0) {
      equatorial += mbr.extent(0);
      ++equatorial_n;
    }
  }
  ASSERT_GT(polar_n, 0);
  ASSERT_GT(equatorial_n, 0);
  EXPECT_GT(polar / polar_n, 1.5 * (equatorial / equatorial_n));
}

TEST(SatEmulator, PolarOversamplingSkew) {
  // The polar orbit visits high latitudes more often: the per-output
  // fan-in at the top rows of the image exceeds the equatorial rows.
  SatParams p;
  p.common.num_input_chunks = 8000;
  const EmulatedApp app = make_sat(p);
  const ChunkMapping m = map_app(app);
  // Output chunks are a 16x16 grid in row-major order (iy major).
  double polar_fan = 0.0, mid_fan = 0.0;
  for (int iy : {0, 15}) {
    for (int ix = 0; ix < 16; ++ix) {
      polar_fan += static_cast<double>(m.inputs_of(static_cast<size_t>(iy * 16 + ix)).size());
    }
  }
  for (int iy : {7, 8}) {
    for (int ix = 0; ix < 16; ++ix) {
      mid_fan += static_cast<double>(m.inputs_of(static_cast<size_t>(iy * 16 + ix)).size());
    }
  }
  EXPECT_GT(polar_fan, 1.3 * mid_fan);
}

TEST(SatEmulator, ScalingExtendsTimeNotSpace) {
  SatParams small;
  small.common.num_input_chunks = 1000;
  SatParams big;
  big.common.num_input_chunks = 4000;
  const EmulatedApp a = make_sat(small);
  const EmulatedApp b = make_sat(big);
  EXPECT_GT(b.input_domain.extent(2), a.input_domain.extent(2) * 3.5);
  EXPECT_EQ(a.output_domain, b.output_domain);
}

TEST(SatEmulator, SeedDeterminism) {
  SatParams p;
  p.common.num_input_chunks = 500;
  const EmulatedApp a = make_sat(p);
  const EmulatedApp b = make_sat(p);
  for (std::size_t i = 0; i < a.input_chunks.size(); ++i) {
    EXPECT_EQ(a.input_chunks[i].meta().mbr, b.input_chunks[i].meta().mbr);
  }
}

// ---------------------------------------------------------------- VM

TEST(VmEmulator, FanOutExactlyOne) {
  VmParams p;
  p.common.num_input_chunks = 4096;
  const EmulatedApp app = make_vm(p);
  EXPECT_EQ(app.input_chunks.size(), 4096u);
  const ChunkMapping m = map_app(app);
  for (std::uint32_t i = 0; i < m.num_inputs(); ++i) {
    EXPECT_EQ(m.outputs_of(i).size(), 1u);
  }
  EXPECT_DOUBLE_EQ(m.mean_fan_in(), 16.0);  // paper Table 1
}

TEST(VmEmulator, RoundsToRealizableGrid) {
  VmParams p;
  p.common.num_input_chunks = 5000;  // not a (16k)^2
  const EmulatedApp app = make_vm(p);
  // Nearest realizable grid: 64x64 = 4096.
  EXPECT_EQ(app.input_chunks.size(), 4096u);
}

TEST(VmEmulator, PayloadMode) {
  VmParams p;
  p.common.num_input_chunks = 256;
  p.common.payload_values = 4;
  const EmulatedApp app = make_vm(p);
  for (const Chunk& c : app.input_chunks) {
    ASSERT_TRUE(c.has_payload());
    EXPECT_EQ(c.meta().bytes, 4 * sizeof(std::uint64_t));
  }
}

// --------------------------------------------------------------- WCS

TEST(WcsEmulator, FanOutNearPaperValue) {
  WcsParams p;
  p.common.num_input_chunks = 7500;
  const EmulatedApp app = make_wcs(p);
  EXPECT_EQ(app.input_chunks.size(), 7500u);
  EXPECT_EQ(app.output_chunks.size(), 150u);
  const ChunkMapping m = map_app(app);
  // Paper Table 1: fan-out 1.2, fan-in 60 at 7.5K chunks.
  EXPECT_NEAR(m.mean_fan_out(), 1.2, 0.08);
  EXPECT_NEAR(m.mean_fan_in(), 60.0, 5.0);
}

TEST(WcsEmulator, NoStraddlersMeansFanOutOne) {
  WcsParams p;
  p.common.num_input_chunks = 1200;
  p.straddle_fraction = 0.0;
  const EmulatedApp app = make_wcs(p);
  const ChunkMapping m = map_app(app);
  EXPECT_DOUBLE_EQ(m.mean_fan_out(), 1.0);
}

TEST(WcsEmulator, TimeStepsCoverRequestedCount) {
  WcsParams p;
  p.common.num_input_chunks = 2000;
  const EmulatedApp app = make_wcs(p);
  EXPECT_EQ(app.input_chunks.size(), 2000u);
  EXPECT_EQ(app.input_domain.dims(), 3);
  // All chunks inside the declared domain.
  for (const Chunk& c : app.input_chunks) {
    EXPECT_TRUE(app.input_domain.contains(c.meta().mbr));
  }
}

TEST(EmulatedApp, ByteTotals) {
  VmParams p;
  p.common.num_input_chunks = 256;
  p.common.input_chunk_bytes = 1000;
  p.common.output_chunk_bytes = 500;
  const EmulatedApp app = make_vm(p);
  EXPECT_EQ(app.input_bytes(), 256u * 1000u);
  EXPECT_EQ(app.output_bytes(), 256u * 500u);
}

}  // namespace
}  // namespace adr::emu
