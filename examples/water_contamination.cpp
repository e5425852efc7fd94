// Water contamination study — the paper's WCS application.
//
// A hydrodynamics simulation writes flow/concentration grids per time
// step; a chemical-transport study asks for the time-averaged
// contaminant concentration over a period, on its own (coarser) grid.
// The ADR query couples the two: it retrieves every hydro chunk in the
// queried period and the user-defined functions accumulate per-cell
// sums and sample counts, averaging at output handling — the paper's
// "coupling multiple simulations via a customizable database" scenario.
//
//   ./water_contamination
#include <cmath>
#include <cstring>
#include <iostream>

#include "adr.hpp"

namespace {

using namespace adr;

constexpr int kHydroGrid = 20;   // hydro cells per side (input chunks/step)
constexpr int kChemGrid = 10;    // chem cells per side (output chunks)
constexpr int kTimeSteps = 30;
constexpr int kSamplesPerCell = 16;  // concentration samples per hydro cell

// Concentrations are fixed-point micrograms/litre (x1000) in uint64 so
// sums are exact and strategy-order-independent.
struct CellAccum {
  std::uint64_t sum;
  std::uint64_t count;
};

class TimeAverageOp : public AggregationOp {
 public:
  std::string name() const override { return "time-average"; }
  AccumulatorLayout layout() const override { return {2.0}; }

  std::vector<std::byte> initialize(const ChunkMeta&, const Chunk*) const override {
    return std::vector<std::byte>(sizeof(CellAccum), std::byte{0});
  }

  void aggregate(const Chunk& input, const ChunkMeta& out_meta,
                 std::vector<std::byte>& accum) const override {
    auto* cell = reinterpret_cast<CellAccum*>(accum.data());
    // Weight the hydro cell's samples by its overlap with the chem cell.
    const Rect in2d(Point{input.meta().mbr.lo()[0], input.meta().mbr.lo()[1]},
                    Point{input.meta().mbr.hi()[0], input.meta().mbr.hi()[1]});
    const double overlap = in2d.overlap_volume(out_meta.mbr);
    if (overlap <= 0.0) return;
    // Integer weight in [0, 16]: exact under any aggregation order.
    const auto weight =
        static_cast<std::uint64_t>(overlap / in2d.volume() * 16.0 + 0.5);
    if (weight == 0) return;
    for (std::uint64_t sample : input.as<std::uint64_t>()) {
      cell->sum += sample * weight;
      cell->count += weight;
    }
  }

  void combine(std::vector<std::byte>& dst,
               const std::vector<std::byte>& src) const override {
    auto* d = reinterpret_cast<CellAccum*>(dst.data());
    const auto* s = reinterpret_cast<const CellAccum*>(src.data());
    d->sum += s->sum;
    d->count += s->count;
  }

  std::vector<std::byte> output(const ChunkMeta&,
                                const std::vector<std::byte>& accum) const override {
    const auto* cell = reinterpret_cast<const CellAccum*>(accum.data());
    const std::uint64_t avg = cell->count ? cell->sum / cell->count : 0;
    std::vector<std::byte> out(sizeof(std::uint64_t));
    std::memcpy(out.data(), &avg, sizeof(avg));
    return out;
  }
};

// A contaminant plume advecting across the domain over time.
double plume(double x, double y, int t) {
  const double cx = 0.2 + 0.6 * t / kTimeSteps;  // plume centre drifts east
  const double cy = 0.5 + 0.25 * std::sin(t * 0.4);
  const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
  return 5000.0 * std::exp(-d2 / 0.02);  // mg/l x1000
}

std::vector<Chunk> make_hydro_chunks() {
  std::vector<Chunk> chunks;
  Rng rng(11);
  for (int t = 0; t < kTimeSteps; ++t) {
    for (int iy = 0; iy < kHydroGrid; ++iy) {
      for (int ix = 0; ix < kHydroGrid; ++ix) {
        ChunkMeta meta;
        const double d = 1.0 / kHydroGrid, e = 1e-9;
        meta.mbr = Rect(Point{ix * d + e, iy * d + e, t + 0.0},
                        Point{(ix + 1) * d - e, (iy + 1) * d - e, t + 0.999});
        std::vector<std::uint64_t> samples(kSamplesPerCell);
        for (auto& s : samples) {
          const double x = (ix + rng.uniform(0.0, 1.0)) / kHydroGrid;
          const double y = (iy + rng.uniform(0.0, 1.0)) / kHydroGrid;
          s = static_cast<std::uint64_t>(std::max(0.0, plume(x, y, t)));
        }
        std::vector<std::byte> payload(samples.size() * sizeof(std::uint64_t));
        std::memcpy(payload.data(), samples.data(), payload.size());
        chunks.emplace_back(meta, std::move(payload));
      }
    }
  }
  return chunks;
}

std::vector<Chunk> make_chem_chunks() {
  std::vector<Chunk> chunks;
  for (int iy = 0; iy < kChemGrid; ++iy) {
    for (int ix = 0; ix < kChemGrid; ++ix) {
      ChunkMeta meta;
      const double d = 1.0 / kChemGrid, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      meta.bytes = sizeof(std::uint64_t);
      chunks.emplace_back(meta);
    }
  }
  return chunks;
}

}  // namespace

int main() {
  RepositoryConfig config;
  config.num_nodes = 4;
  config.memory_per_node = 4 << 20;
  Repository repo(config);
  repo.aggregations().register_op(std::make_shared<TimeAverageOp>());
  repo.attribute_spaces().register_map(std::make_shared<IdentityMap>(2));

  const Rect space_time(Point{0.0, 0.0, 0.0},
                        Point{1.0, 1.0, static_cast<double>(kTimeSteps)});
  const Rect space = Rect::cube(2, 0.0, 1.0);
  const auto hydro = repo.create_dataset("hydro", space_time, make_hydro_chunks());
  const auto chem = repo.create_dataset("chem", space, make_chem_chunks());
  std::cout << "Hydro output: " << repo.dataset(hydro).num_chunks() << " chunks ("
            << kTimeSteps << " steps)\n";

  // Average the contaminant over the second half of the simulated period.
  Query q;
  q.input_dataset = hydro;
  q.output_dataset = chem;
  q.range = Rect(Point{0.0, 0.0, kTimeSteps / 2.0},
                 Point{1.0, 1.0, static_cast<double>(kTimeSteps)});
  q.map_function = "identity";
  q.aggregation = "time-average";
  q.strategy = StrategyKind::kSRA;
  const QueryResult result = repo.submit(q);
  std::cout << "Query: strategy=" << to_string(result.strategy)
            << " tiles=" << result.tiles << " reads=" << result.chunk_reads << "\n\n";

  // Render the time-averaged concentration as an ASCII heat map.
  std::cout << "Mean concentration, steps " << kTimeSteps / 2 << ".." << kTimeSteps
            << " (north up):\n";
  const char* shades = " .:-=+*#%@";
  std::uint64_t peak = 1;
  std::vector<std::uint64_t> grid(kChemGrid * kChemGrid, 0);
  for (std::uint32_t o = 0; o < kChemGrid * kChemGrid; ++o) {
    auto chunk = repo.read_chunk(chem, o);
    if (chunk && chunk->payload().size() >= 8) {
      grid[o] = chunk->as<std::uint64_t>()[0];
      peak = std::max(peak, grid[o]);
    }
  }
  for (int iy = kChemGrid - 1; iy >= 0; --iy) {
    std::cout << "  ";
    for (int ix = 0; ix < kChemGrid; ++ix) {
      const std::uint64_t v = grid[static_cast<size_t>(iy * kChemGrid + ix)];
      const int level = static_cast<int>(v * 9 / peak);
      std::cout << shades[level] << shades[level];
    }
    std::cout << '\n';
  }
  std::cout << "Peak mean concentration: " << peak / 1000.0 << " mg/l\n";
  return 0;
}
