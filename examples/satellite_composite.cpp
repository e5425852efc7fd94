// Satellite composite imaging — the paper's motivating SAT application.
//
// Generates synthetic satellite sensor readings along a polar orbit
// (each reading has a longitude, latitude and radiance value), then runs
// an ADR range query whose user-defined functions composite the "best"
// (maximum) reading per pixel onto a 2-D earth grid — the paper's
// AVHRR-style processing chain.  The result is written as a PGM image.
//
//   ./satellite_composite [output.pgm]
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>

#include "adr.hpp"

namespace {

using namespace adr;

// One sensor reading: position + value, stored as 3 doubles in payloads.
struct Reading {
  double lon;
  double lat;
  double value;
};

constexpr int kImageSize = 128;        // output pixels per side
constexpr int kOutGrid = 4;            // output chunks per side
constexpr int kPixelsPerChunk = kImageSize / kOutGrid;

// The user-defined Aggregate: max-composite readings into pixels.
// The accumulator is the pixel block of one output chunk (doubles).
class MaxCompositeOp : public AggregationOp {
 public:
  std::string name() const override { return "max-composite"; }
  AccumulatorLayout layout() const override { return {1.0}; }

  std::vector<std::byte> initialize(const ChunkMeta&, const Chunk*) const override {
    return std::vector<std::byte>(kPixelsPerChunk * kPixelsPerChunk * sizeof(double),
                                  std::byte{0});
  }

  void aggregate(const Chunk& input, const ChunkMeta& out_meta,
                 std::vector<std::byte>& accum) const override {
    const Rect& box = out_meta.mbr;
    auto pixels = std::span<double>(reinterpret_cast<double*>(accum.data()),
                                    accum.size() / sizeof(double));
    const auto readings = input.as<double>();
    for (std::size_t r = 0; r + 2 < readings.size(); r += 3) {
      const Reading reading{readings[r], readings[r + 1], readings[r + 2]};
      if (!box.contains(Point{reading.lon, reading.lat})) continue;
      const int px = std::min(kPixelsPerChunk - 1,
                              static_cast<int>((reading.lon - box.lo()[0]) /
                                               box.extent(0) * kPixelsPerChunk));
      const int py = std::min(kPixelsPerChunk - 1,
                              static_cast<int>((reading.lat - box.lo()[1]) /
                                               box.extent(1) * kPixelsPerChunk));
      double& pixel = pixels[static_cast<size_t>(py * kPixelsPerChunk + px)];
      pixel = std::max(pixel, reading.value);  // "best value" composite
    }
  }

  void combine(std::vector<std::byte>& dst,
               const std::vector<std::byte>& src) const override {
    auto d = std::span<double>(reinterpret_cast<double*>(dst.data()),
                               dst.size() / sizeof(double));
    auto s = std::span<const double>(reinterpret_cast<const double*>(src.data()),
                                     src.size() / sizeof(double));
    for (std::size_t i = 0; i < d.size() && i < s.size(); ++i) {
      d[i] = std::max(d[i], s[i]);
    }
  }

  std::vector<std::byte> output(const ChunkMeta&,
                                const std::vector<std::byte>& accum) const override {
    return accum;
  }
};

// Synthetic polar-orbit swath data over the globe.
std::vector<Chunk> make_orbit_chunks(int num_chunks, int readings_per_chunk) {
  Rng rng(7);
  std::vector<Chunk> chunks;
  for (int c = 0; c < num_chunks; ++c) {
    const double phase = rng.uniform(0.0, 2.0 * M_PI);
    const double lat_c = 80.0 * std::sin(phase);
    const double lon_c = rng.uniform(-170.0, 170.0);
    const double lon_half = 15.0 / std::max(0.25, std::cos(lat_c * M_PI / 180.0));

    std::vector<double> data;
    Rect mbr;
    for (int r = 0; r < readings_per_chunk; ++r) {
      const double lon =
          std::clamp(lon_c + rng.uniform(-lon_half, lon_half), -180.0, 180.0);
      const double lat = std::clamp(lat_c + rng.uniform(-6.0, 6.0), -90.0, 90.0);
      // Radiance: a smooth field plus noise — recognizable in the image.
      const double value = 128.0 + 100.0 * std::sin(lon * M_PI / 60.0) *
                                       std::cos(lat * M_PI / 45.0) +
                           rng.uniform(0.0, 20.0);
      data.insert(data.end(), {lon, lat, value});
      mbr = Rect::join(mbr, Rect(Point{lon, lat}, Point{lon, lat}));
    }
    ChunkMeta meta;
    meta.mbr = mbr;
    chunks.emplace_back(meta, payload_from_doubles(data));
  }
  return chunks;
}

std::vector<Chunk> make_image_chunks() {
  std::vector<Chunk> chunks;
  const Rect domain(Point{-180.0, -90.0}, Point{180.0, 90.0});
  for (int iy = 0; iy < kOutGrid; ++iy) {
    for (int ix = 0; ix < kOutGrid; ++ix) {
      ChunkMeta meta;
      const double dx = 360.0 / kOutGrid, dy = 180.0 / kOutGrid, e = 1e-7;
      meta.mbr = Rect(Point{-180.0 + ix * dx + e, -90.0 + iy * dy + e},
                      Point{-180.0 + (ix + 1) * dx - e, -90.0 + (iy + 1) * dy - e});
      meta.bytes = kPixelsPerChunk * kPixelsPerChunk * sizeof(double);
      chunks.emplace_back(meta);
    }
  }
  return chunks;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "composite.pgm";

  RepositoryConfig config;
  config.num_nodes = 4;
  config.memory_per_node = 4 << 20;
  Repository repo(config);
  repo.aggregations().register_op(std::make_shared<MaxCompositeOp>());

  const Rect globe(Point{-180.0, -90.0}, Point{180.0, 90.0});
  const auto sensors = repo.create_dataset("avhrr", globe, make_orbit_chunks(600, 200));
  const auto image = repo.create_dataset("composite", globe, make_image_chunks());
  std::cout << "Loaded " << repo.dataset(sensors).num_chunks()
            << " orbit chunks (" << 600 * 200 << " readings)\n";

  Query q;
  q.input_dataset = sensors;
  q.output_dataset = image;
  q.range = globe;  // composite the whole earth
  q.aggregation = "max-composite";
  q.strategy = StrategyKind::kAuto;
  const QueryResult result = repo.submit(q);
  std::cout << "Query ran with strategy " << to_string(result.strategy) << " in "
            << result.tiles << " tile(s); "
            << fmt_bytes(static_cast<double>(result.stats.total_bytes_sent()))
            << " communicated\n";

  // Assemble the image from the output chunks and write a PGM.
  std::vector<double> pixels(kImageSize * kImageSize, 0.0);
  for (std::uint32_t o = 0; o < kOutGrid * kOutGrid; ++o) {
    auto chunk = repo.read_chunk(image, o);
    if (!chunk || !chunk->has_payload()) continue;
    const auto block = chunk->as<double>();
    const int cx = static_cast<int>(o) % kOutGrid;
    const int cy = static_cast<int>(o) / kOutGrid;
    for (int py = 0; py < kPixelsPerChunk; ++py) {
      for (int px = 0; px < kPixelsPerChunk; ++px) {
        pixels[static_cast<size_t>((cy * kPixelsPerChunk + py) * kImageSize +
                                   cx * kPixelsPerChunk + px)] =
            block[static_cast<size_t>(py * kPixelsPerChunk + px)];
      }
    }
  }
  std::ofstream pgm(out_path);
  pgm << "P2\n" << kImageSize << ' ' << kImageSize << "\n255\n";
  int covered = 0;
  for (int y = kImageSize - 1; y >= 0; --y) {  // north up
    for (int x = 0; x < kImageSize; ++x) {
      const double v = pixels[static_cast<size_t>(y * kImageSize + x)];
      if (v > 0) ++covered;
      pgm << std::min(255, static_cast<int>(v)) << (x + 1 < kImageSize ? ' ' : '\n');
    }
  }
  std::cout << "Wrote " << out_path << " (" << covered << "/"
            << kImageSize * kImageSize << " pixels covered)\n";
  return 0;
}
