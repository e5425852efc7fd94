// Virtual Microscope — the paper's VM application.
//
// A digitized slide is stored as a grid of high-resolution image tiles;
// a viewer requests a region at a coarser magnification.  The ADR query
// retrieves the tiles under the viewport and the user-defined functions
// average blocks of high-resolution pixels onto the display grid
// ("appropriately compositing pixels mapping onto a single grid point,
// to avoid introducing spurious artifacts").
//
// Pixel sums use exact integer arithmetic, so any strategy and any
// execution order produce the identical displayed image.
//
//   ./virtual_microscope [out.pgm]
#include <cstring>
#include <fstream>
#include <iostream>

#include "adr.hpp"

namespace {

using namespace adr;

constexpr int kSlideTiles = 16;    // slide is 16x16 tiles
constexpr int kTilePixels = 64;    // each tile is 64x64 pixels
constexpr int kViewGrid = 4;       // display is 4x4 output chunks
constexpr int kViewChunkPx = 32;   // each display chunk is 32x32 pixels

// Accumulator layout per output chunk: for every display pixel a
// (sum, count) pair of uint64.
struct PixelAccum {
  std::uint64_t sum;
  std::uint64_t count;
};

class DownsampleOp : public AggregationOp {
 public:
  std::string name() const override { return "vm-downsample"; }
  AccumulatorLayout layout() const override { return {2.0}; }

  std::vector<std::byte> initialize(const ChunkMeta&, const Chunk*) const override {
    return std::vector<std::byte>(kViewChunkPx * kViewChunkPx * sizeof(PixelAccum),
                                  std::byte{0});
  }

  void aggregate(const Chunk& input, const ChunkMeta& out_meta,
                 std::vector<std::byte>& accum) const override {
    auto cells = std::span<PixelAccum>(reinterpret_cast<PixelAccum*>(accum.data()),
                                       accum.size() / sizeof(PixelAccum));
    const Rect& in_box = input.meta().mbr;
    const Rect& out_box = out_meta.mbr;
    const auto pixels = input.as<std::uint64_t>();
    // Walk the tile's pixels; project each into the display grid.
    for (int py = 0; py < kTilePixels; ++py) {
      for (int px = 0; px < kTilePixels; ++px) {
        const double x =
            in_box.lo()[0] + (px + 0.5) / kTilePixels * in_box.extent(0);
        const double y =
            in_box.lo()[1] + (py + 0.5) / kTilePixels * in_box.extent(1);
        if (!out_box.contains(Point{x, y})) continue;
        const int gx = std::min(kViewChunkPx - 1,
                                static_cast<int>((x - out_box.lo()[0]) /
                                                 out_box.extent(0) * kViewChunkPx));
        const int gy = std::min(kViewChunkPx - 1,
                                static_cast<int>((y - out_box.lo()[1]) /
                                                 out_box.extent(1) * kViewChunkPx));
        PixelAccum& cell = cells[static_cast<size_t>(gy * kViewChunkPx + gx)];
        cell.sum += pixels[static_cast<size_t>(py * kTilePixels + px)];
        cell.count += 1;
      }
    }
  }

  void combine(std::vector<std::byte>& dst,
               const std::vector<std::byte>& src) const override {
    auto d = std::span<PixelAccum>(reinterpret_cast<PixelAccum*>(dst.data()),
                                   dst.size() / sizeof(PixelAccum));
    auto s = std::span<const PixelAccum>(
        reinterpret_cast<const PixelAccum*>(src.data()), src.size() / sizeof(PixelAccum));
    for (std::size_t i = 0; i < d.size() && i < s.size(); ++i) {
      d[i].sum += s[i].sum;
      d[i].count += s[i].count;
    }
  }

  std::vector<std::byte> output(const ChunkMeta&,
                                const std::vector<std::byte>& accum) const override {
    // Finalize averages into one byte per display pixel.
    auto cells = std::span<const PixelAccum>(
        reinterpret_cast<const PixelAccum*>(accum.data()),
        accum.size() / sizeof(PixelAccum));
    std::vector<std::byte> image(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::uint64_t avg = cells[i].count ? cells[i].sum / cells[i].count : 0;
      image[i] = static_cast<std::byte>(std::min<std::uint64_t>(255, avg));
    }
    return image;
  }
};

// Synthetic slide: tissue-like blobs over the tile grid.
std::vector<Chunk> make_slide_tiles() {
  std::vector<Chunk> tiles;
  const double slide = 1.0;
  for (int ty = 0; ty < kSlideTiles; ++ty) {
    for (int tx = 0; tx < kSlideTiles; ++tx) {
      ChunkMeta meta;
      const double d = slide / kSlideTiles, e = 1e-9;
      meta.mbr = Rect(Point{tx * d + e, ty * d + e},
                      Point{(tx + 1) * d - e, (ty + 1) * d - e});
      std::vector<std::uint64_t> pixels(kTilePixels * kTilePixels);
      for (int py = 0; py < kTilePixels; ++py) {
        for (int px = 0; px < kTilePixels; ++px) {
          const double x = tx + static_cast<double>(px) / kTilePixels;
          const double y = ty + static_cast<double>(py) / kTilePixels;
          // Deterministic "tissue" pattern: overlapping sinusoid blobs.
          const double v = 96.0 + 80.0 * std::sin(x * 1.3) * std::sin(y * 1.7) +
                           48.0 * std::sin(x * 5.1 + y * 3.9);
          pixels[static_cast<size_t>(py * kTilePixels + px)] =
              static_cast<std::uint64_t>(std::clamp(v, 0.0, 255.0));
        }
      }
      std::vector<std::byte> payload(pixels.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), pixels.data(), payload.size());
      tiles.emplace_back(meta, std::move(payload));
    }
  }
  return tiles;
}

std::vector<Chunk> make_view_chunks() {
  std::vector<Chunk> chunks;
  for (int iy = 0; iy < kViewGrid; ++iy) {
    for (int ix = 0; ix < kViewGrid; ++ix) {
      ChunkMeta meta;
      const double d = 1.0 / kViewGrid, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      meta.bytes = kViewChunkPx * kViewChunkPx;
      chunks.emplace_back(meta);
    }
  }
  return chunks;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "slide_view.pgm";

  RepositoryConfig config;
  config.num_nodes = 4;
  config.memory_per_node = 8 << 20;
  Repository repo(config);
  repo.aggregations().register_op(std::make_shared<DownsampleOp>());

  const Rect slide = Rect::cube(2, 0.0, 1.0);
  const auto tiles = repo.create_dataset("slide", slide, make_slide_tiles());
  const auto view = repo.create_dataset("view", slide, make_view_chunks());
  std::cout << "Slide: " << repo.dataset(tiles).num_chunks() << " tiles of "
            << kTilePixels << "x" << kTilePixels << " pixels\n";

  Query q;
  q.input_dataset = tiles;
  q.output_dataset = view;
  q.range = slide;  // view the whole slide at low magnification
  q.aggregation = "vm-downsample";
  q.strategy = StrategyKind::kDA;  // VM favors DA (paper section 4)
  const QueryResult result = repo.submit(q);
  std::cout << "Rendered with " << to_string(result.strategy) << ": "
            << result.stats.total_lr_pairs() << " tile aggregations, "
            << result.tiles << " tile pass(es)\n";

  // Assemble the viewport image.
  const int image_px = kViewGrid * kViewChunkPx;
  std::vector<int> image(static_cast<size_t>(image_px) * image_px, 0);
  for (std::uint32_t o = 0; o < kViewGrid * kViewGrid; ++o) {
    auto chunk = repo.read_chunk(view, o);
    if (!chunk || !chunk->has_payload()) continue;
    const int cx = static_cast<int>(o) % kViewGrid;
    const int cy = static_cast<int>(o) / kViewGrid;
    for (int py = 0; py < kViewChunkPx; ++py) {
      for (int px = 0; px < kViewChunkPx; ++px) {
        image[static_cast<size_t>((cy * kViewChunkPx + py) * image_px +
                                  cx * kViewChunkPx + px)] =
            static_cast<int>(chunk->payload()[static_cast<size_t>(
                py * kViewChunkPx + px)]);
      }
    }
  }
  std::ofstream pgm(out_path);
  pgm << "P2\n" << image_px << ' ' << image_px << "\n255\n";
  for (int y = 0; y < image_px; ++y) {
    for (int x = 0; x < image_px; ++x) {
      pgm << image[static_cast<size_t>(y * image_px + x)]
          << (x + 1 < image_px ? ' ' : '\n');
    }
  }
  std::cout << "Wrote " << out_path << " (" << image_px << "x" << image_px << ")\n";
  return 0;
}
