// Quickstart: the smallest complete ADR program.
//
// Builds a tiny 2-D sensor dataset, loads it into an in-process
// repository with a 4-node thread back-end, runs one range query with
// the built-in sum/count/max aggregation under each strategy, and shows
// that every strategy computes the same answer.
//
//   ./quickstart
#include <cstring>
#include <iostream>

#include "adr.hpp"

namespace {

using namespace adr;

// 8x8 grid of input chunks over [0,1)^2, 16 readings each.
std::vector<Chunk> make_sensor_chunks() {
  std::vector<Chunk> chunks;
  Rng rng(2024);
  const int n = 8;
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      ChunkMeta meta;
      const double d = 1.0 / n, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      std::vector<std::uint64_t> readings(16);
      for (auto& r : readings) {
        r = static_cast<std::uint64_t>(rng.uniform_int(0, 100));
      }
      std::vector<std::byte> payload(readings.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), readings.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

// 2x2 grid of output chunks (quadrant summaries).
std::vector<Chunk> make_output_chunks() {
  std::vector<Chunk> chunks;
  const int n = 2;
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      ChunkMeta meta;
      const double d = 1.0 / n, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

}  // namespace

int main() {
  // 1. Stand up a repository: 4 back-end nodes, one disk each, running
  //    on real threads.
  RepositoryConfig config;
  config.num_nodes = 4;
  config.memory_per_node = 1 << 20;
  Repository repo(config);

  // 2. Load datasets (partition -> decluster -> store -> index).
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  const auto sensors = repo.create_dataset("sensors", domain, make_sensor_chunks());
  const auto summary = repo.create_dataset("summary", domain, make_output_chunks());
  std::cout << "Loaded " << repo.dataset(sensors).num_chunks()
            << " sensor chunks across " << config.num_nodes << " nodes\n";

  // 3. Run the same range query under every strategy.
  for (StrategyKind strategy : {StrategyKind::kFRA, StrategyKind::kSRA,
                                StrategyKind::kDA, StrategyKind::kHybrid}) {
    Query q;
    q.input_dataset = sensors;
    q.output_dataset = summary;
    q.range = Rect(Point{0.0, 0.0}, Point{0.74, 0.74});  // 3/4 of the domain
    q.aggregation = "sum-count-max";
    q.strategy = strategy;
    const QueryResult result = repo.submit(q);

    std::cout << "\n" << to_string(strategy) << ": tiles=" << result.tiles
              << " ghost-chunks=" << result.ghost_chunks;
    // A repeat of an earlier range is answered whole from the marginal
    // cache: no node ran, so there are no per-node stats to print.
    if (result.stats.nodes.empty()) {
      std::cout << " (served from the marginal cache)\n";
    } else {
      std::cout << " msgs=" << result.stats.nodes[0].msgs_sent << "+...\n";
    }
    for (std::uint32_t o = 0; o < 4; ++o) {
      auto chunk = repo.read_chunk(summary, o);
      if (!chunk || chunk->payload().size() < 24) continue;
      const auto v = chunk->as<std::uint64_t>();
      std::cout << "  quadrant " << o << ": sum=" << v[0] << " count=" << v[1]
                << " max=" << v[2] << "\n";
    }
  }
  std::cout << "\nAll strategies report identical quadrant summaries.\n";
  return 0;
}
