// Persistent repository: ingest once, query across process lifetimes.
//
// Phase 1 ("ingest") partitions a stream of sensor readings into chunks
// with the Hilbert partitioner, loads them onto a file-backed disk farm,
// and saves the catalog.  Phase 2 ("reopen") — normally a later process —
// reattaches to the farm, restores the catalog, and runs a range query
// against the persisted data.
//
//   ./persistent_repository [workdir]
#include <cstring>
#include <filesystem>
#include <iostream>

#include "adr.hpp"

namespace {

using namespace adr;

constexpr int kReadings = 4000;

RepositoryConfig farm_config(const std::filesystem::path& dir, bool open_existing) {
  RepositoryConfig cfg;
  cfg.num_nodes = 4;
  cfg.memory_per_node = 1 << 20;
  cfg.storage_dir = dir / "farm";
  cfg.open_existing = open_existing;
  return cfg;
}

std::vector<Chunk> output_grid() {
  std::vector<Chunk> chunks;
  for (int iy = 0; iy < 2; ++iy) {
    for (int ix = 0; ix < 2; ++ix) {
      ChunkMeta meta;
      const double d = 0.5, e = 1e-9;
      meta.mbr = Rect(Point{ix * d + e, iy * d + e},
                      Point{(ix + 1) * d - e, (iy + 1) * d - e});
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

void ingest(const std::filesystem::path& dir) {
  Repository repo(farm_config(dir, /*open_existing=*/false));

  // Partition a synthetic reading stream into spatially compact chunks
  // (the paper's load step 1), then run the 4-step load.
  Rng rng(99);
  std::vector<Item> items;
  for (int i = 0; i < kReadings; ++i) {
    Item item;
    item.position = Point{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const std::uint64_t value = static_cast<std::uint64_t>(rng.uniform_int(0, 500));
    item.payload.resize(sizeof(value));
    std::memcpy(item.payload.data(), &value, sizeof(value));
    items.push_back(std::move(item));
  }
  PartitionOptions popts;
  popts.target_chunk_bytes = 64 * sizeof(std::uint64_t);
  auto chunks = partition_items(std::move(items), Rect::cube(2, 0.0, 1.0), popts);
  std::cout << "Partitioned " << kReadings << " readings into " << chunks.size()
            << " chunks (mean MBR overlap " << fmt(partition_overlap(chunks), 4)
            << ")\n";

  repo.create_dataset("readings", Rect::cube(2, 0.0, 1.0), std::move(chunks));
  repo.create_dataset("summary", Rect::cube(2, 0.0, 1.0), output_grid());
  repo.save_catalog(dir / "catalog.txt");
  std::cout << "Ingested and saved catalog to " << (dir / "catalog.txt") << "\n";
}

void reopen_and_query(const std::filesystem::path& dir) {
  Repository repo(farm_config(dir, /*open_existing=*/true));
  const std::size_t restored = repo.load_catalog(dir / "catalog.txt");
  std::cout << "Reopened farm; restored " << restored << " datasets\n";

  const Dataset* readings = repo.find_dataset("readings");
  const Dataset* summary = repo.find_dataset("summary");

  Query q;
  q.input_dataset = readings->id();
  q.output_dataset = summary->id();
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.strategy = StrategyKind::kSRA;
  q.delivery = OutputDelivery::kReturnToClient;
  const QueryResult result = repo.submit(q);

  std::uint64_t total = 0, count = 0;
  for (const Chunk& chunk : result.outputs) {
    const auto v = chunk.as<std::uint64_t>();
    total += v[0];
    count += v[1];
    std::cout << "  quadrant " << chunk.meta().id.index << ": count=" << v[1]
              << " mean=" << (v[1] ? v[0] / v[1] : 0) << "\n";
  }
  std::cout << "Aggregated " << count << " persisted readings (sum " << total << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? argv[1]
               : std::filesystem::temp_directory_path() / "adr_persistent_demo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ingest(dir);
  std::cout << "\n--- simulating a later process ---\n\n";
  reopen_and_query(dir);
  std::cout << "\n(farm and catalog left under " << dir << ")\n";
  return 0;
}
