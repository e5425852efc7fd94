// adr_cli — command-line front end for a file-backed ADR repository.
//
//   adr_cli ingest  --dir <d> [--points N] [--seed S] [--grid G]
//       partition N random readings into chunks, load them onto a
//       4-node file-backed farm with a GxG summary dataset, save catalog
//   adr_cli datasets --dir <d>
//       list the catalog
//   adr_cli query   --dir <d> [--range x0,y0,x1,y1] [--strategy fra|sra|da|hybrid|auto]
//                   [--agg sum-count-max|count|histogram]
//       run a range query against the persisted data, print the outputs
//   adr_cli emulate --app sat|wcs|vm [--nodes N] [--strategy ...] [--scaled] [--gantt]
//       run one paper experiment on the simulated IBM SP
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "adr.hpp"

namespace {

using namespace adr;

constexpr int kNodes = 4;

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags[arg.substr(2)] = argv[++i];
    } else {
      flags[arg.substr(2)] = "1";
    }
  }
  return flags;
}

StrategyKind parse_strategy(const std::string& s) {
  if (s == "fra") return StrategyKind::kFRA;
  if (s == "sra") return StrategyKind::kSRA;
  if (s == "da") return StrategyKind::kDA;
  if (s == "hybrid") return StrategyKind::kHybrid;
  return StrategyKind::kAuto;
}

RepositoryConfig farm_config(const std::filesystem::path& dir, bool open_existing) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = kNodes;
  cfg.memory_per_node = 4 << 20;
  cfg.storage_dir = dir / "farm";
  cfg.open_existing = open_existing;
  return cfg;
}

int cmd_ingest(const std::map<std::string, std::string>& flags) {
  const std::filesystem::path dir = flags.at("dir");
  const int points = flags.contains("points") ? std::stoi(flags.at("points")) : 10000;
  const std::uint64_t seed =
      flags.contains("seed") ? std::stoull(flags.at("seed")) : 7;
  const int grid = flags.contains("grid") ? std::stoi(flags.at("grid")) : 4;

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Repository repo(farm_config(dir, false));

  Rng rng(seed);
  std::vector<Item> items;
  items.reserve(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i) {
    Item item;
    item.position = Point{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const std::uint64_t value = static_cast<std::uint64_t>(rng.uniform_int(0, 999));
    item.payload.resize(sizeof(value));
    std::memcpy(item.payload.data(), &value, sizeof(value));
    items.push_back(std::move(item));
  }
  PartitionOptions popts;
  popts.target_chunk_bytes = 128 * sizeof(std::uint64_t);
  auto chunks = partition_items(std::move(items), Rect::cube(2, 0.0, 1.0), popts);
  std::cout << "partitioned " << points << " readings into " << chunks.size()
            << " chunks\n";
  repo.create_dataset("readings", Rect::cube(2, 0.0, 1.0), std::move(chunks));

  // Summary grid sized for the largest built-in accumulator (histogram).
  std::vector<Chunk> outputs = emu::make_output_grid(Rect::cube(2, 0.0, 1.0), grid,
                                                     grid, /*chunk_bytes=*/0,
                                                     /*payload_values=*/16);
  repo.create_dataset("summary", Rect::cube(2, 0.0, 1.0), std::move(outputs));
  repo.save_catalog(dir / "catalog.txt");
  std::cout << "ingested into " << dir << " (datasets: readings, summary "
            << grid << "x" << grid << ")\n";
  return 0;
}

int cmd_datasets(const std::map<std::string, std::string>& flags) {
  const std::filesystem::path dir = flags.at("dir");
  Repository repo(farm_config(dir, true));
  repo.load_catalog(dir / "catalog.txt");
  Table table({"id", "name", "chunks", "bytes", "dims"});
  for (std::uint32_t id = 0; id < repo.num_datasets(); ++id) {
    const Dataset& ds = repo.dataset(id);
    table.add_row({std::to_string(ds.id()), ds.name(),
                   std::to_string(ds.num_chunks()),
                   fmt_bytes(static_cast<double>(ds.total_bytes())),
                   std::to_string(ds.domain().dims())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_query(const std::map<std::string, std::string>& flags) {
  const std::filesystem::path dir = flags.at("dir");
  Repository repo(farm_config(dir, true));
  repo.load_catalog(dir / "catalog.txt");

  Query q;
  q.input_dataset = repo.find_dataset("readings")->id();
  q.output_dataset = repo.find_dataset("summary")->id();
  q.range = Rect::cube(2, 0.0, 1.0);
  if (flags.contains("range")) {
    double x0, y0, x1, y1;
    if (std::sscanf(flags.at("range").c_str(), "%lf,%lf,%lf,%lf", &x0, &y0, &x1,
                    &y1) != 4) {
      std::cerr << "bad --range, expected x0,y0,x1,y1\n";
      return 2;
    }
    q.range = Rect(Point{x0, y0}, Point{x1, y1});
  }
  q.aggregation = flags.contains("agg") ? flags.at("agg") : "sum-count-max";
  q.strategy =
      parse_strategy(flags.contains("strategy") ? flags.at("strategy") : "auto");
  q.delivery = OutputDelivery::kReturnToClient;

  const QueryResult result = repo.submit(q);
  std::cout << "strategy " << to_string(result.strategy) << ", " << result.tiles
            << " tile(s), " << result.chunk_reads << " chunk reads\n";
  for (const Chunk& chunk : result.outputs) {
    std::cout << "  chunk " << chunk.meta().id.index << " "
              << chunk.meta().mbr.to_string() << " :";
    const auto values = chunk.as<std::uint64_t>();
    for (std::size_t i = 0; i < std::min<std::size_t>(values.size(), 6); ++i) {
      std::cout << ' ' << values[i];
    }
    if (values.size() > 6) std::cout << " ...";
    std::cout << '\n';
  }
  return 0;
}

int cmd_emulate(const std::map<std::string, std::string>& flags) {
  emu::ExperimentConfig cfg;
  const std::string app = flags.contains("app") ? flags.at("app") : "sat";
  cfg.app = app == "wcs"  ? emu::PaperApp::kWcs
            : app == "vm" ? emu::PaperApp::kVm
                          : emu::PaperApp::kSat;
  cfg.nodes = flags.contains("nodes") ? std::stoi(flags.at("nodes")) : 8;
  cfg.strategy =
      parse_strategy(flags.contains("strategy") ? flags.at("strategy") : "fra");
  cfg.scaled = flags.contains("scaled");
  cfg.record_trace = flags.contains("gantt");
  const emu::ExperimentResult r = emu::run_experiment(cfg);
  std::cout << emu::to_string(cfg.app) << " on " << cfg.nodes << " nodes, "
            << to_string(cfg.strategy) << ": " << fmt(r.stats.total_s, 2)
            << " s virtual, " << r.tiles << " tiles, "
            << fmt(r.comm_mb_per_node(), 1) << " MB/node communicated\n";
  if (cfg.record_trace) std::cout << '\n' << render_gantt(r.stats, 96);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: adr_cli ingest|datasets|query|emulate [--flags]\n";
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  try {
    if (command == "ingest") return cmd_ingest(flags);
    if (command == "datasets") return cmd_datasets(flags);
    if (command == "query") return cmd_query(flags);
    if (command == "emulate") return cmd_emulate(flags);
  } catch (const std::out_of_range&) {
    std::cerr << "missing required flag (--dir?)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
