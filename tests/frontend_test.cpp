#include "core/frontend.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "test_helpers.hpp"

namespace adr {
namespace {

RepositoryConfig thread_config(int nodes) {
  RepositoryConfig cfg;
  cfg.num_nodes = nodes;
  cfg.memory_per_node = 1 << 20;
  return cfg;
}

std::vector<Chunk> grid_inputs(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t idx = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      std::vector<std::uint64_t> vals(static_cast<size_t>(values_per_chunk));
      for (auto& v : vals) v = ++idx;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> grid_outputs(int n_side) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

TEST(Repository, CreateAndLookupDatasets) {
  Repository repo(thread_config(2));
  const auto id = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  EXPECT_EQ(repo.dataset(id).name(), "in");
  EXPECT_EQ(repo.dataset(id).num_chunks(), 16u);
  EXPECT_NE(repo.find_dataset("in"), nullptr);
  EXPECT_EQ(repo.find_dataset("nope"), nullptr);
  EXPECT_THROW(repo.dataset(99), std::out_of_range);
  EXPECT_EQ(repo.num_datasets(), 1u);
}

TEST(Repository, EndToEndQueryOnThreads) {
  Repository repo(thread_config(3));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 3));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.strategy = StrategyKind::kFRA;
  const QueryResult r = repo.submit(q);
  EXPECT_EQ(r.strategy, StrategyKind::kFRA);
  EXPECT_GE(r.tiles, 1);

  // 16 input chunks x 3 values = 48 values; sum of 1..48.
  std::uint64_t total_sum = 0, total_count = 0;
  for (std::uint32_t o = 0; o < 4; ++o) {
    auto chunk = repo.read_chunk(out, o);
    ASSERT_TRUE(chunk.has_value());
    const auto view = chunk->as<std::uint64_t>();
    total_sum += view[0];
    total_count += view[1];
  }
  EXPECT_EQ(total_sum, 48u * 49u / 2u);
  EXPECT_EQ(total_count, 48u);
}

TEST(Repository, PartialRangeSelectsSubset) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  // Query only the lower-left quadrant.
  q.range = Rect(Point{0.0, 0.0}, Point{0.49, 0.49});
  q.aggregation = "sum-count-max";
  const QueryResult r = repo.submit(q);
  std::uint64_t count = 0;
  for (std::uint32_t o = 0; o < 4; ++o) {
    auto chunk = repo.read_chunk(out, o);
    if (chunk && chunk->payload().size() >= 16) {
      count += chunk->as<std::uint64_t>()[1];
    }
  }
  // Only the 4 input chunks in that quadrant (1 value each).
  EXPECT_EQ(count, 4u);
  EXPECT_GT(r.chunk_reads, 0u);
}

TEST(Repository, AutoStrategySelectsAndReportsEstimates) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.strategy = StrategyKind::kAuto;
  const QueryResult r = repo.submit(q, ComputeCosts{0.001, 0.01, 0.001, 0.001});
  // kAuto costs the candidates with the paper's SP machine model whatever
  // substrate runs the query: these are its estimates for this query.
  // DA skips the ghost combine the replicated strategies pay for.
  ASSERT_EQ(r.estimates.size(), 3u);
  const std::pair<StrategyKind, double> expected[] = {
      {StrategyKind::kFRA, 0.122013427734375},
      {StrategyKind::kSRA, 0.122013427734375},
      {StrategyKind::kDA, 0.12001068115234374}};
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& [kind, est] = r.estimates[k];
    EXPECT_EQ(kind, expected[k].first);
    EXPECT_DOUBLE_EQ(est.total_s, expected[k].second) << to_string(kind);
    EXPECT_DOUBLE_EQ(est.init_s, 0.020002288818359377);
    EXPECT_DOUBLE_EQ(est.lr_s, 0.080006103515624996);
    EXPECT_DOUBLE_EQ(est.oh_s, 0.020002288818359377);
  }
  EXPECT_DOUBLE_EQ(r.estimates[0].second.gc_s, 0.0020027465820312501);
  EXPECT_DOUBLE_EQ(r.estimates[2].second.gc_s, 0.0);
  EXPECT_EQ(r.strategy, StrategyKind::kDA);
}

TEST(Repository, RejectsUnknownAggregation) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "does-not-exist";
  EXPECT_THROW(repo.submit(q), std::invalid_argument);
}

TEST(Repository, RejectsInvalidRange) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.aggregation = "sum-count-max";
  // default-constructed (invalid) range
  EXPECT_THROW(repo.submit(q), std::invalid_argument);
}

TEST(Repository, CustomMapFunctionByName) {
  Repository repo(thread_config(2));
  repo.attribute_spaces().register_map(std::make_shared<IdentityMap>(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.map_function = "identity";
  EXPECT_NO_THROW(repo.submit(q));
  q.map_function = "unknown";
  EXPECT_THROW(repo.submit(q), std::invalid_argument);
}

TEST(Repository, BadMachineShapeRejected) {
  RepositoryConfig cfg;
  cfg.num_nodes = 0;
  EXPECT_THROW(Repository{cfg}, std::invalid_argument);
}

TEST(Repository, ReturnToClientDeliversOutputs) {
  Repository repo(thread_config(3));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 3));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  const QueryResult r = repo.submit(q);

  ASSERT_EQ(r.outputs.size(), 4u);
  std::uint64_t sum = 0, count = 0;
  for (const Chunk& chunk : r.outputs) {
    const auto v = chunk.as<std::uint64_t>();
    sum += v[0];
    count += v[1];
  }
  EXPECT_EQ(sum, 48u * 49u / 2u);
  EXPECT_EQ(count, 48u);
  // Sorted by chunk id.
  for (std::size_t i = 1; i < r.outputs.size(); ++i) {
    EXPECT_LT(r.outputs[i - 1].meta().id, r.outputs[i].meta().id);
  }
  // Nothing written back: stored output chunks still zero.
  for (std::uint32_t o = 0; o < 4; ++o) {
    auto stored = repo.read_chunk(out, o);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->as<std::uint64_t>()[1], 0u);  // count untouched
  }
}

TEST(Repository, DiscardDeliveryProducesNoOutputs) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kDiscard;
  const QueryResult r = repo.submit(q);
  EXPECT_TRUE(r.outputs.empty());
  std::uint64_t written = 0;
  for (const auto& n : r.stats.nodes) written += n.chunks_written;
  EXPECT_EQ(written, 0u);
}

TEST(QuerySubmissionService, TicketsAndFifoProcessing) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  QuerySubmissionService service(repo);

  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;

  const auto t1 = service.enqueue(q);
  q.strategy = StrategyKind::kDA;
  const auto t2 = service.enqueue(q);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(service.pending(), 2u);
  EXPECT_FALSE(service.try_take(t1).has_value());  // not processed yet

  EXPECT_EQ(service.process_all(), 2u);
  EXPECT_EQ(service.pending(), 0u);
  const auto o1 = service.take(t1);
  const auto o2 = service.take(t2);
  ASSERT_TRUE(o1.ok()) << o1.status.to_string();
  ASSERT_TRUE(o2.ok()) << o2.status.to_string();
  EXPECT_EQ(o2.result.strategy, StrategyKind::kDA);
  EXPECT_EQ(o1.result.outputs.size(), 4u);
  // Unknown tickets come back as kNotFound, immediately.
  EXPECT_EQ(service.take(99999).status.code, StatusCode::kNotFound);
  // Taking the same ticket twice also misses: take() releases retention.
  EXPECT_EQ(service.take(t1).status.code, StatusCode::kNotFound);
}

TEST(Repository, FileBackedFarmPersistsAcrossInstances) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_repo_persist";
  std::filesystem::remove_all(dir);
  const auto catalog = dir / "catalog.txt";
  std::filesystem::create_directories(dir);

  std::uint32_t in = 0, out = 0;
  {
    RepositoryConfig cfg = thread_config(2);
    cfg.storage_dir = dir / "farm";
    Repository repo(cfg);
    in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
    out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
    repo.save_catalog(catalog);
  }

  RepositoryConfig cfg = thread_config(2);
  cfg.storage_dir = dir / "farm";
  cfg.open_existing = true;
  Repository repo(cfg);
  EXPECT_EQ(repo.load_catalog(catalog), 2u);
  EXPECT_EQ(repo.dataset(in).num_chunks(), 16u);

  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  const QueryResult r = repo.submit(q);
  std::uint64_t count = 0;
  for (const Chunk& c : r.outputs) count += c.as<std::uint64_t>()[1];
  EXPECT_EQ(count, 32u);  // 16 chunks x 2 values, read back from disk files

  // New datasets get ids after the restored ones.
  const auto extra =
      repo.create_dataset("extra", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 1));
  EXPECT_GT(extra, out);
  std::filesystem::remove_all(dir);
}

TEST(Repository, LoadCatalogRejectsForeignFarm) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_repo_foreign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto catalog = dir / "catalog.txt";
  {
    Repository big(thread_config(8));  // 8 disks
    big.create_dataset("wide", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
    big.save_catalog(catalog);
  }
  Repository small(thread_config(2));  // only 2 disks
  EXPECT_THROW(small.load_catalog(catalog), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(Repository, MultiInputQueryAggregatesAllDatasets) {
  // Two sensor datasets over the same attribute space (the paper's
  // satellite scenario uses "one or more datasets" per composite).
  Repository repo(thread_config(3));
  const auto sat_a =
      repo.create_dataset("sat-a", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto sat_b =
      repo.create_dataset("sat-b", Rect::cube(2, 0.0, 1.0), grid_inputs(2, 5));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  Query q;
  q.input_dataset = sat_a;
  q.extra_input_datasets = {sat_b};
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  for (StrategyKind s : {StrategyKind::kFRA, StrategyKind::kDA}) {
    q.strategy = s;
    const QueryResult r = repo.submit(q);
    std::uint64_t count = 0;
    for (const Chunk& c : r.outputs) count += c.as<std::uint64_t>()[1];
    // 16 chunks x 2 values + 4 chunks x 5 values.
    EXPECT_EQ(count, 16u * 2u + 4u * 5u) << to_string(s);
  }
}

TEST(Repository, MultiInputRangeSelectsPerDataset) {
  Repository repo(thread_config(2));
  const auto a = repo.create_dataset("a", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto b = repo.create_dataset("b", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 1));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));
  Query q;
  q.input_dataset = a;
  q.extra_input_datasets = {b};
  q.output_dataset = out;
  q.range = Rect(Point{0.0, 0.0}, Point{0.49, 0.49});  // one quadrant
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;
  const QueryResult r = repo.submit(q);
  std::uint64_t count = 0;
  for (const Chunk& c : r.outputs) count += c.as<std::uint64_t>()[1];
  EXPECT_EQ(count, 8u);  // 4 chunks from each dataset, 1 value each
}

TEST(Repository, HistogramAggregationEndToEnd) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 4));
  // Histogram accumulators are 16 uint64 buckets = 128 B per output.
  std::vector<Chunk> outs;
  for (Chunk& c : grid_outputs(2)) {
    c.meta().bytes = 128;
    outs.emplace_back(c.meta(), std::vector<std::byte>(128, std::byte{0}));
  }
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), std::move(outs));
  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "histogram";
  q.delivery = OutputDelivery::kReturnToClient;
  const QueryResult r = repo.submit(q);
  std::uint64_t total = 0;
  for (const Chunk& c : r.outputs) {
    for (std::uint64_t bucket : c.as<std::uint64_t>()) total += bucket;
  }
  EXPECT_EQ(total, 64u);  // every one of 16 chunks x 4 values lands somewhere
}

}  // namespace
}  // namespace adr
