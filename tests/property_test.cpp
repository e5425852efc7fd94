// Property-based tests: invariants that must hold over randomized
// scenarios (random geometry, ownership, memory budgets, strategies).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "common/random.hpp"
#include "core/exec/query_executor.hpp"
#include "core/planner/mapping.hpp"
#include "core/planner/strategy.hpp"
#include "core/planner/tiling.hpp"
#include "runtime/thread_executor.hpp"
#include "storage/loader.hpp"

namespace adr {
namespace {

/// A random scenario: clustered input MBRs over a random output grid.
struct RandomScenario {
  Rect domain = Rect::cube(2, 0.0, 1.0);
  std::vector<Rect> input_mbrs;
  std::vector<Rect> output_mbrs;
  ChunkMapping mapping;
  int nodes;
  std::uint64_t memory;

  static RandomScenario make(std::uint64_t seed) {
    Rng rng(seed);
    RandomScenario s;
    s.nodes = static_cast<int>(rng.uniform_int(1, 6));
    const int out_n = static_cast<int>(rng.uniform_int(2, 5));
    for (int iy = 0; iy < out_n; ++iy) {
      for (int ix = 0; ix < out_n; ++ix) {
        const double d = 1.0 / out_n;
        s.output_mbrs.emplace_back(Point{ix * d + 1e-9, iy * d + 1e-9},
                                   Point{(ix + 1) * d - 1e-9, (iy + 1) * d - 1e-9});
      }
    }
    const int inputs = static_cast<int>(rng.uniform_int(20, 120));
    for (int i = 0; i < inputs; ++i) {
      const double cx = rng.uniform(0.0, 1.0);
      const double cy = rng.uniform(0.0, 1.0);
      const double w = rng.uniform(0.01, 0.4);
      const double h = rng.uniform(0.01, 0.4);
      Point lo{std::max(0.0, cx - w / 2), std::max(0.0, cy - h / 2)};
      Point hi{std::min(1.0, cx + w / 2), std::min(1.0, cy + h / 2)};
      s.input_mbrs.emplace_back(lo, hi);
    }
    s.mapping = build_mapping(s.input_mbrs, s.output_mbrs, nullptr);
    // Memory: between one accumulator chunk (72 B under the 3x layout)
    // and the whole set.
    s.memory = static_cast<std::uint64_t>(
        rng.uniform_int(72, 72 * static_cast<std::int64_t>(s.output_mbrs.size())));
    return s;
  }

  PlannerInput planner_input(std::uint64_t seed) const {
    Rng rng(mix_seed(seed, 17));
    PlannerInput in;
    in.num_nodes = nodes;
    in.memory_per_node = memory;
    in.mapping = &mapping;
    for (std::size_t i = 0; i < input_mbrs.size(); ++i) {
      in.owner_of_input.push_back(static_cast<int>(rng.uniform_int(0, nodes - 1)));
      in.input_bytes.push_back(static_cast<std::uint64_t>(rng.uniform_int(100, 2000)));
    }
    for (std::size_t o = 0; o < output_mbrs.size(); ++o) {
      in.owner_of_output.push_back(static_cast<int>(rng.uniform_int(0, nodes - 1)));
      in.output_bytes.push_back(24);
      in.accum_bytes.push_back(72);
    }
    in.output_order = tiling_order(output_mbrs, domain, TilingOrder::kHilbert);
    return in;
  }
};

class PlanPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanPropertyTest, AllStrategiesProduceValidPlans) {
  const RandomScenario s = RandomScenario::make(GetParam());
  const PlannerInput in = s.planner_input(GetParam());
  for (const QueryPlan& plan :
       {plan_fra(in), plan_sra(in), plan_da(in), plan_hybrid(in, 0.3)}) {
    EXPECT_TRUE(validate_plan(plan, in))
        << to_string(plan.strategy) << " seed=" << GetParam();
  }
}

TEST_P(PlanPropertyTest, GhostSubsetChain) {
  // ghosts(DA) ⊆ ghosts(hybrid) ⊆ ghosts(SRA) ⊆ ghosts(FRA) per chunk.
  const RandomScenario s = RandomScenario::make(GetParam());
  const PlannerInput in = s.planner_input(GetParam());
  const QueryPlan fra = plan_fra(in);
  const QueryPlan sra = plan_sra(in);
  const QueryPlan hybrid = plan_hybrid(in, 0.3);
  const QueryPlan da = plan_da(in);
  for (std::size_t o = 0; o < s.output_mbrs.size(); ++o) {
    const std::set<int> g_fra(fra.ghost_hosts[o].begin(), fra.ghost_hosts[o].end());
    const std::set<int> g_sra(sra.ghost_hosts[o].begin(), sra.ghost_hosts[o].end());
    const std::set<int> g_hyb(hybrid.ghost_hosts[o].begin(), hybrid.ghost_hosts[o].end());
    EXPECT_TRUE(da.ghost_hosts[o].empty());
    EXPECT_TRUE(std::includes(g_sra.begin(), g_sra.end(), g_hyb.begin(), g_hyb.end()));
    EXPECT_TRUE(std::includes(g_fra.begin(), g_fra.end(), g_sra.begin(), g_sra.end()));
  }
}

TEST_P(PlanPropertyTest, ReadsArePlacedOnOwners) {
  const RandomScenario s = RandomScenario::make(GetParam());
  const PlannerInput in = s.planner_input(GetParam());
  for (const QueryPlan& plan : {plan_fra(in), plan_sra(in), plan_da(in)}) {
    for (int n = 0; n < plan.num_nodes; ++n) {
      for (const auto& tile : plan.node_tiles[static_cast<size_t>(n)]) {
        for (std::uint32_t i : tile.reads) EXPECT_EQ(in.owner_of_input[i], n);
      }
    }
  }
}

TEST_P(PlanPropertyTest, TileCountBoundedByOutputs) {
  const RandomScenario s = RandomScenario::make(GetParam());
  const PlannerInput in = s.planner_input(GetParam());
  for (const QueryPlan& plan : {plan_fra(in), plan_sra(in), plan_da(in)}) {
    EXPECT_GE(plan.num_tiles, 1);
    EXPECT_LE(plan.num_tiles, static_cast<int>(s.output_mbrs.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------------------------
// End-to-end property: on randomized scenarios with real payloads, all
// four strategies agree with the sequential reference.

struct Scm {
  std::uint64_t sum, count, max;
  bool operator==(const Scm&) const = default;
};

class EndToEndPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEndPropertyTest, StrategiesAgreeWithReference) {
  const std::uint64_t seed = GetParam();
  const RandomScenario s = RandomScenario::make(seed);

  // Reference.
  std::map<std::uint32_t, Scm> expected;
  for (std::uint32_t o = 0; o < s.output_mbrs.size(); ++o) expected[o] = {0, 0, 0};
  std::vector<std::vector<std::uint64_t>> values(s.input_mbrs.size());
  Rng rng(mix_seed(seed, 3));
  for (std::uint32_t i = 0; i < s.input_mbrs.size(); ++i) {
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int j = 0; j < n; ++j) {
      values[i].push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 999)));
    }
    for (std::uint32_t o : s.mapping.outputs_of(i)) {
      for (std::uint64_t v : values[i]) {
        expected[o].sum += v;
        expected[o].count += 1;
        expected[o].max = std::max(expected[o].max, v);
      }
    }
  }

  for (StrategyKind strategy : {StrategyKind::kFRA, StrategyKind::kSRA,
                                StrategyKind::kDA, StrategyKind::kHybrid}) {
    SCOPED_TRACE(to_string(strategy));
    MemoryChunkStore store(s.nodes);
    std::vector<Chunk> inputs;
    for (std::uint32_t i = 0; i < s.input_mbrs.size(); ++i) {
      ChunkMeta meta;
      meta.mbr = s.input_mbrs[i];
      std::vector<std::byte> payload(values[i].size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), values[i].data(), payload.size());
      inputs.emplace_back(meta, std::move(payload));
    }
    std::vector<Chunk> outputs;
    for (const Rect& mbr : s.output_mbrs) {
      ChunkMeta meta;
      meta.mbr = mbr;
      meta.bytes = 24;
      outputs.emplace_back(meta);
    }
    LoadOptions options;
    options.decluster.num_disks = s.nodes;
    Dataset input =
        load_dataset(0, "in", s.domain, std::move(inputs), store, options);
    Dataset output =
        load_dataset(1, "out", s.domain, std::move(outputs), store, options);

    SumCountMaxOp op;
    PlanRequest req;
    req.input = &input;
    req.output = &output;
    req.range = s.domain;
    req.op = &op;
    req.num_nodes = s.nodes;
    req.memory_per_node = s.memory;
    req.strategy = strategy;
    const PlannedQuery pq = plan_query(req);

    ThreadExecutor exec(s.nodes, 1, &store);
    execute_query(exec, pq, input, output, &op, ComputeCosts{});

    for (std::uint32_t o = 0; o < s.output_mbrs.size(); ++o) {
      const ChunkMeta& meta = output.chunk(o);
      auto chunk = store.get(meta.disk, meta.id);
      ASSERT_TRUE(chunk.has_value());
      Scm got{};
      if (chunk->payload().size() >= sizeof(Scm)) {
        std::memcpy(&got, chunk->payload().data(), sizeof(got));
      }
      EXPECT_EQ(got, expected[o]) << to_string(strategy) << " output " << o
                                  << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndPropertyTest,
                         ::testing::Range<std::uint64_t>(100, 112));

}  // namespace
}  // namespace adr
