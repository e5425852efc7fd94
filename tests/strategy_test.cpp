#include "core/planner/strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "test_helpers.hpp"

namespace adr {
namespace {

using testing::GridScenario;
using testing::make_grid_scenario;
using testing::make_planner_input;

/// Sum of hosted accumulator bytes per (node, tile).
std::uint64_t resident_bytes(const QueryPlan& plan, const PlannerInput& in, int node,
                             int tile) {
  const NodeTilePlan& tp =
      plan.node_tiles[static_cast<size_t>(node)][static_cast<size_t>(tile)];
  std::uint64_t bytes = 0;
  for (std::uint32_t o : tp.local_accum) bytes += in.accum_bytes[o];
  for (std::uint32_t o : tp.ghost_accum) bytes += in.accum_bytes[o];
  return bytes;
}

class StrategyTest : public ::testing::TestWithParam<StrategyKind> {
 protected:
  QueryPlan plan_for(const PlannerInput& in) const {
    switch (GetParam()) {
      case StrategyKind::kFRA:
        return plan_fra(in);
      case StrategyKind::kSRA:
        return plan_sra(in);
      case StrategyKind::kDA:
        return plan_da(in);
      case StrategyKind::kHybrid:
        return plan_hybrid(in, 0.25);
      default:
        return plan_fra(in);
    }
  }
};

TEST_P(StrategyTest, ProducesValidPlan) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, /*memory=*/4 * 500);
  const QueryPlan plan = plan_for(in);
  EXPECT_TRUE(validate_plan(plan, in));
  EXPECT_GE(plan.num_tiles, 1);
}

TEST_P(StrategyTest, EveryOutputAssignedOnce) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 3, 4 * 500);
  const QueryPlan plan = plan_for(in);
  std::vector<int> count(16, 0);
  for (const auto& node : plan.node_tiles) {
    for (const auto& tile : node) {
      for (std::uint32_t o : tile.local_accum) ++count[o];
    }
  }
  for (int c : count) EXPECT_EQ(c, 1);
}

TEST_P(StrategyTest, MemoryBudgetRespectedPerNodeTile) {
  const auto s = make_grid_scenario(8, 2);  // 64 outputs
  const std::uint64_t memory = 6 * 500;     // 6 accumulator chunks per node
  const auto in = make_planner_input(s, 4, memory);
  const QueryPlan plan = plan_for(in);
  for (int n = 0; n < plan.num_nodes; ++n) {
    for (int t = 0; t < plan.num_tiles; ++t) {
      EXPECT_LE(resident_bytes(plan, in, n, t), memory)
          << "node " << n << " tile " << t;
    }
  }
}

TEST_P(StrategyTest, ReadsCoverEveryMappedInputChunk) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 4 * 500);
  const QueryPlan plan = plan_for(in);
  std::set<std::uint32_t> read;
  for (const auto& node : plan.node_tiles) {
    for (const auto& tile : node) read.insert(tile.reads.begin(), tile.reads.end());
  }
  for (std::uint32_t i = 0; i < s.mapping.num_inputs(); ++i) {
    if (!s.mapping.outputs_of(i).empty()) {
      EXPECT_TRUE(read.contains(i)) << "input " << i;
    }
  }
}

TEST_P(StrategyTest, SingleNodeHasNoGhostsOrForwards) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 1, 16 * 500);
  const QueryPlan plan = plan_for(in);
  EXPECT_EQ(plan.total_ghost_chunks, 0u);
  for (const auto& tile : plan.node_tiles[0]) {
    EXPECT_EQ(tile.expected_inputs, 0);
    EXPECT_EQ(tile.expected_combines, 0);
  }
}

TEST_P(StrategyTest, AmpleMemoryYieldsOneTileExceptFRA) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 1'000'000);
  const QueryPlan plan = plan_for(in);
  EXPECT_EQ(plan.num_tiles, 1);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(StrategyKind::kFRA, StrategyKind::kSRA,
                                           StrategyKind::kDA, StrategyKind::kHybrid),
                         [](const auto& info) { return to_string(info.param); });

// ---------------------------------------------------------------- FRA

TEST(FraPlan, GhostsOnAllOtherProcessors) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 16 * 500);
  const QueryPlan plan = plan_fra(in);
  for (std::uint32_t o = 0; o < 16; ++o) {
    EXPECT_EQ(plan.ghost_hosts[o].size(), 3u);
    for (int host : plan.ghost_hosts[o]) EXPECT_NE(host, plan.owner_of_output[o]);
  }
  EXPECT_EQ(plan.total_ghost_chunks, 16u * 3u);
}

TEST(FraPlan, TilePackingFollowsFigure4) {
  // 16 accumulator chunks of 500 B, 1700 B of memory -> 3 chunks per tile
  // (the paper's greedy packing), so ceil(16/3) = 6 tiles.
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 2, 1700);
  const QueryPlan plan = plan_fra(in);
  EXPECT_EQ(plan.num_tiles, 6);
}

TEST(FraPlan, NoInputForwarding) {
  const auto s = make_grid_scenario(4, 4);
  const auto in = make_planner_input(s, 4, 4 * 500);
  const QueryPlan plan = plan_fra(in);
  for (const auto& node : plan.node_tiles) {
    for (const auto& tile : node) EXPECT_EQ(tile.expected_inputs, 0);
  }
}

TEST(FraPlan, CombineCountsMatchGhosts) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 16 * 500);
  const QueryPlan plan = plan_fra(in);
  int total_combines = 0;
  for (const auto& node : plan.node_tiles) {
    for (const auto& tile : node) total_combines += tile.expected_combines;
  }
  EXPECT_EQ(total_combines, 16 * 3);
}

// ---------------------------------------------------------------- SRA

TEST(SraPlan, GhostsOnlyOnContributingProcessors) {
  // 2 nodes, inputs owned round-robin; with fan-in 4 every node usually
  // contributes, but verify the subset property: ghost hosts must own at
  // least one contributing input chunk.
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 16 * 500);
  const QueryPlan plan = plan_sra(in);
  for (std::uint32_t o = 0; o < 16; ++o) {
    std::set<int> contributors;
    for (std::uint32_t i : s.mapping.inputs_of(o)) {
      contributors.insert(in.owner_of_input[i]);
    }
    for (int host : plan.ghost_hosts[o]) {
      EXPECT_TRUE(contributors.contains(host))
          << "ghost of output " << o << " on non-contributing node " << host;
    }
  }
}

TEST(SraPlan, FewerOrEqualGhostsThanFRA) {
  const auto s = make_grid_scenario(4, 1);  // fan-in 1: very sparse
  const auto in = make_planner_input(s, 8, 16 * 500);
  const QueryPlan sra = plan_sra(in);
  const QueryPlan fra = plan_fra(in);
  EXPECT_LT(sra.total_ghost_chunks, fra.total_ghost_chunks);
}

TEST(SraPlan, EqualsFraWhenEveryNodeContributesEverywhere) {
  // One giant input per node covering the whole domain: So = all nodes.
  GridScenario s = make_grid_scenario(2, 1);
  s.input_mbrs = {Rect::cube(2, 0.0, 1.0), Rect::cube(2, 0.0, 1.0)};
  s.mapping = build_mapping(s.input_mbrs, s.output_mbrs, nullptr);
  const auto in = make_planner_input(s, 2, 4 * 500);
  const QueryPlan sra = plan_sra(in);
  const QueryPlan fra = plan_fra(in);
  EXPECT_EQ(sra.total_ghost_chunks, fra.total_ghost_chunks);
  EXPECT_EQ(sra.ghost_hosts, fra.ghost_hosts);
}

// ----------------------------------------------------------------- DA

TEST(DaPlan, NeverReplicates) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 4 * 500);
  const QueryPlan plan = plan_da(in);
  EXPECT_EQ(plan.total_ghost_chunks, 0u);
  for (const auto& hosts : plan.ghost_hosts) EXPECT_TRUE(hosts.empty());
  for (const auto& node : plan.node_tiles) {
    for (const auto& tile : node) {
      EXPECT_TRUE(tile.ghost_accum.empty());
      EXPECT_EQ(tile.expected_combines, 0);
      EXPECT_EQ(tile.expected_ghost_inits, 0);
    }
  }
}

TEST(DaPlan, FewerTilesThanFraUnderSameMemory) {
  // DA spreads accumulators across nodes, so each node's budget packs
  // the whole query into fewer tiles (the paper's stated advantage).
  const auto s = make_grid_scenario(8, 2);  // 64 outputs
  const auto in = make_planner_input(s, 8, 4 * 500);
  const QueryPlan da = plan_da(in);
  const QueryPlan fra = plan_fra(in);
  EXPECT_LT(da.num_tiles, fra.num_tiles);
}

TEST(DaPlan, ForwardsRemoteInputs) {
  // Round-robin ownership guarantees remote (input, output) pairs.
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 16 * 500);
  const QueryPlan plan = plan_da(in);
  int total_forwards = 0;
  for (const auto& node : plan.node_tiles) {
    for (const auto& tile : node) total_forwards += tile.expected_inputs;
  }
  EXPECT_GT(total_forwards, 0);
}

TEST(DaPlan, PerProcessorTileCounters) {
  // Give node 0 many more output chunks than the others: its tile count
  // drives the global maximum (Figure 6's per-processor Tile(p)).
  const auto s = make_grid_scenario(4, 1);
  auto in = make_planner_input(s, 4, 2 * 500);
  std::fill(in.owner_of_output.begin(), in.owner_of_output.end(), 0);
  in.owner_of_output[15] = 1;
  const QueryPlan plan = plan_da(in);
  // Node 0 owns 15 chunks at 2 per tile -> 8 tiles; node 1 needs 1 tile.
  EXPECT_EQ(plan.num_tiles, 8);
  EXPECT_TRUE(validate_plan(plan, in));
}

// ------------------------------------------------------------- Hybrid

TEST(HybridPlan, HighThresholdDegeneratesToDA) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 4 * 500);
  const QueryPlan hybrid = plan_hybrid(in, 1.1);
  EXPECT_EQ(hybrid.total_ghost_chunks, 0u);
}

TEST(HybridPlan, TinyThresholdDegeneratesToSRA) {
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 16 * 500);
  const QueryPlan hybrid = plan_hybrid(in, 1e-9);
  const QueryPlan sra = plan_sra(in);
  EXPECT_EQ(hybrid.ghost_hosts, sra.ghost_hosts);
}

TEST(HybridPlan, IntermediateThresholdBetweenExtremes) {
  const auto s = make_grid_scenario(8, 2);
  const auto in = make_planner_input(s, 8, 8 * 500);
  const QueryPlan sra = plan_sra(in);
  const QueryPlan hybrid = plan_hybrid(in, 0.3);
  const QueryPlan da = plan_da(in);
  EXPECT_LE(hybrid.total_ghost_chunks, sra.total_ghost_chunks);
  EXPECT_GE(hybrid.total_ghost_chunks, da.total_ghost_chunks);
}

// -------------------------------------------------- cross-strategy

TEST(StrategyComparison, ForwardCountsConsistentWithGhostSets) {
  // For every strategy, each mapped edge is either locally reducible on
  // the input owner or generates a forwarded message; totals must cover
  // all edges exactly once per (input, tile, dest)-deduped group.
  const auto s = make_grid_scenario(4, 2);
  const auto in = make_planner_input(s, 4, 16 * 500);
  for (const QueryPlan& plan : {plan_fra(in), plan_sra(in), plan_da(in)}) {
    std::size_t forwarded_edges = 0;
    for (std::uint32_t i = 0; i < s.mapping.num_inputs(); ++i) {
      const int src = in.owner_of_input[i];
      for (std::uint32_t o : s.mapping.outputs_of(i)) {
        const bool hosted = plan.owner_of_output[o] == src ||
                            std::binary_search(plan.ghost_hosts[o].begin(),
                                               plan.ghost_hosts[o].end(), src);
        if (!hosted) ++forwarded_edges;
      }
    }
    int expected_msgs = 0;
    for (const auto& node : plan.node_tiles) {
      for (const auto& tile : node) expected_msgs += tile.expected_inputs;
    }
    if (plan.strategy != StrategyKind::kDA) {
      EXPECT_EQ(forwarded_edges, 0u) << to_string(plan.strategy);
      EXPECT_EQ(expected_msgs, 0) << to_string(plan.strategy);
    } else {
      EXPECT_GT(forwarded_edges, 0u);
      // Messages are deduped per (input, dest, tile), so <= edges.
      EXPECT_LE(static_cast<std::size_t>(expected_msgs), forwarded_edges);
      EXPECT_GT(expected_msgs, 0);
    }
  }
}

}  // namespace
}  // namespace adr
