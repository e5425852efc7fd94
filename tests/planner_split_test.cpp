// Direct unit tests for the planner's two-phase split: chunk selection
// (select_query_chunks) and planning over an explicit selection
// (plan_query(request, selection)).  The split exists so callers — the
// marginal cache's consult step, and anything else that reduces a
// selection before planning — can treat phase one's output as a value;
// these tests pin the contract both phases enforce, including the
// empty-selection and single-chunk-residual edges the reduction path
// produces.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/planner/planner.hpp"
#include "storage/loader.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using testing::make_grid_scenario;

/// Loaded datasets over the 3x3-output / 6x6-input grid scenario, plus
/// a ready PlanRequest — the same shape robustness_test.cpp executes,
/// here exercised at the planner API layer only.
struct SplitFixture {
  testing::GridScenario scenario = make_grid_scenario(3, 2);
  MemoryChunkStore store{3};
  Dataset input;
  Dataset output;
  SumCountMaxOp op;
  static constexpr int kNodes = 3;

  SplitFixture() {
    std::vector<Chunk> inputs;
    for (std::uint32_t i = 0; i < scenario.input_mbrs.size(); ++i) {
      ChunkMeta meta;
      meta.mbr = scenario.input_mbrs[i];
      std::vector<std::uint64_t> vals = {i + 1};
      std::vector<std::byte> payload(sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      inputs.emplace_back(meta, std::move(payload));
    }
    std::vector<Chunk> outputs;
    for (const Rect& mbr : scenario.output_mbrs) {
      ChunkMeta meta;
      meta.mbr = mbr;
      meta.bytes = 24;
      outputs.emplace_back(meta);
    }
    LoadOptions options;
    options.decluster.num_disks = kNodes;
    input = load_dataset(0, "in", scenario.domain, std::move(inputs), store, options);
    output = load_dataset(1, "out", scenario.domain, std::move(outputs), store,
                          options);
  }

  PlanRequest request(StrategyKind strategy = StrategyKind::kFRA) {
    PlanRequest req;
    req.input = &input;
    req.output = &output;
    req.range = scenario.domain;
    req.op = &op;
    req.num_nodes = kNodes;
    req.memory_per_node = 100 * 24;
    req.strategy = strategy;
    return req;
  }
};

TEST(PlannerSplit, FullDomainSelectionCoversEverything) {
  SplitFixture fx;
  const QuerySelection sel = select_query_chunks(fx.request());
  EXPECT_EQ(sel.selected_inputs.size(), fx.scenario.input_mbrs.size());
  EXPECT_EQ(sel.selected_outputs.size(), fx.scenario.output_mbrs.size());
  EXPECT_EQ(sel.input_dataset_of.size(), sel.selected_inputs.size());
  // Single-input query: every position is ordinal 0.
  for (const std::uint16_t ord : sel.input_dataset_of) EXPECT_EQ(ord, 0);
  // Mapping is sized by the selection and every output has contributors
  // (a 2x2 block of input cells nests inside each output cell).
  ASSERT_EQ(sel.mapping.num_inputs(), sel.selected_inputs.size());
  ASSERT_EQ(sel.mapping.num_outputs(), sel.selected_outputs.size());
  for (std::uint32_t o = 0; o < sel.mapping.num_outputs(); ++o) {
    EXPECT_EQ(sel.mapping.inputs_of(o).size(), 4u);
  }
}

TEST(PlannerSplit, SubRangeSelectsOnlyIntersectingChunks) {
  SplitFixture fx;
  PlanRequest req = fx.request();
  // The first output cell's MBR: selects exactly that output and the
  // 2x2 input block inside it.
  req.range = fx.scenario.output_mbrs[0];
  const QuerySelection sel = select_query_chunks(req);
  EXPECT_EQ(sel.selected_outputs.size(), 1u);
  EXPECT_EQ(sel.selected_inputs.size(), 4u);
}

TEST(PlannerSplit, SelectionPhaseValidatesRequest) {
  SplitFixture fx;
  PlanRequest req = fx.request();
  req.input = nullptr;
  EXPECT_THROW(select_query_chunks(req), std::invalid_argument);

  req = fx.request();
  req.range = Rect(Point{1.0, 1.0}, Point{0.0, 0.0});  // inverted: invalid
  EXPECT_THROW(select_query_chunks(req), std::invalid_argument);

  // A valid range that misses the whole output domain selects nothing:
  // the empty-selection edge surfaces in phase one.
  req = fx.request();
  req.range = Rect(Point{5.0, 5.0}, Point{6.0, 6.0});
  EXPECT_THROW(select_query_chunks(req), std::invalid_argument);
}

TEST(PlannerSplit, TwoStepPlanMatchesOneStep) {
  for (StrategyKind strategy :
       {StrategyKind::kFRA, StrategyKind::kSRA, StrategyKind::kDA}) {
    SplitFixture fx;
    const PlanRequest req = fx.request(strategy);
    const PlannedQuery one = plan_query(req);
    const PlannedQuery two = plan_query(req, select_query_chunks(req));
    EXPECT_EQ(two.chosen, one.chosen);
    EXPECT_EQ(two.plan.num_tiles, one.plan.num_tiles);
    EXPECT_EQ(two.selected_inputs, one.selected_inputs);
    EXPECT_EQ(two.selected_outputs, one.selected_outputs);
    EXPECT_EQ(two.input_bytes, one.input_bytes);
    EXPECT_EQ(two.accum_bytes, one.accum_bytes);
  }
}

/// The marginal cache's residual shape: every output chunk but one was
/// served from cached partials, so the planner sees a selection reduced
/// to a single output chunk and only the inputs it needs.
TEST(PlannerSplit, SingleChunkResidualSelectionPlans) {
  SplitFixture fx;
  const PlanRequest req = fx.request();
  const QuerySelection full = select_query_chunks(req);
  ASSERT_GT(full.selected_outputs.size(), 1u);

  QuerySelection residual;
  const std::uint32_t kept = 0;  // keep output position 0 only
  residual.selected_outputs = {full.selected_outputs[kept]};
  std::vector<std::uint32_t> kept_inputs = testing::ids(full.mapping.inputs_of(kept));
  for (const std::uint32_t pos : kept_inputs) {
    residual.selected_inputs.push_back(full.selected_inputs[pos]);
    residual.input_dataset_of.push_back(full.input_dataset_of[pos]);
  }
  residual.mapping = testing::mapping_from_lists(
      std::vector<std::vector<std::uint32_t>>(residual.selected_inputs.size(), {0}), 1);

  const PlannedQuery planned = plan_query(req, residual);
  EXPECT_EQ(planned.selected_outputs.size(), 1u);
  EXPECT_EQ(planned.selected_inputs.size(), kept_inputs.size());
  EXPECT_GE(planned.plan.num_tiles, 1);
  // Every tile's work references only the residual's positions.
  EXPECT_EQ(planned.mapping.num_outputs(), 1u);
}

TEST(PlannerSplit, PlanPhaseValidatesSelectionAndMachine) {
  SplitFixture fx;
  const PlanRequest req = fx.request();
  const QuerySelection sel = select_query_chunks(req);

  // Empty selection: the reduction path must never hand this to phase
  // two (a fully-cached query skips planning entirely).
  EXPECT_THROW(plan_query(req, QuerySelection{}), std::invalid_argument);

  // Inconsistent selection: mapping sized for a different input count.
  QuerySelection broken = sel;
  broken.selected_inputs.pop_back();
  broken.input_dataset_of.pop_back();
  EXPECT_THROW(plan_query(req, broken), std::invalid_argument);

  // Bad machine description.
  PlanRequest bad = fx.request();
  bad.num_nodes = 0;
  EXPECT_THROW(plan_query(bad, sel), std::invalid_argument);
  bad = fx.request();
  bad.memory_per_node = 0;
  EXPECT_THROW(plan_query(bad, sel), std::invalid_argument);
}

}  // namespace
}  // namespace adr
