#include "core/exec/query_executor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"
#include "sim/cluster.hpp"
#include "storage/loader.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using testing::GridScenario;
using testing::make_grid_scenario;

// Full pipeline fixture: a grid scenario with real uint64 payloads loaded
// onto a disk farm, planned and executed on either substrate.
struct Pipeline {
  GridScenario scenario;
  std::unique_ptr<MemoryChunkStore> store;
  Dataset input;
  Dataset output;
  SumCountMaxOp op;
  int nodes = 0;
  int values_per_chunk = 0;

  PlannedQuery plan(StrategyKind strategy, std::uint64_t memory) const {
    PlanRequest req;
    req.input = &input;
    req.output = &output;
    req.range = Rect::cube(2, 0.0, 1.0);
    req.op = &op;
    req.num_nodes = nodes;
    req.disks_per_node = 1;
    req.memory_per_node = memory;
    req.strategy = strategy;
    return plan_query(req);
  }
};

Pipeline make_pipeline(int out_n, int in_per_out, int nodes, int values = 4) {
  Pipeline p;
  p.nodes = nodes;
  p.values_per_chunk = values;
  p.scenario = make_grid_scenario(out_n, in_per_out);
  p.store = std::make_unique<MemoryChunkStore>(nodes);

  std::vector<Chunk> inputs;
  for (std::uint32_t i = 0; i < p.scenario.input_mbrs.size(); ++i) {
    ChunkMeta meta;
    meta.mbr = p.scenario.input_mbrs[i];
    std::vector<std::uint64_t> vals(static_cast<size_t>(values));
    for (int j = 0; j < values; ++j) {
      vals[static_cast<size_t>(j)] = i * 100 + static_cast<std::uint64_t>(j);
    }
    std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
    std::memcpy(payload.data(), vals.data(), payload.size());
    inputs.emplace_back(meta, std::move(payload));
  }
  std::vector<Chunk> outputs;
  for (const Rect& mbr : p.scenario.output_mbrs) {
    ChunkMeta meta;
    meta.mbr = mbr;
    meta.bytes = 24;  // sum/count/max triple
    outputs.emplace_back(meta);
  }

  LoadOptions options;
  options.decluster.num_disks = nodes;
  p.input = load_dataset(0, "in", Rect::cube(2, 0.0, 1.0), std::move(inputs),
                         *p.store, options);
  p.output = load_dataset(1, "out", Rect::cube(2, 0.0, 1.0), std::move(outputs),
                          *p.store, options);
  return p;
}

struct Scm {
  std::uint64_t sum, count, max;
  bool operator==(const Scm&) const = default;
};

/// Reads back all finalized output chunks from the store.
std::map<std::uint32_t, Scm> read_outputs(const Pipeline& p) {
  std::map<std::uint32_t, Scm> out;
  for (std::uint32_t o = 0; o < p.output.num_chunks(); ++o) {
    const ChunkMeta& meta = p.output.chunk(o);
    auto chunk = p.store->get(meta.disk, meta.id);
    if (!chunk || chunk->payload().size() < sizeof(Scm)) continue;
    Scm s{};
    std::memcpy(&s, chunk->payload().data(), sizeof(s));
    out[o] = s;
  }
  return out;
}

/// Sequential reference: aggregate every mapped edge directly.
std::map<std::uint32_t, Scm> reference_outputs(const Pipeline& p) {
  std::map<std::uint32_t, Scm> out;
  for (std::uint32_t o = 0; o < p.output.num_chunks(); ++o) out[o] = Scm{0, 0, 0};
  for (std::uint32_t i = 0; i < p.input.num_chunks(); ++i) {
    const ChunkMeta& meta = p.input.chunk(i);
    auto chunk = p.store->get(meta.disk, meta.id);
    for (std::uint32_t o : p.scenario.mapping.outputs_of(i)) {
      Scm& s = out[o];
      for (std::uint64_t v : chunk->as<std::uint64_t>()) {
        s.sum += v;
        s.count += 1;
        s.max = std::max(s.max, v);
      }
    }
  }
  return out;
}

ExecStats run_threads(Pipeline& p, const PlannedQuery& pq, ExecOptions options = {}) {
  ThreadExecutor exec(p.nodes, 1, p.store.get());
  return execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{}, 1, options);
}

ExecStats run_sim(Pipeline& p, const PlannedQuery& pq, const ComputeCosts& costs,
                  bool with_store = true, ExecOptions options = {}) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(p.nodes);
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, with_store ? p.store.get() : nullptr);
  return execute_query(exec, pq, p.input, p.output,
                       with_store ? &p.op : nullptr, costs, 1, options);
}

class EngineStrategyTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(EngineStrategyTest, ThreadExecutionMatchesSequentialReference) {
  Pipeline p = make_pipeline(4, 2, 4);
  const auto expected = reference_outputs(p);
  const PlannedQuery pq = p.plan(GetParam(), 4 * 24);
  const ExecStats stats = run_threads(p, pq);
  EXPECT_EQ(read_outputs(p), expected);
  EXPECT_EQ(stats.tiles, pq.plan.num_tiles);
}

TEST_P(EngineStrategyTest, MultiTileExecutionCorrect) {
  Pipeline p = make_pipeline(6, 2, 3);
  const auto expected = reference_outputs(p);
  // Tiny memory: many tiles, inputs re-read across tiles.
  const PlannedQuery pq = p.plan(GetParam(), 2 * 24);
  EXPECT_GT(pq.plan.num_tiles, 3);
  run_threads(p, pq);
  EXPECT_EQ(read_outputs(p), expected);
}

TEST_P(EngineStrategyTest, SingleNodeDegenerate) {
  Pipeline p = make_pipeline(3, 2, 1);
  const auto expected = reference_outputs(p);
  const PlannedQuery pq = p.plan(GetParam(), 100 * 24);
  const ExecStats stats = run_threads(p, pq);
  EXPECT_EQ(read_outputs(p), expected);
  EXPECT_EQ(stats.total_bytes_sent(), 0u);
}

TEST_P(EngineStrategyTest, InitFromOutputOffAlsoCorrect) {
  Pipeline p = make_pipeline(4, 2, 4);
  const auto expected = reference_outputs(p);
  const PlannedQuery pq = p.plan(GetParam(), 8 * 24);
  ExecOptions options;
  options.init_from_output = false;
  run_threads(p, pq, options);
  EXPECT_EQ(read_outputs(p), expected);
}

TEST_P(EngineStrategyTest, SimCountsMatchThreadCounts) {
  // The same plan must produce identical chunk reads, aggregation pairs
  // and message counts on both substrates (time differs, work does not).
  Pipeline pt = make_pipeline(4, 2, 4);
  Pipeline ps = make_pipeline(4, 2, 4);
  const PlannedQuery pq_t = pt.plan(GetParam(), 4 * 24);
  const PlannedQuery pq_s = ps.plan(GetParam(), 4 * 24);
  const ExecStats t = run_threads(pt, pq_t);
  const ExecStats s = run_sim(ps, pq_s, ComputeCosts{0.001, 0.001, 0.001, 0.001});
  ASSERT_EQ(t.nodes.size(), s.nodes.size());
  for (std::size_t n = 0; n < t.nodes.size(); ++n) {
    EXPECT_EQ(t.nodes[n].chunks_read, s.nodes[n].chunks_read) << "node " << n;
    EXPECT_EQ(t.nodes[n].lr_pairs, s.nodes[n].lr_pairs) << "node " << n;
    EXPECT_EQ(t.nodes[n].msgs_sent, s.nodes[n].msgs_sent) << "node " << n;
    EXPECT_EQ(t.nodes[n].bytes_sent, s.nodes[n].bytes_sent) << "node " << n;
    EXPECT_EQ(t.nodes[n].combines, s.nodes[n].combines) << "node " << n;
    EXPECT_EQ(t.nodes[n].outputs, s.nodes[n].outputs) << "node " << n;
  }
}

TEST_P(EngineStrategyTest, PeakAccumulatorWithinBudget) {
  Pipeline p = make_pipeline(6, 2, 3);
  const std::uint64_t memory = 3 * 24;
  const PlannedQuery pq = p.plan(GetParam(), memory);
  const ExecStats stats = run_threads(p, pq);
  for (const NodeStats& n : stats.nodes) {
    EXPECT_LE(n.peak_accum_bytes, memory);
  }
}

TEST_P(EngineStrategyTest, WriteOutputOffLeavesStoreUntouched) {
  Pipeline p = make_pipeline(3, 2, 3);
  const PlannedQuery pq = p.plan(GetParam(), 100 * 24);
  ExecOptions options;
  options.write_output = false;
  const ExecStats stats = run_threads(p, pq, options);
  EXPECT_EQ(stats.nodes[0].chunks_written +
                stats.nodes[1].chunks_written + stats.nodes[2].chunks_written,
            0u);
  // Outputs still contain the zero-initialized originals.
  for (const auto& [o, scm] : read_outputs(p)) {
    EXPECT_EQ(scm.count, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EngineStrategyTest,
                         ::testing::Values(StrategyKind::kFRA, StrategyKind::kSRA,
                                           StrategyKind::kDA, StrategyKind::kHybrid),
                         [](const auto& info) { return to_string(info.param); });

TEST(Engine, AllStrategiesProduceIdenticalOutput) {
  std::map<std::uint32_t, Scm> results[4];
  const StrategyKind kinds[] = {StrategyKind::kFRA, StrategyKind::kSRA,
                                StrategyKind::kDA, StrategyKind::kHybrid};
  for (int k = 0; k < 4; ++k) {
    Pipeline p = make_pipeline(4, 3, 4);
    const PlannedQuery pq = p.plan(kinds[k], 5 * 24);
    run_threads(p, pq);
    results[k] = read_outputs(p);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
  EXPECT_EQ(results[0], results[3]);
}

TEST(Engine, DaSendsInputsFraSendsGhosts) {
  Pipeline pf = make_pipeline(4, 2, 4);
  Pipeline pd = make_pipeline(4, 2, 4);
  const PlannedQuery fra = pf.plan(StrategyKind::kFRA, 16 * 24);
  const PlannedQuery da = pd.plan(StrategyKind::kDA, 16 * 24);
  const ExecStats sf = run_threads(pf, fra);
  const ExecStats sd = run_threads(pd, da);
  // FRA: ghost-init + ghost-combine messages; 16 outputs x 3 ghosts x 2.
  std::uint64_t fra_msgs = 0, da_msgs = 0;
  for (const auto& n : sf.nodes) fra_msgs += n.msgs_sent;
  for (const auto& n : sd.nodes) da_msgs += n.msgs_sent;
  EXPECT_EQ(fra_msgs, 16u * 3u * 2u);
  // DA: only forwarded inputs.
  std::uint64_t expected_forwards = 0;
  for (const auto& node : da.plan.node_tiles) {
    for (const auto& tile : node) {
      expected_forwards += static_cast<std::uint64_t>(tile.expected_inputs);
    }
  }
  EXPECT_EQ(da_msgs, expected_forwards);
  EXPECT_GT(da_msgs, 0u);
}

TEST(Engine, GlobalCombineCountsMatchPlan) {
  Pipeline p = make_pipeline(4, 2, 4);
  const PlannedQuery pq = p.plan(StrategyKind::kSRA, 16 * 24);
  const ExecStats stats = run_threads(p, pq);
  std::uint64_t combines = 0;
  for (const auto& n : stats.nodes) combines += n.combines;
  EXPECT_EQ(combines, pq.plan.total_ghost_chunks);
}

TEST(Engine, EveryMappedPairAggregatedExactlyOnce) {
  Pipeline p = make_pipeline(5, 2, 3);
  const PlannedQuery pq = p.plan(StrategyKind::kDA, 4 * 24);
  const ExecStats stats = run_threads(p, pq);
  EXPECT_EQ(stats.total_lr_pairs(), p.scenario.mapping.edge_count());
}

TEST(Engine, SimTotalTimeReflectsComputeCosts) {
  Pipeline p = make_pipeline(4, 2, 2);
  const PlannedQuery pq = p.plan(StrategyKind::kFRA, 16 * 24);
  const ComputeCosts cheap{1e-5, 1e-5, 1e-5, 1e-5};
  const ComputeCosts heavy{1e-5, 1e-2, 1e-5, 1e-5};
  Pipeline p2 = make_pipeline(4, 2, 2);
  const PlannedQuery pq2 = p2.plan(StrategyKind::kFRA, 16 * 24);
  const double t_cheap = run_sim(p, pq, cheap).total_s;
  const double t_heavy = run_sim(p2, pq2, heavy).total_s;
  EXPECT_GT(t_heavy, t_cheap);
}

TEST(Engine, PhaseTimesSumToTotalUnderBarriers) {
  Pipeline p = make_pipeline(4, 2, 4);
  const PlannedQuery pq = p.plan(StrategyKind::kFRA, 8 * 24);
  ExecOptions options;
  options.pipeline_tiles = false;  // global phase barriers: spans partition time
  const ExecStats stats =
      run_sim(p, pq, ComputeCosts{0.001, 0.002, 0.001, 0.001}, true, options);
  EXPECT_NEAR(stats.phase_init_s + stats.phase_lr_s + stats.phase_gc_s +
                  stats.phase_oh_s,
              stats.total_s, 1e-6);
}

TEST(Engine, PipeliningNeverSlowerThanBarriers) {
  for (StrategyKind strategy : {StrategyKind::kFRA, StrategyKind::kDA}) {
    Pipeline pa = make_pipeline(6, 2, 3);
    Pipeline pb = make_pipeline(6, 2, 3);
    const PlannedQuery qa = pa.plan(strategy, 3 * 24);
    const PlannedQuery qb = pb.plan(strategy, 3 * 24);
    const ComputeCosts costs{0.001, 0.004, 0.002, 0.001};
    ExecOptions barriers;
    barriers.pipeline_tiles = false;
    const double t_pipe = run_sim(pa, qa, costs).total_s;
    const double t_barrier = run_sim(pb, qb, costs, true, barriers).total_s;
    EXPECT_LE(t_pipe, t_barrier * 1.0001) << to_string(strategy);
  }
}

TEST(Engine, PipeliningPreservesResults) {
  for (bool pipelined : {false, true}) {
    Pipeline p = make_pipeline(5, 2, 4);
    const auto expected = reference_outputs(p);
    const PlannedQuery pq = p.plan(StrategyKind::kSRA, 3 * 24);
    EXPECT_GT(pq.plan.num_tiles, 2);
    ExecOptions options;
    options.pipeline_tiles = pipelined;
    run_threads(p, pq, options);
    EXPECT_EQ(read_outputs(p), expected) << "pipelined=" << pipelined;
  }
}

TEST(Engine, MetadataOnlySimMatchesPayloadCounts) {
  Pipeline pa = make_pipeline(4, 2, 4);
  Pipeline pb = make_pipeline(4, 2, 4);
  const PlannedQuery qa = pa.plan(StrategyKind::kDA, 8 * 24);
  const PlannedQuery qb = pb.plan(StrategyKind::kDA, 8 * 24);
  const ComputeCosts costs{0.001, 0.001, 0.001, 0.001};
  const ExecStats with_store = run_sim(pa, qa, costs, /*with_store=*/true);
  const ExecStats metadata = run_sim(pb, qb, costs, /*with_store=*/false);
  EXPECT_EQ(with_store.total_lr_pairs(), metadata.total_lr_pairs());
  EXPECT_EQ(with_store.total_bytes_sent(), metadata.total_bytes_sent());
  EXPECT_DOUBLE_EQ(with_store.total_s, metadata.total_s);
}

TEST(Engine, QueryWithNoMatchingInputsCompletes) {
  // All input chunks live in the left half of the domain; the query asks
  // for the right half.  Output chunks are selected (they tile the whole
  // domain) but no inputs: every phase must still run and the outputs
  // come back zero-initialized.
  Pipeline p = make_pipeline(4, 2, 3);
  PlanRequest req;
  req.input = &p.input;
  req.output = &p.output;
  req.range = Rect(Point{0.6, 0.0}, Point{0.9, 1.0});
  req.op = &p.op;
  req.num_nodes = p.nodes;
  req.memory_per_node = 100 * 24;
  req.strategy = StrategyKind::kFRA;

  // Rebuild the input dataset confined to the left half.
  std::vector<Chunk> inputs;
  for (int i = 0; i < 6; ++i) {
    ChunkMeta meta;
    meta.mbr = Rect(Point{i * 0.08 + 1e-9, 0.1}, Point{(i + 1) * 0.08 - 1e-9, 0.2});
    std::vector<std::byte> payload(8, std::byte{1});
    inputs.emplace_back(meta, std::move(payload));
  }
  LoadOptions options;
  options.decluster.num_disks = p.nodes;
  MemoryChunkStore store(p.nodes);
  Dataset left = load_dataset(0, "left", Rect::cube(2, 0.0, 1.0), std::move(inputs),
                              store, options);
  req.input = &left;
  const PlannedQuery pq = plan_query(req);
  EXPECT_TRUE(pq.selected_inputs.empty());
  EXPECT_FALSE(pq.selected_outputs.empty());

  ThreadExecutor exec(p.nodes, 1, p.store.get());
  const ExecStats stats =
      execute_query(exec, pq, left, p.output, &p.op, ComputeCosts{}, 1);
  EXPECT_EQ(stats.total_lr_pairs(), 0u);
  std::uint64_t outputs_written = 0;
  for (const auto& n : stats.nodes) outputs_written += n.outputs;
  EXPECT_EQ(outputs_written, pq.selected_outputs.size());
}

TEST(Engine, MismatchedNodeCountRejected) {
  Pipeline p = make_pipeline(3, 2, 3);
  const PlannedQuery pq = p.plan(StrategyKind::kFRA, 16 * 24);
  ThreadExecutor wrong(2, 1, nullptr);
  EXPECT_THROW(execute_query(wrong, pq, p.input, p.output, nullptr, ComputeCosts{}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace adr
