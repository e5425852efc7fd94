// Robustness and negative-path tests: deterministic failure injection
// through the fault registry, malformed plans, cross-executor
// equivalence over randomized scenarios, and the emulators running with
// real payloads.
//
// The FailureInjection.* / FaultProperty.* suites are ThreadSanitizer
// targets (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/fault.hpp"
#include "common/random.hpp"
#include "core/exec/query_executor.hpp"
#include "emulator/scenario.hpp"
#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"
#include "sim/cluster.hpp"
#include "storage/loader.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using testing::make_grid_scenario;

// ------------------------------------------------------------------
// Failure injection: chunks missing from the disk farm.

struct FaultPipeline {
  testing::GridScenario scenario = make_grid_scenario(3, 2);
  MemoryChunkStore store{3};
  Dataset input;
  Dataset output;
  SumCountMaxOp op;
  static constexpr int kNodes = 3;

  FaultPipeline() {
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
    output = load_dataset(1, "out", scenario.domain, std::move(outputs), store, options);
  }

  PlannedQuery plan(StrategyKind strategy) {
    PlanRequest req;
    req.input = &input;
    req.output = &output;
    req.range = scenario.domain;
    req.op = &op;
    req.num_nodes = kNodes;
    req.memory_per_node = 100 * 24;
    req.strategy = strategy;
    return plan_query(req);
  }

  /// The persisted output payloads, in chunk order — the byte-identity
  /// oracle for faulted-vs-clean comparisons.
  std::vector<std::vector<std::byte>> output_bytes() {
    std::vector<std::vector<std::byte>> bytes;
    for (std::uint32_t o = 0; o < output.num_chunks(); ++o) {
      auto chunk = store.get(output.chunk(o).disk, output.chunk(o).id);
      EXPECT_TRUE(chunk.has_value()) << o;
      bytes.push_back(chunk.has_value() ? chunk->payload()
                                        : std::vector<std::byte>{});
    }
    return bytes;
  }
};

TEST(FailureInjection, MissingInputChunkDegradesGracefully) {
  // Drop two input chunks from the farm after planning: the engine must
  // finish, and the result simply lacks those chunks' contributions.
  for (StrategyKind strategy : {StrategyKind::kFRA, StrategyKind::kDA}) {
    FaultPipeline p;
    const PlannedQuery pq = p.plan(strategy);
    p.store.erase(p.input.chunk(0).disk, p.input.chunk(0).id);
    p.store.erase(p.input.chunk(7).disk, p.input.chunk(7).id);

    ThreadExecutor exec(FaultPipeline::kNodes, 1, &p.store);
    const ExecStats stats =
        execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{});

    // Full total would be sum(1..36) = 666 with count 36.
    std::uint64_t sum = 0, count = 0;
    for (std::uint32_t o = 0; o < p.output.num_chunks(); ++o) {
      auto chunk = p.store.get(p.output.chunk(o).disk, p.output.chunk(o).id);
      ASSERT_TRUE(chunk.has_value());
      sum += chunk->as<std::uint64_t>()[0];
      count += chunk->as<std::uint64_t>()[1];
    }
    EXPECT_EQ(count, 34u) << to_string(strategy);
    EXPECT_EQ(sum, 666u - 1u - 8u) << to_string(strategy);
    EXPECT_EQ(stats.tiles, pq.plan.num_tiles);
  }
}

TEST(FailureInjection, MissingOutputChunkStillInitializes) {
  FaultPipeline p;
  const PlannedQuery pq = p.plan(StrategyKind::kSRA);
  // Remove a persisted output chunk; initialization reads nullopt and
  // Initialize() runs without the existing contents.
  p.store.erase(p.output.chunk(3).disk, p.output.chunk(3).id);
  ThreadExecutor exec(FaultPipeline::kNodes, 1, &p.store);
  execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{});
  auto chunk = p.store.get(p.output.chunk(3).disk, p.output.chunk(3).id);
  ASSERT_TRUE(chunk.has_value());  // rewritten by output handling
  EXPECT_EQ(chunk->as<std::uint64_t>()[1], 4u);  // its 4 nested inputs
}

// ------------------------------------------------------------------
// Registry-driven fault injection: storage fetch errors fail the query
// with a typed status, and a retried (idempotent) query converges to
// the byte-identical fault-free result.

TEST(FailureInjection, InjectedFetchErrorFailsQueryWithTypedStatus) {
  FaultPipeline p;
  const PlannedQuery pq = p.plan(StrategyKind::kFRA);
  ThreadExecutor exec(FaultPipeline::kNodes, 1, &p.store);

  fault::ScopedFaultPlan plan(/*seed=*/21);
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kOneShot;
  spec.after_hits = 2;  // the third fetch of the run dies
  plan.arm("storage.fetch", spec);

  try {
    execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{});
    FAIL() << "execute_query should have surfaced the injected fault";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kIoError);
    EXPECT_NE(std::string(e.what()).find("storage.fetch"), std::string::npos);
  }
  EXPECT_EQ(fault::faults().stats("storage.fetch").fires, 1u);

  // One-shot budget spent: the same executor re-runs the same plan
  // clean, and the re-initialized accumulators erase every trace of the
  // failed attempt.
  execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{});
  std::uint64_t sum = 0, count = 0;
  for (const auto& payload : p.output_bytes()) {
    ASSERT_GE(payload.size(), 16u);
    std::uint64_t v = 0;
    std::memcpy(&v, payload.data(), 8);
    sum += v;
    std::memcpy(&v, payload.data() + 8, 8);
    count += v;
  }
  EXPECT_EQ(sum, 666u);  // sum(1..36): nothing missing, nothing doubled
  EXPECT_EQ(count, 36u);
}

TEST(FailureInjection, InjectedComputeErrorSurfacesAfterRunCompletes) {
  FaultPipeline p;
  const PlannedQuery pq = p.plan(StrategyKind::kDA);
  ThreadExecutor exec(FaultPipeline::kNodes, 1, &p.store);
  fault::ScopedFaultPlan plan(/*seed=*/22);
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kOneShot;
  spec.code = StatusCode::kExecFailed;
  plan.arm("runtime.compute", spec);
  EXPECT_THROW(
      execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{}),
      StatusError);
  // The failed run left the executor quiescent: it serves the next run.
  fault::faults().reset();
  execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{});
  EXPECT_EQ(exec.completed_runs(), 2u);
}

// Table-driven sweep: fault rate x strategy, fixed seeds.  Submitting
// until the (idempotent) query succeeds must converge on results
// byte-identical to a never-faulted run — the acceptance bar for the
// retry story: transient storage faults are invisible in the data.

struct FaultSweepCase {
  double rate;
  StrategyKind strategy;
  std::uint64_t seed;
};

class FaultProperty : public ::testing::TestWithParam<FaultSweepCase> {};

TEST_P(FaultProperty, RetriedQueryMatchesFaultFreeRunByteForByte) {
  const FaultSweepCase c = GetParam();

  // Golden: same scenario, no faults armed.
  std::vector<std::vector<std::byte>> golden;
  {
    FaultPipeline p;
    const PlannedQuery pq = p.plan(c.strategy);
    ThreadExecutor exec(FaultPipeline::kNodes, 1, &p.store);
    execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{});
    golden = p.output_bytes();
  }

  FaultPipeline p;
  const PlannedQuery pq = p.plan(c.strategy);
  ThreadExecutor exec(FaultPipeline::kNodes, 1, &p.store);
  fault::ScopedFaultPlan plan(c.seed);
  if (c.rate > 0.0) {
    fault::FaultSpec spec;
    spec.trigger = fault::Trigger::kProbability;
    spec.probability = c.rate;
    // A bounded budget makes submit-until-ok terminate deterministically
    // regardless of rate: once spent, the next attempt runs clean.
    spec.max_fires = 6;
    plan.arm("storage.fetch", spec);
  }

  // Counters survive reset(), so measure this test's own activity as a
  // delta from whatever earlier tests in the same process left behind.
  const fault::PointStats before = fault::faults().stats("storage.fetch");

  int attempts = 0;
  bool ok = false;
  while (!ok && attempts < 20) {
    ++attempts;
    try {
      execute_query(exec, pq, p.input, p.output, &p.op, ComputeCosts{});
      ok = true;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kIoError) << e.what();
    }
  }
  ASSERT_TRUE(ok) << "query never succeeded in " << attempts << " attempts";

  const fault::PointStats stats = fault::faults().stats("storage.fetch");
  if (c.rate > 0.0) {
    // arm() reset the counters, so these are this test's alone.
    EXPECT_GT(stats.fires, 0u);  // the plan actually drew blood
    EXPECT_LE(stats.fires, 6u);
  } else {
    EXPECT_EQ(stats.hits - before.hits, 0u);  // unarmed point never counts
    EXPECT_EQ(attempts, 1);
  }

  fault::faults().reset();  // collect the oracle without armed faults
  EXPECT_EQ(p.output_bytes(), golden);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndStrategies, FaultProperty,
    ::testing::Values(FaultSweepCase{0.0, StrategyKind::kFRA, 101},
                      FaultSweepCase{0.0, StrategyKind::kSRA, 102},
                      FaultSweepCase{0.0, StrategyKind::kDA, 103},
                      FaultSweepCase{0.1, StrategyKind::kFRA, 104},
                      FaultSweepCase{0.1, StrategyKind::kSRA, 105},
                      FaultSweepCase{0.1, StrategyKind::kDA, 106},
                      FaultSweepCase{0.5, StrategyKind::kFRA, 107},
                      FaultSweepCase{0.5, StrategyKind::kSRA, 108},
                      FaultSweepCase{0.5, StrategyKind::kDA, 109}),
    [](const ::testing::TestParamInfo<FaultSweepCase>& info) {
      return std::string(to_string(info.param.strategy)) + "_rate" +
             std::to_string(static_cast<int>(info.param.rate * 100));
    });

// ------------------------------------------------------------------
// validate_plan negative cases.

TEST(ValidatePlan, DetectsCorruptedPlans) {
  const auto s = make_grid_scenario(3, 2);
  const PlannerInput in = testing::make_planner_input(s, 3, 100 * 500);
  const QueryPlan good = plan_fra(in);
  ASSERT_TRUE(validate_plan(good, in));

  {
    QueryPlan bad = good;  // output assigned to the wrong owner's list
    auto& tiles0 = bad.node_tiles[0];
    for (auto& tp : tiles0) {
      if (!tp.local_accum.empty()) {
        bad.owner_of_output[tp.local_accum[0]] =
            (bad.owner_of_output[tp.local_accum[0]] + 1) % 3;
        break;
      }
    }
    EXPECT_FALSE(validate_plan(bad, in));
  }
  {
    QueryPlan bad = good;  // duplicate local accumulator
    for (auto& tp : bad.node_tiles[0]) {
      if (!tp.local_accum.empty()) {
        bad.node_tiles[0][0].local_accum.push_back(tp.local_accum[0]);
        break;
      }
    }
    EXPECT_FALSE(validate_plan(bad, in));
  }
  {
    QueryPlan bad = good;  // read of a remote chunk
    for (std::uint32_t i = 0; i < in.owner_of_input.size(); ++i) {
      if (in.owner_of_input[i] != 0) {
        bad.node_tiles[0][0].reads.push_back(i);
        break;
      }
    }
    EXPECT_FALSE(validate_plan(bad, in));
  }
  {
    QueryPlan bad = good;  // tile id out of sync
    bad.tile_of_output[0] = good.num_tiles + 5;
    EXPECT_FALSE(validate_plan(bad, in));
  }
}

// ------------------------------------------------------------------
// Cross-executor equivalence on randomized geometry.

class CrossExecutorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossExecutorTest, SimAndThreadsAgreeOnWorkCounts) {
  Rng rng(GetParam());
  const int nodes = static_cast<int>(rng.uniform_int(2, 5));
  const int out_n = static_cast<int>(rng.uniform_int(2, 4));
  const auto s = make_grid_scenario(out_n, 2);

  auto build = [&](MemoryChunkStore& store, Dataset& in_ds, Dataset& out_ds) {
    std::vector<Chunk> inputs;
    for (const Rect& mbr : s.input_mbrs) {
      ChunkMeta meta;
      meta.mbr = mbr;
      inputs.emplace_back(meta, std::vector<std::byte>(16, std::byte{1}));
    }
    std::vector<Chunk> outputs;
    for (const Rect& mbr : s.output_mbrs) {
      ChunkMeta meta;
      meta.mbr = mbr;
      meta.bytes = 24;
      outputs.emplace_back(meta);
    }
    LoadOptions options;
    options.decluster.num_disks = nodes;
    in_ds = load_dataset(0, "in", s.domain, std::move(inputs), store, options);
    out_ds = load_dataset(1, "out", s.domain, std::move(outputs), store, options);
  };

  const StrategyKind strategy =
      std::vector<StrategyKind>{StrategyKind::kFRA, StrategyKind::kSRA,
                                StrategyKind::kDA}[GetParam() % 3];

  SumCountMaxOp op;
  const auto memory = static_cast<std::uint64_t>(rng.uniform_int(72, 72 * 8));
  auto plan_for = [&](Dataset& in_ds, Dataset& out_ds) {
    PlanRequest req;
    req.input = &in_ds;
    req.output = &out_ds;
    req.range = s.domain;
    req.op = &op;
    req.num_nodes = nodes;
    req.memory_per_node = memory;
    req.strategy = strategy;
    return plan_query(req);
  };

  MemoryChunkStore store_a(nodes), store_b(nodes);
  Dataset in_a, out_a, in_b, out_b;
  build(store_a, in_a, out_a);
  build(store_b, in_b, out_b);
  const PlannedQuery pq_a = plan_for(in_a, out_a);
  const PlannedQuery pq_b = plan_for(in_b, out_b);

  ThreadExecutor texec(nodes, 1, &store_a);
  const ExecStats t = execute_query(texec, pq_a, in_a, out_a, &op, ComputeCosts{});

  sim::SimCluster cluster(sim::ibm_sp_profile(nodes));
  SimExecutor sexec(&cluster, &store_b);
  const ExecStats sm = execute_query(sexec, pq_b, in_b, out_b, &op,
                                     ComputeCosts{1e-4, 1e-4, 1e-4, 1e-4});

  EXPECT_EQ(t.total_lr_pairs(), sm.total_lr_pairs());
  EXPECT_EQ(t.total_bytes_sent(), sm.total_bytes_sent());
  EXPECT_EQ(t.total_bytes_read(), sm.total_bytes_read());
  for (std::size_t n = 0; n < t.nodes.size(); ++n) {
    EXPECT_EQ(t.nodes[n].msgs_received, sm.nodes[n].msgs_received) << n;
    EXPECT_EQ(t.nodes[n].outputs, sm.nodes[n].outputs) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossExecutorTest,
                         ::testing::Range<std::uint64_t>(200, 212));

// ------------------------------------------------------------------
// Emulators with real payloads through the engine.

TEST(EmulatorPayloads, SatScenarioAggregatesIdenticallyAcrossStrategies) {
  const emu::PaperScenario scenario = emu::paper_scenario(emu::PaperApp::kSat);
  std::map<std::uint32_t, std::vector<std::byte>> results[2];
  const StrategyKind kinds[] = {StrategyKind::kFRA, StrategyKind::kDA};
  for (int k = 0; k < 2; ++k) {
    emu::EmulatedApp app =
        emu::build_app(scenario, /*chunks=*/400, /*seed=*/5, /*payload_values=*/4);
    const int nodes = 4;
    MemoryChunkStore store(nodes);
    LoadOptions options;
    options.decluster.num_disks = nodes;
    // Give the outputs a real 24-byte payload for the sum/count/max op.
    for (Chunk& c : app.output_chunks) {
      c.meta().bytes = 24;
      c = Chunk(c.meta(), std::vector<std::byte>(24, std::byte{0}));
    }
    Dataset input = load_dataset(0, "in", app.input_domain,
                                 std::move(app.input_chunks), store, options);
    Dataset output = load_dataset(1, "out", app.output_domain,
                                  std::move(app.output_chunks), store, options);
    SumCountMaxOp op;
    IdentityMap drop(2);
    PlanRequest req;
    req.input = &input;
    req.output = &output;
    req.range = app.input_domain;
    req.map = &drop;
    req.op = &op;
    req.num_nodes = nodes;
    req.memory_per_node = 20 * 72;
    req.strategy = kinds[k];
    const PlannedQuery pq = plan_query(req);
    ThreadExecutor exec(nodes, 1, &store);
    execute_query(exec, pq, input, output, &op, ComputeCosts{});
    for (std::uint32_t o = 0; o < output.num_chunks(); ++o) {
      auto chunk = store.get(output.chunk(o).disk, output.chunk(o).id);
      ASSERT_TRUE(chunk.has_value());
      results[k][o] = chunk->payload();
    }
  }
  EXPECT_EQ(results[0], results[1]);
  // Polar skew: some output chunk aggregated many more readings than the
  // median one.
  std::uint64_t max_count = 0, nonzero = 0;
  for (const auto& [o, payload] : results[0]) {
    std::uint64_t count;
    std::memcpy(&count, payload.data() + 8, 8);
    max_count = std::max(max_count, count);
    nonzero += count > 0;
  }
  EXPECT_GT(nonzero, 100u);
  EXPECT_GT(max_count, 4u * 400u * 4u / 256u);
}

}  // namespace
}  // namespace adr
