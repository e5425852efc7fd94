// Execution-trace tests: phase spans, Gantt rendering, CSV dump.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/exec/query_executor.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/cluster.hpp"
#include "storage/loader.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using testing::make_grid_scenario;

struct TraceFixture {
  testing::GridScenario scenario = make_grid_scenario(4, 2);
  Dataset input;
  Dataset output;
  PlannedQuery pq;

  explicit TraceFixture(int nodes, StrategyKind strategy) {
    std::vector<ChunkMeta> in_metas, out_metas;
    for (const Rect& mbr : scenario.input_mbrs) {
      ChunkMeta m;
      m.mbr = mbr;
      m.bytes = 64 * 1024;
      in_metas.push_back(m);
    }
    for (const Rect& mbr : scenario.output_mbrs) {
      ChunkMeta m;
      m.mbr = mbr;
      m.bytes = 16 * 1024;
      out_metas.push_back(m);
    }
    DeclusterOptions dopts;
    dopts.num_disks = nodes;
    input = load_dataset_meta(0, "in", scenario.domain, in_metas, dopts);
    output = load_dataset_meta(1, "out", scenario.domain, out_metas, dopts);

    PlanRequest req;
    req.input = &input;
    req.output = &output;
    req.range = scenario.domain;
    req.num_nodes = nodes;
    req.memory_per_node = 4 * 16 * 1024;
    req.strategy = strategy;
    pq = plan_query(req);
  }

  ExecStats run(int nodes, bool record) {
    sim::SimCluster cluster(sim::ibm_sp_profile(nodes));
    SimExecutor exec(&cluster, nullptr);
    ExecOptions options;
    options.record_trace = record;
    return execute_query(exec, pq, input, output, nullptr,
                         ComputeCosts{0.001, 0.002, 0.001, 0.001}, options);
  }
};

TEST(Trace, DisabledByDefault) {
  TraceFixture f(4, StrategyKind::kFRA);
  const ExecStats stats = f.run(4, false);
  EXPECT_TRUE(stats.trace.empty());
  EXPECT_EQ(render_gantt(stats), "");
}

TEST(Trace, RecordsSpansForEveryNodeTilePhase) {
  TraceFixture f(4, StrategyKind::kFRA);
  const ExecStats stats = f.run(4, true);
  // 4 nodes x tiles x 4 phases.
  EXPECT_EQ(stats.trace.size(),
            4u * static_cast<std::size_t>(stats.tiles) * 4u);
  for (const PhaseSpan& span : stats.trace) {
    EXPECT_GE(span.start_s, 0.0);
    EXPECT_LE(span.end_s, stats.total_s + 1e-9);
    EXPECT_GE(span.duration_s(), 0.0);
    EXPECT_GE(span.node, 0);
    EXPECT_LT(span.node, 4);
    EXPECT_GE(span.phase, 0);
    EXPECT_LE(span.phase, 3);
  }
}

TEST(Trace, SpansOfOneNodeDoNotOverlap) {
  TraceFixture f(3, StrategyKind::kDA);
  const ExecStats stats = f.run(3, true);
  for (int n = 0; n < 3; ++n) {
    std::vector<PhaseSpan> spans;
    for (const PhaseSpan& s : stats.trace) {
      if (s.node == n) spans.push_back(s);
    }
    std::sort(spans.begin(), spans.end(),
              [](const PhaseSpan& a, const PhaseSpan& b) {
                return a.start_s < b.start_s;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].start_s, spans[i - 1].end_s - 1e-9);
    }
  }
}

TEST(Trace, GanttHasOneRowPerNode) {
  TraceFixture f(4, StrategyKind::kSRA);
  const ExecStats stats = f.run(4, true);
  const std::string gantt = render_gantt(stats, 60);
  EXPECT_NE(gantt.find("node  0"), std::string::npos);
  EXPECT_NE(gantt.find("node  3"), std::string::npos);
  // Every phase glyph present somewhere for FRA-like strategies.
  EXPECT_NE(gantt.find('I'), std::string::npos);
  EXPECT_NE(gantt.find('L'), std::string::npos);
}

TEST(Trace, CsvHasHeaderAndRows) {
  TraceFixture f(2, StrategyKind::kFRA);
  const ExecStats stats = f.run(2, true);
  std::ostringstream os;
  trace_to_csv(stats, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("node,tile,phase,start_s,end_s", 0), 0u);
  const auto rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, stats.trace.size() + 1);
  EXPECT_NE(csv.find("Local Reduction"), std::string::npos);
}

TEST(Trace, PhaseNames) {
  EXPECT_STREQ(phase_name(0), "Initialization");
  EXPECT_STREQ(phase_name(3), "Output Handling");
  EXPECT_STREQ(phase_name(9), "?");
}

}  // namespace
}  // namespace adr
