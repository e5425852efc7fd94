// Ablation: tile-pipelined execution vs. per-phase barriers.
//
// ADR "overlaps disk operations, network operations and processing as
// much as possible" (paper section 2.4).  This bench quantifies that
// design: the same plans run once with the pipelined engine (nodes pace
// themselves on expected message counts and may run one tile ahead) and
// once with a global barrier after every phase.  The gap is largest for
// FRA at large machine sizes, where per-tile global-combine bursts
// concentrate on the few owners of that tile's chunks and barriers
// serialize those bursts.
#include <iostream>

#include "bench_common.hpp"
#include "core/exec/query_executor.hpp"
#include "runtime/sim_executor.hpp"
#include "storage/loader.hpp"

namespace {

using namespace adr;
using namespace adr::bench;

double run_mode(emu::PaperApp app, int nodes, StrategyKind strategy, int chunks,
                bool pipelined) {
  // Rebuild the scenario through run_experiment-equivalent plumbing but
  // with the pipelining switch exposed.
  const emu::PaperScenario scenario = emu::paper_scenario(app);
  emu::EmulatedApp a = emu::build_app(scenario, chunks, 42);

  sim::ClusterConfig machine = sim::ibm_sp_profile(nodes);
  DeclusterOptions dopts;
  dopts.num_disks = machine.total_disks();
  std::vector<ChunkMeta> in_metas, out_metas;
  for (const Chunk& c : a.input_chunks) in_metas.push_back(c.meta());
  for (const Chunk& c : a.output_chunks) out_metas.push_back(c.meta());
  Dataset input = load_dataset_meta(0, "in", a.input_domain, in_metas, dopts);
  Dataset output = load_dataset_meta(1, "out", a.output_domain, out_metas, dopts);

  class ScaledOp : public SumCountMaxOp {
   public:
    explicit ScaledOp(double m) : m_(m) {}
    AccumulatorLayout layout() const override { return {m_}; }

   private:
    double m_;
  } op(a.accum_multiplier);

  PlanRequest request;
  request.input = &input;
  request.output = &output;
  request.range = a.input_domain;
  request.op = &op;
  request.num_nodes = nodes;
  request.memory_per_node = 32ull << 20;
  request.strategy = strategy;
  PlannedQuery planned = plan_query(request);

  sim::SimCluster cluster(machine);
  SimExecutor executor(&cluster, nullptr);
  ExecOptions options;
  options.pipeline_tiles = pipelined;
  options.comm_cpu_bytes_per_sec = machine.link.cpu_overhead_bytes_per_sec;
  return execute_query(executor, planned, input, output, nullptr, a.costs, options)
      .total_s;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);

  std::cout << "== Ablation: tile pipelining vs per-phase barriers ==\n\n";
  for (emu::PaperApp app : args.apps) {
    const emu::PaperScenario scenario = emu::paper_scenario(app);
    const int chunks = static_cast<int>(scenario.base_chunks * args.scale);
    std::cout << "-- " << to_string(app) << " (fixed input, " << chunks
              << " chunks) --\n";
    Table table({"Strategy", "P", "Pipelined (s)", "Barriers (s)", "Speedup"});
    for (StrategyKind strategy : {StrategyKind::kFRA, StrategyKind::kDA}) {
      for (int nodes : {8, 32, 128}) {
        const double piped = run_mode(app, nodes, strategy, chunks, true);
        const double barriers = run_mode(app, nodes, strategy, chunks, false);
        table.add_row({to_string(strategy), std::to_string(nodes), fmt(piped, 2),
                       fmt(barriers, 2), fmt(barriers / piped, 2) + "x"});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: pipelining never loses; FRA gains the most at large\n"
               "P where global-combine bursts would otherwise serialize.\n";
  return 0;
}
