#include "emulator/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "core/exec/query_executor.hpp"
#include "runtime/sim_executor.hpp"
#include "storage/loader.hpp"

namespace adr::emu {
namespace {

/// Planning-only op conveying the scenario's accumulator multiplier.
class ScenarioOp : public AggregationOp {
 public:
  explicit ScenarioOp(double multiplier) : multiplier_(multiplier) {}
  std::string name() const override { return "scenario"; }
  AccumulatorLayout layout() const override { return {multiplier_}; }
  std::vector<std::byte> initialize(const ChunkMeta&, const Chunk*) const override {
    return {};
  }
  void aggregate(const Chunk&, const ChunkMeta&, std::vector<std::byte>&) const override {}
  void combine(std::vector<std::byte>&, const std::vector<std::byte>&) const override {}
  std::vector<std::byte> output(const ChunkMeta&,
                                const std::vector<std::byte>&) const override {
    return {};
  }

 private:
  double multiplier_;
};

std::vector<ChunkMeta> metas_of(const std::vector<Chunk>& chunks) {
  std::vector<ChunkMeta> metas;
  metas.reserve(chunks.size());
  for (const Chunk& c : chunks) metas.push_back(c.meta());
  return metas;
}

}  // namespace

std::string to_string(PaperApp app) {
  switch (app) {
    case PaperApp::kSat:
      return "SAT";
    case PaperApp::kWcs:
      return "WCS";
    case PaperApp::kVm:
      return "VM";
  }
  return "?";
}

PaperScenario paper_scenario(PaperApp app) {
  switch (app) {
    case PaperApp::kSat:
      // 9K chunks / 1.6 GB; 256 output chunks / 25 MB; I-LR-GC-OH =
      // 1-40-20-1 ms; fan-out ~4.6.
      return {PaperApp::kSat, 9000,    178 * 1024, 256,
              100 * 1024,     8.0,     {0.001, 0.040, 0.020, 0.001}};
    case PaperApp::kWcs:
      // 7.5K chunks / 1.7 GB; 150 output chunks / 17 MB; 1-20-1-1 ms.
      return {PaperApp::kWcs, 7500,    227 * 1024, 150,
              116 * 1024,     10.0,    {0.001, 0.020, 0.001, 0.001}};
    case PaperApp::kVm:
      // 4K chunks / 1.5 GB; 256 output chunks / 48 MB; 1-5-1-1 ms.
      return {PaperApp::kVm,  4096,    384 * 1024, 256,
              192 * 1024,     2.0,     {0.001, 0.005, 0.001, 0.001}};
  }
  throw std::invalid_argument("paper_scenario: bad app");
}

EmulatedApp build_app(const PaperScenario& scenario, int num_input_chunks,
                      std::uint64_t seed, int payload_values) {
  CommonParams common;
  common.num_input_chunks = num_input_chunks;
  common.input_chunk_bytes = scenario.input_chunk_bytes;
  common.output_chunk_bytes = scenario.output_chunk_bytes;
  common.payload_values = payload_values;
  common.seed = seed;
  switch (scenario.app) {
    case PaperApp::kSat: {
      SatParams p;
      p.common = common;
      p.accum_multiplier = scenario.accum_multiplier;
      p.costs = scenario.costs;
      return make_sat(p);
    }
    case PaperApp::kWcs: {
      WcsParams p;
      p.common = common;
      p.accum_multiplier = scenario.accum_multiplier;
      p.costs = scenario.costs;
      return make_wcs(p);
    }
    case PaperApp::kVm: {
      VmParams p;
      p.common = common;
      p.accum_multiplier = scenario.accum_multiplier;
      p.costs = scenario.costs;
      return make_vm(p);
    }
  }
  throw std::invalid_argument("build_app: bad app");
}

double ExperimentResult::comm_mb_per_node() const {
  if (stats.nodes.empty()) return 0.0;
  return stats.comm_volume().mean / (1024.0 * 1024.0);
}

double ExperimentResult::compute_s_per_node() const {
  return stats.compute_time().mean;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const PaperScenario scenario = paper_scenario(config.app);
  int chunks = config.input_chunks;
  if (chunks == 0) {
    chunks = scenario.base_chunks;
    if (config.scaled) chunks = chunks * config.nodes / 8;
  }

  EmulatedApp app = build_app(scenario, chunks, config.seed);

  // Load metadata onto the simulated disk farm.
  sim::ClusterConfig machine = sim::ibm_sp_profile(config.nodes);
  machine.disks_per_node = config.disks_per_node;
  machine.accumulator_memory_bytes = config.memory_per_node;
  machine.disk_cache_bytes = config.disk_cache_bytes;

  DeclusterOptions dopts;
  dopts.method = config.decluster;
  dopts.num_disks = machine.total_disks();
  dopts.seed = config.seed;
  Dataset input = load_dataset_meta(0, "input", app.input_domain,
                                    metas_of(app.input_chunks), dopts);
  Dataset output = load_dataset_meta(1, "output", app.output_domain,
                                     metas_of(app.output_chunks), dopts);

  // Plan.  The range query covers query_fraction of each spatial
  // dimension (centred), and the whole time extent.
  Rect range = app.input_domain;
  if (config.query_fraction < 1.0) {
    Point lo = range.lo(), hi = range.hi();
    for (int d = 0; d < 2 && d < range.dims(); ++d) {
      const double margin = range.extent(d) * (1.0 - config.query_fraction) / 2.0;
      lo[d] += margin;
      hi[d] -= margin;
    }
    range = Rect(lo, hi);
  }
  ScenarioOp op(app.accum_multiplier);
  PlanRequest request;
  request.input = &input;
  request.output = &output;
  request.range = range;
  request.op = &op;
  request.num_nodes = config.nodes;
  request.disks_per_node = machine.disks_per_node;
  request.memory_per_node = config.memory_per_node;
  request.strategy = config.strategy;
  request.hybrid_threshold = config.hybrid_threshold;
  request.order = config.tiling;
  request.seed = config.seed;
  request.costs = app.costs;
  request.machine = machine_params(machine);
  PlannedQuery planned = plan_query(request);

  ExperimentResult result;
  result.tiles = planned.plan.num_tiles;
  result.ghost_chunks = planned.plan.total_ghost_chunks;
  result.chunk_reads = planned.plan.total_reads;
  result.fan_in = planned.mapping.mean_fan_in();
  result.fan_out = planned.mapping.mean_fan_out();
  result.input_chunks = static_cast<int>(input.num_chunks());
  result.output_chunks = static_cast<int>(output.num_chunks());
  result.selected_inputs = static_cast<int>(planned.selected_inputs.size());
  result.selected_outputs = static_cast<int>(planned.selected_outputs.size());
  result.input_bytes = input.total_bytes();
  result.output_bytes = output.total_bytes();

  // Cost-model prediction, for the ablation bench.
  {
    PlannerInput in;
    in.num_nodes = config.nodes;
    in.memory_per_node = config.memory_per_node;
    in.mapping = &planned.mapping;
    in.owner_of_input = planned.owner_of_input;
    in.owner_of_output = planned.plan.owner_of_output;
    in.input_bytes = planned.input_bytes;
    in.output_bytes = planned.output_bytes;
    in.accum_bytes = planned.accum_bytes;
    in.output_order.resize(planned.selected_outputs.size());
    result.predicted = estimate_cost(planned.plan, in, app.costs, request.machine);
  }

  // Execute in virtual time (metadata-only).
  sim::SimCluster cluster(machine);
  SimExecutor executor(&cluster, nullptr);
  ExecOptions exec_options;
  exec_options.comm_cpu_bytes_per_sec = machine.link.cpu_overhead_bytes_per_sec;
  exec_options.pipeline_tiles = config.pipeline_tiles;
  exec_options.record_trace = config.record_trace;
  result.stats = execute_query(executor, planned, input, output, /*op=*/nullptr,
                               app.costs, exec_options);
  return result;
}

}  // namespace adr::emu
