// Hybrid strategy (paper section 6, future work).
//
// The paper observes that FRA/SRA and DA are two extremes — reduce where
// the *input* lives vs. reduce where the *output* lives — and suggests a
// hybrid, formulated as partitioning the bipartite input/output chunk
// graph.  This implementation uses the natural greedy relaxation of that
// formulation: for each output chunk, a processor hosts a ghost replica
// only when it contributes at least `threshold` of the chunk's incoming
// input bytes (heavy contributors reduce locally and combine once);
// light contributors forward their few input chunks to the owner instead.
// threshold -> 0 degenerates to SRA, threshold > 1 to DA.
#include "core/planner/strategy.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace adr {

QueryPlan plan_hybrid(const PlannerInput& in, double threshold) {
  assert(in.valid());
  assert(threshold > 0.0);
  const std::size_t num_outputs = in.owner_of_output.size();
  const ChunkMapping& mapping = *in.mapping;

  QueryPlan plan;
  plan.strategy = StrategyKind::kHybrid;
  plan.num_nodes = in.num_nodes;
  plan.owner_of_output = in.owner_of_output;
  plan.tile_of_output.assign(num_outputs, 0);
  plan.ghost_hosts.assign(num_outputs, {});
  plan.node_tiles.assign(static_cast<size_t>(in.num_nodes), {});

  // Decide replica hosts per output chunk by contribution weight.
  std::vector<std::uint64_t> contrib(static_cast<size_t>(in.num_nodes));
  for (std::uint32_t c = 0; c < num_outputs; ++c) {
    std::fill(contrib.begin(), contrib.end(), 0);
    std::uint64_t total = 0;
    for (std::uint32_t i : mapping.inputs_of(c)) {
      contrib[static_cast<size_t>(in.owner_of_input[i])] += in.input_bytes[i];
      total += in.input_bytes[i];
    }
    if (total == 0) continue;
    const int owner = in.owner_of_output[c];
    auto& hosts = plan.ghost_hosts[c];
    for (int p = 0; p < in.num_nodes; ++p) {
      if (p == owner) continue;
      const double share = static_cast<double>(contrib[static_cast<size_t>(p)]) /
                           static_cast<double>(total);
      if (share >= threshold) hosts.push_back(p);
    }
  }

  // Tile packing: SRA-style per-processor budgets over replica hosts.
  std::vector<std::uint64_t> memory(static_cast<size_t>(in.num_nodes),
                                    in.memory_per_node);
  int tile = 0;
  bool tile_has_chunks = false;
  for (std::uint32_t c : in.output_order) {
    const std::uint64_t size = in.accum_bytes[c];
    const int owner = in.owner_of_output[c];
    bool memory_full = memory[static_cast<size_t>(owner)] < size;
    for (int p : plan.ghost_hosts[c]) {
      if (memory[static_cast<size_t>(p)] < size) memory_full = true;
    }
    if (memory_full && tile_has_chunks) {
      ++tile;
      std::fill(memory.begin(), memory.end(), in.memory_per_node);
    }
    auto charge = [&](int p) {
      std::uint64_t& m = memory[static_cast<size_t>(p)];
      m = m >= size ? m - size : 0;
    };
    charge(owner);
    for (int p : plan.ghost_hosts[c]) charge(p);
    tile_has_chunks = true;
    plan.tile_of_output[c] = tile;
  }
  plan.num_tiles = num_outputs == 0 ? 0 : tile + 1;

  populate_plan(plan, in);
  return plan;
}

}  // namespace adr
