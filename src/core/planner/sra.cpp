// Sparsely Replicated Accumulator strategy — paper Figure 5.
//
// A ghost chunk for output chunk C is allocated only on processors owning
// at least one input chunk that projects to C (the set So).  Memory is
// tracked per processor; when admitting C would overflow any processor in
// So, a new tile starts and all budgets reset.
//
// The owner always hosts the real accumulator chunk, so its budget is
// charged even when it happens to own no contributing input (the paper's
// pseudo-code leaves this implicit).
#include "core/planner/strategy.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"

namespace adr {

QueryPlan plan_sra(const PlannerInput& in) {
  assert(in.valid());
  const std::size_t num_outputs = in.owner_of_output.size();
  const ChunkMapping& mapping = *in.mapping;

  QueryPlan plan;
  plan.strategy = StrategyKind::kSRA;
  plan.num_nodes = in.num_nodes;
  plan.owner_of_output = in.owner_of_output;
  plan.tile_of_output.assign(num_outputs, 0);
  plan.ghost_hosts.assign(num_outputs, {});
  plan.node_tiles.assign(static_cast<size_t>(in.num_nodes), {});

  // Memory(p): remaining accumulator budget per processor for the tile
  // being packed.
  std::vector<std::uint64_t> memory(static_cast<size_t>(in.num_nodes),
                                    in.memory_per_node);

  int tile = 0;
  bool tile_has_chunks = false;
  std::vector<int> hosts;  // So ∪ {owner} for the current chunk
  for (std::uint32_t c : in.output_order) {
    const std::uint64_t size = in.accum_bytes[c];
    const int owner = in.owner_of_output[c];

    // So: processors having at least one input chunk projecting to C.
    hosts.clear();
    for (std::uint32_t i : mapping.inputs_of(c)) hosts.push_back(in.owner_of_input[i]);
    hosts.push_back(owner);
    std::sort(hosts.begin(), hosts.end());
    hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());

    bool memory_full = false;
    for (int p : hosts) {
      if (memory[static_cast<size_t>(p)] < size) memory_full = true;
    }
    if (size > in.memory_per_node) {
      ADR_WARN("SRA: accumulator chunk " << c << " exceeds node memory; gets own tile");
    }
    if (memory_full && tile_has_chunks) {
      ++tile;
      std::fill(memory.begin(), memory.end(), in.memory_per_node);
      tile_has_chunks = false;
    }
    for (int p : hosts) {
      std::uint64_t& m = memory[static_cast<size_t>(p)];
      m = m >= size ? m - size : 0;
    }
    tile_has_chunks = true;

    plan.tile_of_output[c] = tile;
    auto& ghosts = plan.ghost_hosts[c];
    for (int p : hosts) {
      if (p != owner) ghosts.push_back(p);  // already sorted
    }
  }
  plan.num_tiles = num_outputs == 0 ? 0 : tile + 1;

  populate_plan(plan, in);
  return plan;
}

}  // namespace adr
