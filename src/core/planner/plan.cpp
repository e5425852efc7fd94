#include "core/planner/plan.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace adr {

void ChunkMapping::transpose(std::size_t num_outputs) {
  in_offsets.assign(num_outputs + 1, 0);
  for (std::uint32_t o : out_ids) ++in_offsets[o + 1];
  for (std::size_t o = 0; o < num_outputs; ++o) in_offsets[o + 1] += in_offsets[o];
  in_ids.resize(out_ids.size());
  // Inputs are scattered in ascending order, so every column comes out
  // sorted.
  std::vector<std::uint32_t> next(in_offsets.begin(), in_offsets.end() - 1);
  for (std::uint32_t i = 0; i < num_inputs(); ++i) {
    for (std::uint32_t o : outputs_of(i)) in_ids[next[o]++] = i;
  }
}

bool PlannerInput::valid() const {
  if (num_nodes < 1 || mapping == nullptr) return false;
  if (owner_of_input.size() != mapping->num_inputs()) return false;
  if (owner_of_output.size() != mapping->num_outputs()) return false;
  if (input_bytes.size() != owner_of_input.size()) return false;
  if (output_bytes.size() != owner_of_output.size()) return false;
  if (accum_bytes.size() != owner_of_output.size()) return false;
  if (output_order.size() != owner_of_output.size()) return false;
  for (int o : owner_of_output) {
    if (o < 0 || o >= num_nodes) return false;
  }
  for (int i : owner_of_input) {
    if (i < 0 || i >= num_nodes) return false;
  }
  return memory_per_node > 0;
}

void ensure_tiles(QueryPlan& plan, int tiles) {
  for (auto& node : plan.node_tiles) {
    while (static_cast<int>(node.size()) < tiles) node.emplace_back();
  }
  plan.num_tiles = std::max(plan.num_tiles, tiles);
}

void finalize_plan_stats(QueryPlan& plan, const PlannerInput& in) {
  plan.total_ghost_chunks = 0;
  plan.total_reads = 0;
  plan.total_read_bytes = 0;
  for (const auto& node : plan.node_tiles) {
    for (const auto& tile : node) {
      plan.total_ghost_chunks += tile.ghost_accum.size();
      plan.total_reads += tile.reads.size();
      for (std::uint32_t i : tile.reads) {
        plan.total_read_bytes += in.input_bytes[i];
      }
    }
  }
}

bool validate_plan(const QueryPlan& plan, const PlannerInput& in) {
  const std::size_t num_outputs = in.owner_of_output.size();
  if (plan.tile_of_output.size() != num_outputs) return false;
  if (plan.owner_of_output.size() != num_outputs) return false;
  if (plan.ghost_hosts.size() != num_outputs) return false;
  if (static_cast<int>(plan.node_tiles.size()) != plan.num_nodes) return false;

  // Every output chunk appears exactly once as a local accumulator, on
  // its owner, in its assigned tile.
  std::vector<int> seen(num_outputs, 0);
  for (int n = 0; n < plan.num_nodes; ++n) {
    for (std::size_t t = 0; t < plan.node_tiles[static_cast<size_t>(n)].size(); ++t) {
      const NodeTilePlan& tp = plan.node_tiles[static_cast<size_t>(n)][t];
      for (std::uint32_t o : tp.local_accum) {
        if (o >= num_outputs) return false;
        if (plan.owner_of_output[o] != n) return false;
        if (plan.tile_of_output[o] != static_cast<int>(t)) return false;
        ++seen[o];
      }
      for (std::uint32_t o : tp.ghost_accum) {
        if (o >= num_outputs) return false;
        if (plan.owner_of_output[o] == n) return false;  // ghosts never on owner
        const auto& hosts = plan.ghost_hosts[o];
        if (std::find(hosts.begin(), hosts.end(), n) == hosts.end()) return false;
      }
      for (std::uint32_t i : tp.reads) {
        if (i >= in.owner_of_input.size()) return false;
        if (in.owner_of_input[i] != n) return false;  // only local reads
      }
    }
  }
  for (std::size_t o = 0; o < num_outputs; ++o) {
    if (seen[o] != 1) return false;
  }
  return true;
}

std::string QueryPlan::summary() const {
  std::ostringstream os;
  os << to_string(strategy) << ": nodes=" << num_nodes << " tiles=" << num_tiles
     << " ghosts=" << total_ghost_chunks << " reads=" << total_reads
     << " read_bytes=" << total_read_bytes;
  return os.str();
}

}  // namespace adr
