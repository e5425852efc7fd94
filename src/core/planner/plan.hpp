// Query plans (output of the query planning service).
//
// A plan specifies, per back-end node and per tile, which accumulator
// chunks are resident (owned or ghost), which local input chunks to read,
// and how many messages of each kind to expect — everything the query
// execution service needs to run the four phases without any further
// global coordination.
//
// Chunk indices inside a plan are *positions within the query's selected
// chunk sets* (0..N-1 for inputs, 0..M-1 for outputs); the execution
// context translates them back to dataset chunk ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/query.hpp"

namespace adr {

/// Chunk-level input->output mapping for one query, flat in both
/// directions (CSR: an offsets array plus one ids array per direction).
struct ChunkMapping {
  /// Input i feeds out_ids[out_offsets[i] .. out_offsets[i + 1]),
  /// ascending output positions.
  std::vector<std::uint32_t> out_offsets{0};
  std::vector<std::uint32_t> out_ids;
  /// Output o is fed by in_ids[in_offsets[o] .. in_offsets[o + 1]),
  /// ascending input positions.
  std::vector<std::uint32_t> in_offsets{0};
  std::vector<std::uint32_t> in_ids;

  std::span<const std::uint32_t> outputs_of(std::size_t input) const {
    return {out_ids.data() + out_offsets[input], out_ids.data() + out_offsets[input + 1]};
  }
  std::span<const std::uint32_t> inputs_of(std::size_t output) const {
    return {in_ids.data() + in_offsets[output], in_ids.data() + in_offsets[output + 1]};
  }

  // 0, not -1, on a moved-from mapping: it has no offsets at all.
  std::size_t num_inputs() const {
    return out_offsets.empty() ? 0 : out_offsets.size() - 1;
  }
  std::size_t num_outputs() const {
    return in_offsets.empty() ? 0 : in_offsets.size() - 1;
  }

  std::size_t edge_count() const { return out_ids.size(); }
  double mean_fan_out() const {  // avg outputs per input
    return num_inputs() == 0 ? 0.0 : double(edge_count()) / double(num_inputs());
  }
  double mean_fan_in() const {  // avg inputs per output
    return num_outputs() == 0 ? 0.0 : double(edge_count()) / double(num_outputs());
  }

  /// Fills the output->input direction from the input->output rows by a
  /// counting-sort transpose over `num_outputs` outputs.
  void transpose(std::size_t num_outputs);
};

/// Everything the strategies need to partition work.
struct PlannerInput {
  int num_nodes = 1;
  /// Per-node memory budget for accumulator chunks, in bytes.
  std::uint64_t memory_per_node = 0;

  /// Owning node of each selected input / output chunk (from placement).
  std::vector<int> owner_of_input;
  std::vector<int> owner_of_output;

  /// Sizes in bytes.
  std::vector<std::uint64_t> input_bytes;
  std::vector<std::uint64_t> output_bytes;
  /// Accumulator chunk sizes (output_bytes x aggregation multiplier).
  std::vector<std::uint64_t> accum_bytes;

  const ChunkMapping* mapping = nullptr;

  /// Output positions in tiling order (Hilbert order of MBR midpoints).
  std::vector<std::uint32_t> output_order;

  bool valid() const;
};

/// Per-(node, tile) work description.
struct NodeTilePlan {
  /// Output positions whose accumulator lives here as the owner copy.
  std::vector<std::uint32_t> local_accum;
  /// Output positions replicated here as ghost chunks (FRA/SRA).
  std::vector<std::uint32_t> ghost_accum;
  /// Local input positions to read from disk in this tile.
  std::vector<std::uint32_t> reads;
  /// DA: number of forwarded input-chunk messages to expect.
  int expected_inputs = 0;
  /// Ghost-init messages to expect (ghosts hosted here), when the
  /// aggregation initializes from existing output.
  int expected_ghost_inits = 0;
  /// Ghost-combine messages to expect (as owner of local_accum chunks).
  int expected_combines = 0;
};

struct QueryPlan {
  StrategyKind strategy = StrategyKind::kFRA;
  int num_nodes = 1;
  /// Global number of tile steps (max over nodes for DA).
  int num_tiles = 0;

  /// Tile step in which each output chunk is processed.  Global for
  /// FRA/SRA; owner-local for DA (all nodes step tiles in lockstep).
  std::vector<int> tile_of_output;
  /// Owning node per output chunk (copied from PlannerInput).
  std::vector<int> owner_of_output;
  /// Ghost-hosting nodes per output chunk, excluding the owner.
  std::vector<std::vector<int>> ghost_hosts;

  /// node_tiles[node][tile].
  std::vector<std::vector<NodeTilePlan>> node_tiles;

  /// True when `node` holds a replica (owner copy or ghost) of output o.
  bool hosts_replica(int node, std::uint32_t o) const {
    return owner_of_output[o] == node ||
           std::binary_search(ghost_hosts[o].begin(), ghost_hosts[o].end(), node);
  }

  // ---- plan-level statistics (inputs to the cost model & benches) ----
  std::uint64_t total_ghost_chunks = 0;  // sum over tiles/nodes of ghosts
  std::uint64_t total_reads = 0;         // chunk reads incl. re-reads
  std::uint64_t total_read_bytes = 0;

  std::string summary() const;
};

/// Shared helper: appends tile plan rows so that node_tiles[n] has at
/// least `tiles` entries for every node.
void ensure_tiles(QueryPlan& plan, int tiles);

/// Recomputes the plan-level statistics from the node_tiles contents.
void finalize_plan_stats(QueryPlan& plan, const PlannerInput& in);

/// Validates structural invariants (every output in exactly one tile &
/// one owner's local set; reads only of local inputs; ghost sets
/// consistent with ghost_hosts).  Aborts via assert in debug builds,
/// returns false on violation in release builds.
bool validate_plan(const QueryPlan& plan, const PlannerInput& in);

}  // namespace adr
