#include "core/planner/planner.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "core/planner/mapping.hpp"
#include "core/planner/tiling.hpp"

namespace adr {

void populate_plan(QueryPlan& plan, const PlannerInput& in) {
  const ChunkMapping& mapping = *in.mapping;
  const std::size_t num_outputs = in.owner_of_output.size();
  const std::size_t num_inputs = in.owner_of_input.size();

  ensure_tiles(plan, plan.num_tiles);

  // Accumulator residency and combine/init message counts.
  for (std::uint32_t o = 0; o < num_outputs; ++o) {
    const int tile = plan.tile_of_output[o];
    const int owner = plan.owner_of_output[o];
    NodeTilePlan& owner_tp =
        plan.node_tiles[static_cast<size_t>(owner)][static_cast<size_t>(tile)];
    owner_tp.local_accum.push_back(o);
    owner_tp.expected_combines += static_cast<int>(plan.ghost_hosts[o].size());
    for (int host : plan.ghost_hosts[o]) {
      NodeTilePlan& host_tp =
          plan.node_tiles[static_cast<size_t>(host)][static_cast<size_t>(tile)];
      host_tp.ghost_accum.push_back(o);
      host_tp.expected_ghost_inits += 1;
    }
  }

  // Read lists: a node reads each of its local input chunks once per tile
  // in which the chunk has at least one target output chunk.  Inputs go
  // in ascending, so every read list comes out in ascending position.
  // Stamps (input position + 1) mark the tiles, and the (destination,
  // tile) pairs, already counted for the current input.
  const auto tiles = static_cast<std::size_t>(plan.num_tiles);
  std::vector<std::uint32_t> tile_stamp(tiles, 0);
  std::vector<std::uint32_t> dest_stamp(plan.node_tiles.size() * tiles, 0);
  for (std::uint32_t i = 0; i < num_inputs; ++i) {
    const std::uint32_t stamp = i + 1;
    const int node = in.owner_of_input[i];
    auto& node_tiles = plan.node_tiles[static_cast<size_t>(node)];
    for (std::uint32_t o : mapping.outputs_of(i)) {
      const auto tile = static_cast<std::size_t>(plan.tile_of_output[o]);
      if (std::exchange(tile_stamp[tile], stamp) != stamp) {
        node_tiles[tile].reads.push_back(i);
      }
      // Forwarded-input messages: for every edge whose source node does
      // not host the target replica, the input chunk travels to the
      // owner — one message per distinct (input, destination, tile).
      if (plan.hosts_replica(node, o)) continue;
      const auto dst = static_cast<std::size_t>(plan.owner_of_output[o]);
      if (std::exchange(dest_stamp[dst * tiles + tile], stamp) != stamp) {
        plan.node_tiles[dst][tile].expected_inputs += 1;
      }
    }
  }

  finalize_plan_stats(plan, in);
}

namespace {

/// [input, extra_inputs...] with the null/dimensionality validation both
/// phases rely on.
std::vector<const Dataset*> collect_inputs(const PlanRequest& request) {
  std::vector<const Dataset*> inputs;
  inputs.push_back(request.input);
  for (const Dataset* extra : request.extra_inputs) {
    if (extra == nullptr) throw std::invalid_argument("plan_query: null extra input");
    if (extra->domain().dims() != request.input->domain().dims()) {
      throw std::invalid_argument("plan_query: extra input dimensionality mismatch");
    }
    inputs.push_back(extra);
  }
  return inputs;
}

}  // namespace

QuerySelection select_query_chunks(const PlanRequest& request) {
  if (request.input == nullptr || request.output == nullptr) {
    throw std::invalid_argument("plan_query: missing dataset");
  }
  if (!request.range.valid()) {
    throw std::invalid_argument("plan_query: invalid query range");
  }

  QuerySelection result;

  // --- selection through the indexing service (all input datasets).
  const std::vector<const Dataset*> inputs = collect_inputs(request);
  std::vector<const Rect*> in_mbrs, out_mbrs;
  for (std::size_t ordinal = 0; ordinal < inputs.size(); ++ordinal) {
    for (std::uint32_t c : inputs[ordinal]->find_chunks(request.range)) {
      result.selected_inputs.push_back(c);
      result.input_dataset_of.push_back(static_cast<std::uint16_t>(ordinal));
      in_mbrs.push_back(&inputs[ordinal]->chunk(c).mbr);
    }
  }

  // Output selection: chunks intersecting the projected query region.
  const int out_dims = request.output->domain().dims();
  IdentityMap identity(out_dims);
  const MapFunction* map = request.map != nullptr ? request.map : &identity;
  const Rect out_range = map->project(request.range);
  result.selected_outputs = request.output->find_chunks(out_range);
  if (result.selected_outputs.empty()) {
    throw std::invalid_argument("plan_query: query selects no output chunks");
  }
  out_mbrs.reserve(result.selected_outputs.size());
  for (std::uint32_t c : result.selected_outputs) {
    out_mbrs.push_back(&request.output->chunk(c).mbr);
  }

  // --- chunk-level mapping over the selections, MBRs read in place.
  result.mapping = build_mapping(in_mbrs, out_mbrs, request.map);
  return result;
}

QuerySelection reduce_selection(const QuerySelection& selection,
                                const std::vector<char>& served,
                                std::vector<std::uint32_t>& dropped) {
  QuerySelection reduced;
  std::vector<std::uint32_t> new_out(selection.selected_outputs.size(), 0);
  for (std::size_t o = 0; o < served.size(); ++o) {
    if (served[o]) continue;
    new_out[o] = static_cast<std::uint32_t>(reduced.selected_outputs.size());
    reduced.selected_outputs.push_back(selection.selected_outputs[o]);
  }
  ChunkMapping& mapping = reduced.mapping;
  for (std::uint32_t pos = 0; pos < selection.selected_inputs.size(); ++pos) {
    const auto outs = selection.mapping.outputs_of(pos);
    const std::size_t row_begin = mapping.out_ids.size();
    for (std::uint32_t o : outs) {
      if (!served[o]) mapping.out_ids.push_back(new_out[o]);
    }
    if (!outs.empty() && mapping.out_ids.size() == row_begin) {
      dropped.push_back(pos);
      continue;
    }
    reduced.selected_inputs.push_back(selection.selected_inputs[pos]);
    reduced.input_dataset_of.push_back(selection.input_dataset_of[pos]);
    mapping.out_offsets.push_back(static_cast<std::uint32_t>(mapping.out_ids.size()));
  }
  mapping.transpose(reduced.selected_outputs.size());
  return reduced;
}

PlannedQuery plan_query(const PlanRequest& request, QuerySelection selection) {
  if (request.input == nullptr || request.output == nullptr) {
    throw std::invalid_argument("plan_query: missing dataset");
  }
  if (request.num_nodes < 1 || request.memory_per_node == 0) {
    throw std::invalid_argument("plan_query: bad machine description");
  }
  if (selection.selected_outputs.empty()) {
    throw std::invalid_argument("plan_query: query selects no output chunks");
  }
  if (selection.input_dataset_of.size() != selection.selected_inputs.size() ||
      selection.mapping.num_inputs() != selection.selected_inputs.size() ||
      selection.mapping.num_outputs() != selection.selected_outputs.size()) {
    throw std::invalid_argument("plan_query: inconsistent selection");
  }

  const std::vector<const Dataset*> inputs = collect_inputs(request);

  PlannedQuery result;
  result.selected_inputs = std::move(selection.selected_inputs);
  result.input_dataset_of = std::move(selection.input_dataset_of);
  result.selected_outputs = std::move(selection.selected_outputs);
  result.mapping = std::move(selection.mapping);

  std::vector<Rect> out_mbrs;
  out_mbrs.reserve(result.selected_outputs.size());
  for (std::uint32_t c : result.selected_outputs) {
    out_mbrs.push_back(request.output->chunk(c).mbr);
  }

  // --- planner input.
  PlannerInput in;
  in.num_nodes = request.num_nodes;
  in.memory_per_node = request.memory_per_node;
  in.mapping = &result.mapping;
  const double multiplier =
      request.op != nullptr ? request.op->layout().size_multiplier : 1.0;
  for (std::size_t pos = 0; pos < result.selected_inputs.size(); ++pos) {
    const Dataset* ds = inputs[result.input_dataset_of[pos]];
    const ChunkMeta& meta = ds->chunk(result.selected_inputs[pos]);
    in.owner_of_input.push_back(node_of_disk(meta.disk, request.disks_per_node));
    in.input_bytes.push_back(meta.bytes);
  }
  for (std::uint32_t c : result.selected_outputs) {
    const ChunkMeta& meta = request.output->chunk(c);
    in.owner_of_output.push_back(node_of_disk(meta.disk, request.disks_per_node));
    in.output_bytes.push_back(meta.bytes);
    in.accum_bytes.push_back(
        static_cast<std::uint64_t>(static_cast<double>(meta.bytes) * multiplier));
  }
  in.output_order =
      tiling_order(out_mbrs, request.output->domain(), request.order, request.seed);
  if (!in.valid()) throw std::invalid_argument("plan_query: inconsistent planner input");

  // --- strategy dispatch.
  StrategyKind chosen = request.strategy;
  if (chosen == StrategyKind::kAuto) {
    double best = std::numeric_limits<double>::infinity();
    for (StrategyKind s : {StrategyKind::kFRA, StrategyKind::kSRA, StrategyKind::kDA}) {
      QueryPlan candidate = s == StrategyKind::kFRA   ? plan_fra(in)
                            : s == StrategyKind::kSRA ? plan_sra(in)
                                                      : plan_da(in);
      const CostEstimate est =
          estimate_cost(candidate, in, request.costs, request.machine);
      result.estimates.emplace_back(s, est);
      ADR_INFO("auto-select: " << to_string(s) << " -> " << est.to_string());
      if (est.total_s < best) {
        best = est.total_s;
        chosen = s;
        result.plan = std::move(candidate);
      }
    }
  } else {
    switch (chosen) {
      case StrategyKind::kFRA:
        result.plan = plan_fra(in);
        break;
      case StrategyKind::kSRA:
        result.plan = plan_sra(in);
        break;
      case StrategyKind::kDA:
        result.plan = plan_da(in);
        break;
      case StrategyKind::kHybrid:
        result.plan = plan_hybrid(in, request.hybrid_threshold);
        break;
      case StrategyKind::kAuto:
        break;  // handled above
    }
  }
  result.chosen = result.plan.strategy;

  assert(validate_plan(result.plan, in));

  result.owner_of_input = std::move(in.owner_of_input);
  result.input_bytes = std::move(in.input_bytes);
  result.output_bytes = std::move(in.output_bytes);
  result.accum_bytes = std::move(in.accum_bytes);
  return result;
}

PlannedQuery plan_query(const PlanRequest& request) {
  return plan_query(request, select_query_chunks(request));
}

}  // namespace adr
