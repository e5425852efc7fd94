// Query planning service (driver).
//
// Turns a range query over catalogued datasets into an executable plan:
// selects the chunks intersecting the query box through the indexing
// service, builds the chunk-level mapping, orders output chunks for
// tiling, and dispatches to the requested strategy (or picks one with the
// analytic cost model when the query says kAuto).
#pragma once

#include <cstdint>
#include <vector>

#include "core/aggregation.hpp"
#include "core/attribute_space.hpp"
#include "core/planner/cost_model.hpp"
#include "core/planner/plan.hpp"
#include "core/planner/strategy.hpp"
#include "core/query.hpp"
#include "storage/dataset.hpp"

namespace adr {

struct PlanRequest {
  const Dataset* input = nullptr;
  /// Further input datasets aggregated by the same query (the paper's
  /// "data items retrieved from one or more datasets"); they must share
  /// the primary input's attribute space.
  std::vector<const Dataset*> extra_inputs;
  const Dataset* output = nullptr;
  /// Range in the input attribute space.
  Rect range;
  /// May be null: identity onto the output dimensionality.
  const MapFunction* map = nullptr;
  /// Accumulator sizing; 1.0 multiplier when null.
  const AggregationOp* op = nullptr;

  int num_nodes = 1;
  int disks_per_node = 1;
  std::uint64_t memory_per_node = 0;

  StrategyKind strategy = StrategyKind::kFRA;
  double hybrid_threshold = 0.25;
  TilingOrder order = TilingOrder::kHilbert;
  std::uint64_t seed = 1;

  /// Machine/compute parameters for kAuto strategy selection.
  ComputeCosts costs;
  MachineParams machine;
};

/// Phase-one output: which chunks the query touches and how they map,
/// before any strategy decision.  Separated from plan_query so callers
/// (the marginal cache's consult step in Repository) can reduce the
/// selection — dropping output chunks already satisfied from cached
/// partials and the input chunks only they needed — and then plan the
/// remainder as if it were the whole query.
struct QuerySelection {
  /// Dataset chunk index per selected position.
  std::vector<std::uint32_t> selected_inputs;
  /// Which input dataset each selected position came from (ordinal into
  /// [input, extra_inputs...]).
  std::vector<std::uint16_t> input_dataset_of;
  std::vector<std::uint32_t> selected_outputs;
  ChunkMapping mapping;
};

/// The marginal cache's partial hit: `selection` reduced to the outputs
/// not `served` (served[o] != 0) and to the inputs that feed one of them
/// or feed nothing at all, as the cold plan keeps those.  Positions keep
/// their order and the mapping is rebuilt in one pass over its rows.
/// `dropped` receives the original positions of the inputs left out.
QuerySelection reduce_selection(const QuerySelection& selection,
                                const std::vector<char>& served,
                                std::vector<std::uint32_t>& dropped);

/// A plan plus the selection context the execution service needs.
struct PlannedQuery {
  QueryPlan plan;
  ChunkMapping mapping;
  /// Dataset chunk index per selected position.
  std::vector<std::uint32_t> selected_inputs;
  /// Which input dataset each selected position came from (ordinal into
  /// [input, extra_inputs...]; empty means all positions are ordinal 0).
  std::vector<std::uint16_t> input_dataset_of;
  std::vector<std::uint32_t> selected_outputs;
  std::vector<int> owner_of_input;
  std::vector<std::uint64_t> input_bytes;
  std::vector<std::uint64_t> output_bytes;
  std::vector<std::uint64_t> accum_bytes;
  /// The strategy actually chosen (differs from request for kAuto).
  StrategyKind chosen = StrategyKind::kFRA;
  /// Cost estimates computed during kAuto selection (empty otherwise).
  std::vector<std::pair<StrategyKind, CostEstimate>> estimates;
};

/// Phase one: chunk selection through the indexing service plus the
/// chunk-level mapping.  Throws std::invalid_argument on malformed
/// requests (missing datasets, invalid range, no output chunks).
QuerySelection select_query_chunks(const PlanRequest& request);

/// Phase two: tiling order + strategy dispatch over a selection (from
/// select_query_chunks, possibly reduced by the caller).  The selection
/// must be non-empty and internally consistent with `request`.
PlannedQuery plan_query(const PlanRequest& request, QuerySelection selection);

/// Plans the query in one step (select + plan).  Throws
/// std::invalid_argument on malformed requests.
PlannedQuery plan_query(const PlanRequest& request);

/// Maps a global disk index to its node for a farm with `disks_per_node`.
inline int node_of_disk(int global_disk, int disks_per_node) {
  return global_disk / disks_per_node;
}

}  // namespace adr
