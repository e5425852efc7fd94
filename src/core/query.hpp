// Range queries.
//
// A query names an input dataset, an output dataset, a bounding box in the
// input's attribute space, the registered aggregation operation, and the
// processing strategy to use (or kAuto to let the cost model choose).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.hpp"

namespace adr {

enum class StrategyKind {
  kFRA,     // fully replicated accumulator (paper 3.1)
  kSRA,     // sparsely replicated accumulator (paper 3.2)
  kDA,      // distributed accumulator (paper 3.3)
  kHybrid,  // graph-partitioning hybrid (paper future work, section 6)
  kAuto,    // pick by analytic cost model (paper future work, section 6)
};

std::string to_string(StrategyKind s);

/// How output chunks are ordered before being packed into tiles.
/// The paper uses Hilbert ordering; the others exist for the ablation.
enum class TilingOrder { kHilbert, kRowMajor, kRandom };

std::string to_string(TilingOrder o);

/// Where the final output chunks go (paper section 2.1: "output products
/// can be returned from the back-end nodes to the requesting client, or
/// stored in ADR").
enum class OutputDelivery {
  kWriteBack,        // write/update the output dataset on the disk farm
  kReturnToClient,   // hand finalized chunks back with the QueryResult
  kDiscard,          // compute only (benchmarks)
};

std::string to_string(OutputDelivery d);

struct Query {
  std::uint32_t input_dataset = 0;
  /// Further input datasets aggregated by the same reduction ("data
  /// items retrieved from one or more datasets"); must share the primary
  /// input's attribute space.
  std::vector<std::uint32_t> extra_input_datasets;
  std::uint32_t output_dataset = 0;
  /// Range in the input dataset's attribute space.
  Rect range;
  /// Registered mapping-function name ("" = identity onto output dims).
  std::string map_function;
  /// Registered aggregation-operation name.
  std::string aggregation;
  StrategyKind strategy = StrategyKind::kFRA;
  TilingOrder tiling_order = TilingOrder::kHilbert;
  OutputDelivery delivery = OutputDelivery::kWriteBack;
  std::uint64_t seed = 1;  // for kRandom tiling order
};

}  // namespace adr
