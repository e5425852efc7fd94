// Query execution service (paper section 2.4).
//
// Carries out a query plan on an Executor substrate.  Per tile, every node
// runs the four phases —
//
//   1. Initialization : read own output chunks, initialize accumulator
//      chunks, forward copies to ghost hosts;
//   2. Local Reduction: read local input chunks asynchronously (pipelined
//      through the disk queue), aggregate into locally hosted replicas,
//      forward chunks whose targets are not hosted here to their owners;
//   3. Global Combine : send ghost accumulator chunks to their owners and
//      merge arrivals;
//   4. Output Handling: finalize accumulators into output chunks and
//      write them back to the local disks
//
// — reacting to I/O, message and compute completions, exactly the
// operation-queue structure the paper describes.  Phases are separated by
// barriers; message counts expected by each phase come from the plan, so
// no additional coordination traffic is needed.
//
// The engine runs metadata-only (op == nullptr: costs and volumes are
// exact, payloads absent) or with real payloads and a real AggregationOp.
//
// Concurrency: execute_query keeps all per-query state (accumulators,
// phase counters, stats) on the stack of the call and inside the
// Executor instance it is handed; it never touches globals.  Concurrent
// calls are safe as long as each call gets its own Executor and the
// shared ChunkStore/Dataset arguments are used read-only or internally
// locked — which is how Repository::submit drives it.
#pragma once

#include <memory>

#include "core/aggregation.hpp"
#include "core/qos.hpp"
#include "core/exec/exec_stats.hpp"
#include "core/planner/cost_model.hpp"
#include "core/planner/planner.hpp"
#include "runtime/executor.hpp"
#include "storage/dataset.hpp"

namespace adr {

struct ExecOptions {
  /// Quality-of-service contract riding with the query: deadline,
  /// priority class, drop-on-expiry flag (core/qos.hpp).  The scheduler
  /// and server honor it; execution itself never aborts mid-query.
  Qos qos;
  /// Charge the initialization-phase output read + ghost broadcast
  /// (paper Fig. 7 "communication for replicated output blocks").
  bool init_from_output = true;
  /// Write final output chunks back to the disk farm.  Repository::submit
  /// overrides it (and output_sink) from Query::delivery.
  bool write_output = true;
  /// CPU throughput of the messaging software stack: every sent and
  /// received byte costs CPU time at this rate on its endpoint (the SP's
  /// message passing was CPU-mediated).  0 disables the charge.
  double comm_cpu_bytes_per_sec = 0.0;
  /// Tile-pipelined execution (the paper's "overlap disk operations,
  /// network operations and processing as much as possible"): each node
  /// advances through its phases independently, paced by expected message
  /// counts, and may run one tile ahead of the slowest node.  When false,
  /// every phase ends in a global barrier (the ablation baseline).
  bool pipeline_tiles = true;
  /// Record per-node phase spans into ExecStats::trace (see
  /// render_gantt / trace_to_csv).
  bool record_trace = false;
  /// When set and write_output is false, finalized output chunks are
  /// handed to this sink instead of being written to the disk farm (the
  /// paper's "output can also be returned to the client from the
  /// back-end nodes").  Called from node contexts: must be thread-safe
  /// under the thread executor.
  std::function<void(Chunk&&)> output_sink;
  /// When set (and op != nullptr), receives each finalized accumulator
  /// after global combine, just before op->output() consumes it: the
  /// output *position* in the plan (index into selected_outputs) and the
  /// complete merged partial.  This is the marginal cache's publish tap —
  /// by this point the accumulator's value is strategy-independent.
  /// Called from node contexts: must be thread-safe under the thread
  /// executor.
  std::function<void(std::uint32_t, const std::vector<std::byte>&)> accum_sink;
};

/// Executes `pq` on `executor`.  `op` may be null for metadata-only runs.
/// `costs` are the per-chunk compute costs charged on the simulated CPU
/// (ignored by the thread executor, which costs real time).
ExecStats execute_query(Executor& executor, const PlannedQuery& pq,
                        const Dataset& input, const Dataset& output,
                        const AggregationOp* op, const ComputeCosts& costs,
                        int disks_per_node, const ExecOptions& options = {});

/// Multi-input variant: `inputs` must list the datasets in the order the
/// plan's `input_dataset_of` ordinals refer to.
ExecStats execute_query(Executor& executor, const PlannedQuery& pq,
                        const std::vector<const Dataset*>& inputs,
                        const Dataset& output, const AggregationOp* op,
                        const ComputeCosts& costs, int disks_per_node,
                        const ExecOptions& options = {});

}  // namespace adr
