// Analytic cost model for strategy selection (paper section 6).
//
// The paper's stated long-term goal is "simple but reasonably accurate
// cost models to guide and automate the selection of an appropriate
// strategy".  This model walks a plan tile by tile and, per phase, takes
// the bottleneck over nodes of the overlapped resources (disk, CPU,
// network in/out), mirroring how the pipelined execution service hides
// whichever resource is not critical.  Its accuracy against the simulator
// is measured by bench/ablation_cost_model.
#pragma once

#include <string>
#include <vector>

#include "core/planner/plan.hpp"

namespace adr::sim {
struct ClusterConfig;
}  // namespace adr::sim

namespace adr {

/// Per-chunk computation costs in seconds (the paper's Table 1 reports
/// them in milliseconds as I-LR-GC-OH).  lr is charged per intersecting
/// (input chunk, accumulator chunk) pair.
struct ComputeCosts {
  double init = 0.0;
  double lr_pair = 0.0;
  double gc = 0.0;
  double oh = 0.0;
};

/// Machine parameters mirroring sim::ClusterConfig.
struct MachineParams {
  double disk_seek_s = 0.010;
  double disk_bw_bytes_per_s = 10.0 * 1024 * 1024;
  double net_latency_s = 40e-6;
  double net_bw_bytes_per_s = 110.0 * 1024 * 1024;
  /// CPU cost of the messaging stack per sent/received byte (0 = free).
  double comm_cpu_bytes_per_s = 0.0;
  int disks_per_node = 1;
};

/// The cost model's view of a simulated machine.
MachineParams machine_params(const sim::ClusterConfig& machine);

struct CostEstimate {
  double total_s = 0.0;
  double init_s = 0.0;
  double lr_s = 0.0;
  double gc_s = 0.0;
  double oh_s = 0.0;

  std::string to_string() const;
};

/// Estimates execution time for `plan` given the selection context.
CostEstimate estimate_cost(const QueryPlan& plan, const PlannerInput& in,
                           const ComputeCosts& costs, const MachineParams& machine);

}  // namespace adr
