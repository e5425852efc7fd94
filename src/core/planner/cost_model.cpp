#include "core/planner/cost_model.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <vector>

namespace adr {
namespace {

double disk_time(const MachineParams& m, std::uint64_t bytes, std::uint64_t chunks) {
  return static_cast<double>(chunks) * m.disk_seek_s +
         static_cast<double>(bytes) / m.disk_bw_bytes_per_s;
}

double net_time(const MachineParams& m, std::uint64_t bytes, std::uint64_t msgs) {
  return static_cast<double>(msgs) * m.net_latency_s +
         static_cast<double>(bytes) / m.net_bw_bytes_per_s;
}

double comm_cpu(const MachineParams& m, std::uint64_t bytes) {
  if (m.comm_cpu_bytes_per_s <= 0.0) return 0.0;
  return static_cast<double>(bytes) / m.comm_cpu_bytes_per_s;
}

struct NodePhase {
  double disk = 0.0;
  double cpu = 0.0;
  double net_in = 0.0;
  double net_out = 0.0;

  /// Pipelined phase: the bottleneck resource dominates.
  double bottleneck() const {
    return std::max({disk, cpu, net_in, net_out});
  }
};

}  // namespace

CostEstimate estimate_cost(const QueryPlan& plan, const PlannerInput& in,
                           const ComputeCosts& costs, const MachineParams& machine) {
  assert(in.mapping != nullptr);
  const ChunkMapping& mapping = *in.mapping;
  const int nodes = plan.num_nodes;
  const int tiles = plan.num_tiles;

  CostEstimate est;
  std::vector<NodePhase> init_p(static_cast<size_t>(nodes));
  std::vector<NodePhase> lr_p(static_cast<size_t>(nodes));
  std::vector<NodePhase> gc_p(static_cast<size_t>(nodes));
  std::vector<NodePhase> oh_p(static_cast<size_t>(nodes));
  std::vector<int> dests;  // forward destinations of one input chunk
  double mean_in = 0.0;    // mean input chunk size
  for (std::uint64_t b : in.input_bytes) mean_in += static_cast<double>(b);
  if (!in.input_bytes.empty()) mean_in /= static_cast<double>(in.input_bytes.size());

  for (int t = 0; t < tiles; ++t) {
    for (auto& v : {&init_p, &lr_p, &gc_p, &oh_p}) {
      std::fill(v->begin(), v->end(), NodePhase{});
    }

    for (int n = 0; n < nodes; ++n) {
      const NodeTilePlan& tp = plan.node_tiles[static_cast<size_t>(n)][static_cast<size_t>(t)];
      auto& ip = init_p[static_cast<size_t>(n)];
      auto& lp = lr_p[static_cast<size_t>(n)];
      auto& gp = gc_p[static_cast<size_t>(n)];
      auto& op = oh_p[static_cast<size_t>(n)];

      // ---- initialization: read own output chunks, init all replicas,
      // broadcast to ghost hosts.
      std::uint64_t out_bytes = 0, bcast_bytes = 0, bcast_msgs = 0, ghost_in_bytes = 0;
      for (std::uint32_t o : tp.local_accum) {
        out_bytes += in.output_bytes[o];
        bcast_bytes += in.output_bytes[o] * plan.ghost_hosts[o].size();
        bcast_msgs += plan.ghost_hosts[o].size();
      }
      for (std::uint32_t o : tp.ghost_accum) ghost_in_bytes += in.output_bytes[o];
      ip.disk = disk_time(machine, out_bytes, tp.local_accum.size()) /
                std::max(1, machine.disks_per_node);
      ip.cpu = costs.init *
                   static_cast<double>(tp.local_accum.size() + tp.ghost_accum.size()) +
               comm_cpu(machine, bcast_bytes + ghost_in_bytes);
      ip.net_out = net_time(machine, bcast_bytes, bcast_msgs);
      ip.net_in = net_time(machine, ghost_in_bytes, tp.ghost_accum.size());

      // ---- local reduction: read local inputs; aggregate pairs hosted
      // here; forward inputs for non-hosted targets; receive forwards.
      std::uint64_t read_bytes = 0;
      for (std::uint32_t i : tp.reads) read_bytes += in.input_bytes[i];
      lp.disk = disk_time(machine, read_bytes, tp.reads.size()) /
                std::max(1, machine.disks_per_node);

      std::uint64_t pairs_local = 0, fwd_bytes = 0, fwd_msgs = 0;
      for (std::uint32_t i : tp.reads) {
        dests.clear();
        for (std::uint32_t o : mapping.outputs_of(i)) {
          if (plan.tile_of_output[o] != t) continue;
          if (plan.hosts_replica(n, o)) {
            ++pairs_local;
          } else {
            dests.push_back(plan.owner_of_output[o]);
          }
        }
        std::sort(dests.begin(), dests.end());
        dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
        fwd_msgs += dests.size();
        fwd_bytes += in.input_bytes[i] * dests.size();
      }
      // Pairs this node aggregates as the receiver of forwarded inputs.
      std::uint64_t pairs_recv = 0, recv_bytes = 0;
      for (std::uint32_t o : tp.local_accum) {
        for (std::uint32_t i : mapping.inputs_of(o)) {
          const int src = in.owner_of_input[i];
          if (src != n && !plan.hosts_replica(src, o)) ++pairs_recv;
        }
      }
      // Received bytes: expected_inputs messages of mean input size.
      if (tp.expected_inputs > 0 && !in.input_bytes.empty()) {
        recv_bytes = static_cast<std::uint64_t>(mean_in * tp.expected_inputs);
      }
      lp.cpu = costs.lr_pair * static_cast<double>(pairs_local + pairs_recv) +
               comm_cpu(machine, fwd_bytes + recv_bytes);
      lp.net_out = net_time(machine, fwd_bytes, fwd_msgs);
      lp.net_in = net_time(machine, recv_bytes,
                           static_cast<std::uint64_t>(tp.expected_inputs));

      // ---- global combine: send ghosts to owners; merge received.
      std::uint64_t ghost_out_bytes = 0;
      for (std::uint32_t o : tp.ghost_accum) ghost_out_bytes += in.accum_bytes[o];
      std::uint64_t combine_in_bytes = 0;
      for (std::uint32_t o : tp.local_accum) {
        combine_in_bytes += in.accum_bytes[o] * plan.ghost_hosts[o].size();
      }
      gp.net_out = net_time(machine, ghost_out_bytes, tp.ghost_accum.size());
      gp.net_in = net_time(machine, combine_in_bytes,
                           static_cast<std::uint64_t>(tp.expected_combines));
      gp.cpu = costs.gc * static_cast<double>(tp.expected_combines) +
               comm_cpu(machine, ghost_out_bytes + combine_in_bytes);

      // ---- output handling: finalize and write local outputs.
      op.cpu = costs.oh * static_cast<double>(tp.local_accum.size());
      op.disk = disk_time(machine, out_bytes, tp.local_accum.size()) /
                std::max(1, machine.disks_per_node);
    }

    auto phase_time = [&](const std::vector<NodePhase>& v) {
      double mx = 0.0;
      for (const NodePhase& p : v) mx = std::max(mx, p.bottleneck());
      return mx;
    };
    est.init_s += phase_time(init_p);
    est.lr_s += phase_time(lr_p);
    est.gc_s += phase_time(gc_p);
    est.oh_s += phase_time(oh_p);
  }
  est.total_s = est.init_s + est.lr_s + est.gc_s + est.oh_s;
  return est;
}

std::string CostEstimate::to_string() const {
  std::ostringstream os;
  os << "total=" << total_s << "s (init=" << init_s << " lr=" << lr_s << " gc=" << gc_s
     << " oh=" << oh_s << ")";
  return os.str();
}

}  // namespace adr
