#include "core/exec/query_executor.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"

namespace adr {
namespace {

enum class Phase { kInit, kLocalReduction, kGlobalCombine, kOutput };

/// One query's execution state machine, shared by all node contexts.
/// Per-node state is only ever touched from that node's context (the
/// Executor serialization contract), so no locks are needed.
class Engine {
 public:
  Engine(Executor& executor, const PlannedQuery& pq,
         std::vector<const Dataset*> inputs, const Dataset& output,
         const AggregationOp* op, const ComputeCosts& costs, const ExecOptions& options)
      : exec_(executor),
        pq_(pq),
        plan_(pq.plan),
        inputs_(std::move(inputs)),
        output_(output),
        op_(op),
        costs_(costs),
        options_(options) {
    const int nodes = plan_.num_nodes;
    if (exec_.num_nodes() != nodes) {
      throw std::invalid_argument("execute_query: plan/executor node count mismatch");
    }
    if (inputs_.empty()) {
      throw std::invalid_argument("execute_query: no input datasets");
    }
    if (!pq_.input_dataset_of.empty() &&
        pq_.input_dataset_of.size() != pq_.selected_inputs.size()) {
      throw std::invalid_argument("execute_query: input ordinal table size mismatch");
    }
    states_.resize(static_cast<size_t>(nodes));
    stats_.nodes.resize(static_cast<size_t>(nodes));
    stats_.tiles = plan_.num_tiles;
  }

  ExecStats run() {
    exec_.set_message_handler([this](const Message& msg) { on_message(msg); });
    phase_start_ = 0.0;
    const double start = exec_.now_seconds();
    const double elapsed = exec_.run([this](int node) {
      if (node == 0) phase_start_ = exec_.now_seconds();  // node 0 owns this field
      start_tile(node);
    });
    stats_.total_s = elapsed;
    stats_.thread_cpu_s = exec_.last_run_cpu_seconds();
    if (options_.record_trace) {
      for (NodeState& st : states_) {
        for (PhaseSpan& span : st.spans) {
          span.start_s -= start;
          span.end_s -= start;
          stats_.trace.push_back(span);
        }
      }
    }
    return std::move(stats_);
  }

 private:
  struct NodeState {
    int tile = 0;
    Phase phase = Phase::kInit;
    /// False until this node's entry task has run start_tile(): messages
    /// from faster peers can arrive before the entry task and must wait.
    bool started = false;
    bool issued = false;
    /// Phase syncs entered so far (the epoch of the lag-0 window that
    /// stands for a per-phase barrier when tiles are not pipelined).
    int syncs = 0;
    int outstanding = 0;
    int ghost_inits_received = 0;
    int inputs_received = 0;
    int combines_received = 0;
    /// Accumulators hosted this tile, keyed by output position.
    std::unordered_map<std::uint32_t, std::vector<std::byte>> accums;
    std::uint64_t accum_resident = 0;
    /// Messages that arrived before this node entered their phase.  A
    /// sender released early from a phase sync can race one phase ahead of
    /// a receiver still waiting on its own release callback, so arrivals
    /// may be (at most) one phase early; they are replayed on entry.
    std::vector<Message> deferred;
    /// Trace recording (when ExecOptions::record_trace).
    double phase_start_s = 0.0;
    std::vector<PhaseSpan> spans;
  };

  static Phase phase_of(MsgTag tag) {
    switch (tag) {
      case MsgTag::kGhostInit:
        return Phase::kInit;
      case MsgTag::kInputForward:
        return Phase::kLocalReduction;
      case MsgTag::kGhostCombine:
        return Phase::kGlobalCombine;
      default:
        return Phase::kOutput;
    }
  }

  const NodeTilePlan& tile_plan(int node, int tile) const {
    return plan_.node_tiles[static_cast<size_t>(node)][static_cast<size_t>(tile)];
  }

  NodeState& state(int node) { return states_[static_cast<size_t>(node)]; }
  NodeStats& nstats(int node) { return stats_.nodes[static_cast<size_t>(node)]; }

  const ChunkMeta& input_meta(std::uint32_t pos) const {
    const std::size_t ordinal =
        pq_.input_dataset_of.empty() ? 0 : pq_.input_dataset_of[pos];
    return inputs_[ordinal]->chunk(pq_.selected_inputs[pos]);
  }
  const ChunkMeta& output_meta(std::uint32_t pos) const {
    return output_.chunk(pq_.selected_outputs[pos]);
  }

  void track_accum_alloc(int node, std::uint32_t o) {
    NodeState& st = state(node);
    st.accum_resident += pq_.accum_bytes[o];
    nstats(node).peak_accum_bytes =
        std::max(nstats(node).peak_accum_bytes, st.accum_resident);
  }

  void track_accum_free(int node, std::uint32_t o) {
    state(node).accum_resident -= pq_.accum_bytes[o];
  }

  /// CPU time to pack or unpack `bytes` through the messaging stack.
  double comm_charge(std::uint64_t bytes) const {
    if (options_.comm_cpu_bytes_per_sec <= 0.0) return 0.0;
    return static_cast<double>(bytes) / options_.comm_cpu_bytes_per_sec;
  }

  // ------------------------------------------------------------------
  // Tile / phase sequencing.

  void start_tile(int node) {
    NodeState& st = state(node);
    st.started = true;
    st.phase = Phase::kInit;
    st.phase_start_s = exec_.now_seconds();
    st.issued = false;
    st.outstanding = 0;
    st.ghost_inits_received = 0;
    st.inputs_received = 0;
    st.combines_received = 0;
    begin_init(node);
    drain_deferred(node);
  }

  void advance_phase(int node) {
    NodeState& st = state(node);
    if (options_.pipeline_tiles) {
      if (st.phase == Phase::kOutput) {
        // Tile complete.  The sliding window (lag 1) lets this node run
        // one tile ahead of the slowest node, which is what overlaps one
        // node's global-combine burst with the others' next-tile reads.
        exec_.window_sync(node, st.tile, /*lag=*/1,
                          [this, node]() { transition(node); });
      } else {
        transition(node);
      }
    } else {
      // Lag 0: every node must finish this phase first, a global barrier.
      exec_.window_sync(node, st.syncs++, /*lag=*/0,
                        [this, node]() { transition(node); });
    }
  }

  void transition(int node) {
    if (node == 0) record_phase_boundary();
    NodeState& st = state(node);
    st.issued = false;
    st.outstanding = 0;
    st.phase_start_s = exec_.now_seconds();
    switch (st.phase) {
      case Phase::kInit:
        st.phase = Phase::kLocalReduction;
        begin_local_reduction(node);
        drain_deferred(node);
        break;
      case Phase::kLocalReduction:
        st.phase = Phase::kGlobalCombine;
        begin_global_combine(node);
        drain_deferred(node);
        break;
      case Phase::kGlobalCombine:
        st.phase = Phase::kOutput;
        begin_output(node);
        drain_deferred(node);
        break;
      case Phase::kOutput:
        ++st.tile;
        if (st.tile < plan_.num_tiles) {
          start_tile(node);
        } else {
          exec_.finish(node);
        }
        break;
    }
  }

  void record_phase_boundary() {
    const double now = exec_.now_seconds();
    const double span = now - phase_start_;
    phase_start_ = now;
    switch (states_[0].phase) {
      case Phase::kInit:
        stats_.phase_init_s += span;
        break;
      case Phase::kLocalReduction:
        stats_.phase_lr_s += span;
        break;
      case Phase::kGlobalCombine:
        stats_.phase_gc_s += span;
        break;
      case Phase::kOutput:
        stats_.phase_oh_s += span;
        break;
    }
  }

  // ------------------------------------------------------------------
  // Phase 1: initialization.

  void begin_init(int node) {
    NodeState& st = state(node);
    const NodeTilePlan& tp = tile_plan(node, st.tile);

    for (std::uint32_t o : tp.local_accum) {
      ++st.outstanding;
      const ChunkMeta& meta = output_meta(o);
      exec_.read(node, meta.disk, meta.id, meta.bytes,
                 [this, node, o](std::optional<Chunk> chunk) {
                   on_output_chunk_read(node, o, std::move(chunk));
                 });
    }
    st.issued = true;
    check_phase(node);
  }

  void on_output_chunk_read(int node, std::uint32_t o, std::optional<Chunk> chunk) {
    const ChunkMeta& meta = output_meta(o);
    NodeStats& ns = nstats(node);
    ++ns.chunks_read;
    ns.bytes_read += meta.bytes;

    // Initialize the owner's accumulator (paying the CPU cost of packing
    // the broadcast), then forward the existing output chunk to every
    // ghost host.
    const std::uint64_t msg_bytes = meta.bytes + kMessageHeaderBytes;
    const double pack = comm_charge(msg_bytes * plan_.ghost_hosts[o].size());
    ns.compute_init_s += costs_.init;
    ns.compute_comm_s += pack;

    auto existing = std::make_shared<std::optional<Chunk>>(std::move(chunk));
    exec_.compute(node, costs_.init + pack, [this, node, o, msg_bytes, existing]() {
      NodeStats& ns = nstats(node);
      std::shared_ptr<const std::vector<std::byte>> payload;
      if (existing->has_value() && (*existing)->has_payload()) {
        payload = std::make_shared<const std::vector<std::byte>>((*existing)->payload());
      }
      for (int host : plan_.ghost_hosts[o]) {
        Message msg;
        msg.src = node;
        msg.dst = host;
        msg.tag = MsgTag::kGhostInit;
        msg.bytes = msg_bytes;
        msg.chunk = output_meta(o).id;
        msg.aux = o;
        msg.tile = static_cast<std::uint32_t>(state(node).tile);
        msg.payload = payload;
        ++ns.msgs_sent;
        ns.bytes_sent += msg.bytes;
        exec_.send(std::move(msg));
      }
      install_accumulator(node, o, existing->has_value() ? &existing->value() : nullptr);
      op_done(node);
    });
  }

  void install_accumulator(int node, std::uint32_t o, const Chunk* existing) {
    NodeState& st = state(node);
    if (op_ != nullptr) {
      st.accums[o] = op_->initialize(output_meta(o), existing);
    } else {
      st.accums.emplace(o, std::vector<std::byte>{});
    }
    ++nstats(node).inits;
    track_accum_alloc(node, o);
  }

  void on_ghost_init(int node, const Message& msg) {
    NodeState& st = state(node);
    assert(st.phase == Phase::kInit);
    (void)st;
    const std::uint32_t o = msg.aux;
    // Rebuild the owner's output chunk view for Initialize.
    std::shared_ptr<Chunk> existing;
    if (msg.payload != nullptr) {
      existing = std::make_shared<Chunk>(output_meta(o), *msg.payload);
    }
    const double unpack = comm_charge(msg.bytes);
    nstats(node).compute_init_s += costs_.init;
    nstats(node).compute_comm_s += unpack;
    exec_.compute(node, costs_.init + unpack, [this, node, o, existing]() {
      install_accumulator(node, o, existing ? existing.get() : nullptr);
      NodeState& st = state(node);
      ++st.ghost_inits_received;
      check_phase(node);
    });
  }

  // ------------------------------------------------------------------
  // Phase 2: local reduction.

  void begin_local_reduction(int node) {
    NodeState& st = state(node);
    const NodeTilePlan& tp = tile_plan(node, st.tile);
    for (std::uint32_t i : tp.reads) {
      ++st.outstanding;
      const ChunkMeta& meta = input_meta(i);
      exec_.read(node, meta.disk, meta.id, meta.bytes,
                 [this, node, i](std::optional<Chunk> chunk) {
                   on_input_chunk_read(node, i, std::move(chunk));
                 });
    }
    st.issued = true;
    check_phase(node);
  }

  void on_input_chunk_read(int node, std::uint32_t i, std::optional<Chunk> chunk) {
    NodeState& st = state(node);
    const int tile = st.tile;
    const ChunkMeta& meta = input_meta(i);
    NodeStats& ns = nstats(node);
    ++ns.chunks_read;
    ns.bytes_read += meta.bytes;

    // Split this tile's targets into locally hosted replicas and remote
    // owners the chunk must be forwarded to.
    std::vector<std::uint32_t> local_targets;
    std::vector<int> remote_dests;
    for (std::uint32_t o : pq_.mapping.outputs_of(i)) {
      if (plan_.tile_of_output[o] != tile) continue;
      if (plan_.hosts_replica(node, o)) {
        local_targets.push_back(o);
      } else {
        remote_dests.push_back(plan_.owner_of_output[o]);
      }
    }
    std::sort(remote_dests.begin(), remote_dests.end());
    remote_dests.erase(std::unique(remote_dests.begin(), remote_dests.end()),
                       remote_dests.end());

    const std::uint64_t msg_bytes = meta.bytes + kMessageHeaderBytes;
    const double pack = comm_charge(msg_bytes * remote_dests.size());
    const double lr = costs_.lr_pair * static_cast<double>(local_targets.size());
    if (local_targets.empty() && remote_dests.empty()) {
      op_done(node);
      return;
    }
    ns.compute_lr_s += lr;
    ns.compute_comm_s += pack;
    auto held = std::make_shared<std::optional<Chunk>>(std::move(chunk));
    exec_.compute(node, lr + pack,
                  [this, node, i, msg_bytes, targets = std::move(local_targets),
                   dests = std::move(remote_dests), held]() {
                    NodeStats& ns = nstats(node);
                    // Only a forwarded chunk needs a shared buffer; with no
                    // local target left to reduce, the payload moves into it.
                    std::shared_ptr<const std::vector<std::byte>> payload;
                    if (!dests.empty() && held->has_value() && (*held)->has_payload()) {
                      std::vector<std::byte>& bytes = (*held)->payload();
                      if (targets.empty()) {
                        payload = std::make_shared<const std::vector<std::byte>>(
                            std::move(bytes));
                      } else {
                        payload = std::make_shared<const std::vector<std::byte>>(bytes);
                      }
                    }
                    for (int dst : dests) {
                      Message msg;
                      msg.src = node;
                      msg.dst = dst;
                      msg.tag = MsgTag::kInputForward;
                      msg.bytes = msg_bytes;
                      msg.chunk = input_meta(i).id;
                      msg.aux = i;
                      msg.tile = static_cast<std::uint32_t>(state(node).tile);
                      msg.payload = payload;
                      ++ns.msgs_sent;
                      ns.bytes_sent += msg.bytes;
                      exec_.send(std::move(msg));
                    }
                    aggregate_into(node, i, targets,
                                   held->has_value() ? &held->value() : nullptr);
                    op_done(node);
                  });
  }

  void aggregate_into(int node, std::uint32_t i,
                      const std::vector<std::uint32_t>& targets, const Chunk* chunk) {
    NodeState& st = state(node);
    NodeStats& ns = nstats(node);
    ns.lr_pairs += targets.size();
    if (op_ == nullptr || chunk == nullptr || !chunk->has_payload()) return;
    (void)i;
    for (std::uint32_t o : targets) {
      auto it = st.accums.find(o);
      assert(it != st.accums.end());
      op_->aggregate(*chunk, output_meta(o), it->second);
    }
  }

  void on_input_forward(int node, const Message& msg) {
    NodeState& st = state(node);
    assert(st.phase == Phase::kLocalReduction);
    const std::uint32_t i = msg.aux;
    const int tile = st.tile;

    // Exactly the edges the sender could not reduce locally: it forwarded
    // this chunk because it hosts no replica of these targets.
    std::vector<std::uint32_t> targets;
    for (std::uint32_t o : pq_.mapping.outputs_of(i)) {
      if (plan_.tile_of_output[o] != tile) continue;
      if (plan_.owner_of_output[o] == node && !plan_.hosts_replica(msg.src, o)) {
        targets.push_back(o);
      }
    }
    const double unpack = comm_charge(msg.bytes);
    const double cost = costs_.lr_pair * static_cast<double>(targets.size()) + unpack;
    nstats(node).compute_lr_s += cost - unpack;
    nstats(node).compute_comm_s += unpack;
    std::shared_ptr<Chunk> chunk;
    if (msg.payload != nullptr) {
      chunk = std::make_shared<Chunk>(input_meta(i), *msg.payload);
    }
    exec_.compute(node, cost, [this, node, i, targets = std::move(targets), chunk]() {
      aggregate_into(node, i, targets, chunk ? chunk.get() : nullptr);
      NodeState& st = state(node);
      ++st.inputs_received;
      check_phase(node);
    });
  }

  // ------------------------------------------------------------------
  // Phase 3: global combine.

  void begin_global_combine(int node) {
    NodeState& st = state(node);
    const NodeTilePlan& tp = tile_plan(node, st.tile);
    NodeStats& ns = nstats(node);
    if (!tp.ghost_accum.empty()) {
      std::uint64_t send_bytes = 0;
      for (std::uint32_t o : tp.ghost_accum) {
        send_bytes += pq_.accum_bytes[o] + kMessageHeaderBytes;
      }
      const double pack = comm_charge(send_bytes);
      ns.compute_comm_s += pack;
      ++st.outstanding;
      exec_.compute(node, pack, [this, node]() {
        NodeState& st = state(node);
        NodeStats& ns = nstats(node);
        const NodeTilePlan& tp = tile_plan(node, st.tile);
        for (std::uint32_t o : tp.ghost_accum) {
          Message msg;
          msg.src = node;
          msg.dst = plan_.owner_of_output[o];
          msg.tag = MsgTag::kGhostCombine;
          msg.bytes = pq_.accum_bytes[o] + kMessageHeaderBytes;
          msg.chunk = output_meta(o).id;
          msg.aux = o;
          msg.tile = static_cast<std::uint32_t>(st.tile);
          if (op_ != nullptr) {
            auto it = st.accums.find(o);
            assert(it != st.accums.end());
            msg.payload =
                std::make_shared<const std::vector<std::byte>>(std::move(it->second));
          }
          st.accums.erase(o);
          track_accum_free(node, o);
          ++ns.msgs_sent;
          ns.bytes_sent += msg.bytes;
          exec_.send(std::move(msg));
        }
        op_done(node);
      });
    }
    st.issued = true;
    check_phase(node);
  }

  void on_ghost_combine(int node, const Message& msg) {
    NodeState& st = state(node);
    assert(st.phase == Phase::kGlobalCombine);
    (void)st;
    const std::uint32_t o = msg.aux;
    const double unpack = comm_charge(msg.bytes);
    nstats(node).compute_gc_s += costs_.gc;
    nstats(node).compute_comm_s += unpack;
    auto payload = msg.payload;
    exec_.compute(node, costs_.gc + unpack, [this, node, o, payload]() {
      NodeState& st = state(node);
      if (op_ != nullptr && payload != nullptr) {
        auto it = st.accums.find(o);
        assert(it != st.accums.end());
        op_->combine(it->second, *payload);
      }
      ++nstats(node).combines;
      ++st.combines_received;
      check_phase(node);
    });
  }

  // ------------------------------------------------------------------
  // Phase 4: output handling.

  void begin_output(int node) {
    NodeState& st = state(node);
    const NodeTilePlan& tp = tile_plan(node, st.tile);
    const bool deliver = !options_.write_output && options_.output_sink != nullptr;
    for (std::uint32_t o : tp.local_accum) {
      ++st.outstanding;
      double cost = costs_.oh;
      if (deliver) {
        // Returning the chunk to the client costs message packing CPU.
        const double pack = comm_charge(output_meta(o).bytes + kMessageHeaderBytes);
        nstats(node).compute_comm_s += pack;
        cost += pack;
      }
      nstats(node).compute_oh_s += costs_.oh;
      exec_.compute(node, cost, [this, node, o]() { finalize_output(node, o); });
    }
    st.issued = true;
    check_phase(node);
  }

  void finalize_output(int node, std::uint32_t o) {
    NodeState& st = state(node);
    NodeStats& ns = nstats(node);
    ++ns.outputs;
    std::vector<std::byte> payload;
    if (op_ != nullptr) {
      auto it = st.accums.find(o);
      assert(it != st.accums.end());
      if (options_.accum_sink != nullptr) options_.accum_sink(o, it->second);
      payload = op_->output(output_meta(o), it->second);
    }
    st.accums.erase(o);
    track_accum_free(node, o);

    const ChunkMeta& meta = output_meta(o);
    if (!options_.write_output) {
      if (options_.output_sink != nullptr) {
        ++ns.msgs_sent;
        ns.bytes_sent += meta.bytes + kMessageHeaderBytes;
        options_.output_sink(Chunk(meta, std::move(payload)));
      }
      op_done(node);
      return;
    }
    ++ns.chunks_written;
    ns.bytes_written += meta.bytes;
    exec_.write(node, meta.disk, Chunk(meta, std::move(payload)),
                [this, node]() { op_done(node); });
  }

  // ------------------------------------------------------------------
  // Completion plumbing.

  void op_done(int node) {
    NodeState& st = state(node);
    assert(st.outstanding > 0);
    --st.outstanding;
    check_phase(node);
  }

  void check_phase(int node) {
    NodeState& st = state(node);
    ADR_DEBUG("node " << node << " check tile=" << st.tile << " phase="
                      << static_cast<int>(st.phase) << " issued=" << st.issued
                      << " outstanding=" << st.outstanding << " gi="
                      << st.ghost_inits_received << " in=" << st.inputs_received
                      << " cb=" << st.combines_received
                      << " deferred=" << st.deferred.size());
    if (!st.issued || st.outstanding > 0) return;
    const NodeTilePlan& tp = tile_plan(node, st.tile);
    switch (st.phase) {
      case Phase::kInit:
        if (st.ghost_inits_received < tp.expected_ghost_inits) return;
        break;
      case Phase::kLocalReduction:
        if (st.inputs_received < tp.expected_inputs) return;
        break;
      case Phase::kGlobalCombine:
        if (st.combines_received < tp.expected_combines) return;
        break;
      case Phase::kOutput:
        break;
    }
    if (options_.record_trace) {
      st.spans.push_back(PhaseSpan{node, st.tile, static_cast<int>(st.phase),
                                   st.phase_start_s, exec_.now_seconds()});
    }
    st.issued = false;  // ensure a single sync entry per phase
    advance_phase(node);
  }

  void on_message(const Message& msg) {
    NodeStats& ns = nstats(msg.dst);
    ++ns.msgs_received;
    ns.bytes_received += msg.bytes;
    NodeState& st = state(msg.dst);
    if (!st.started || msg.tile != static_cast<std::uint32_t>(st.tile) ||
        st.phase != phase_of(msg.tag)) {
      // The sender runs ahead of this node (at most one phase under
      // per-phase syncs, one tile under pipelining); stale messages are
      // impossible because phase completion counts them first.
      assert(!st.started || msg.tile > static_cast<std::uint32_t>(st.tile) ||
             (msg.tile == static_cast<std::uint32_t>(st.tile) &&
              static_cast<int>(phase_of(msg.tag)) > static_cast<int>(st.phase)));
      st.deferred.push_back(msg);
      return;
    }
    dispatch(msg);
  }

  void dispatch(const Message& msg) {
    switch (msg.tag) {
      case MsgTag::kGhostInit:
        on_ghost_init(msg.dst, msg);
        break;
      case MsgTag::kInputForward:
        on_input_forward(msg.dst, msg);
        break;
      case MsgTag::kGhostCombine:
        on_ghost_combine(msg.dst, msg);
        break;
      default:
        ADR_WARN("unexpected message tag");
        break;
    }
  }

  /// Replays deferred messages that now match the node's (tile, phase).
  /// The expected-count bookkeeping guarantees a phase cannot complete
  /// while a message belonging to it sits deferred.
  void drain_deferred(int node) {
    NodeState& st = state(node);
    if (st.deferred.empty()) return;
    std::vector<Message> ready;
    std::vector<Message> keep;
    for (Message& msg : st.deferred) {
      if (msg.tile == static_cast<std::uint32_t>(st.tile) &&
          phase_of(msg.tag) == st.phase) {
        ready.push_back(std::move(msg));
      } else {
        keep.push_back(std::move(msg));
      }
    }
    st.deferred = std::move(keep);
    for (const Message& msg : ready) dispatch(msg);
  }

  Executor& exec_;
  const PlannedQuery& pq_;
  const QueryPlan& plan_;
  std::vector<const Dataset*> inputs_;
  const Dataset& output_;
  const AggregationOp* op_;
  ComputeCosts costs_;
  ExecOptions options_;

  std::vector<NodeState> states_;
  ExecStats stats_;
  double phase_start_ = 0.0;
};

}  // namespace

ExecStats execute_query(Executor& executor, const PlannedQuery& pq,
                        const Dataset& input, const Dataset& output,
                        const AggregationOp* op, const ComputeCosts& costs,
                        const ExecOptions& options) {
  Engine engine(executor, pq, {&input}, output, op, costs, options);
  return engine.run();
}

ExecStats execute_query(Executor& executor, const PlannedQuery& pq,
                        const std::vector<const Dataset*>& inputs,
                        const Dataset& output, const AggregationOp* op,
                        const ComputeCosts& costs, const ExecOptions& options) {
  Engine engine(executor, pq, inputs, output, op, costs, options);
  return engine.run();
}

}  // namespace adr
