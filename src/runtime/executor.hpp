// The execution substrate interface.
//
// ADR's query execution service is an event-driven state machine: it
// issues asynchronous disk reads, message sends and computations, and
// reacts to their completions (paper section 2.4).  The engine is written
// once against this interface and runs unchanged on two substrates:
//
//  * SimExecutor   - discrete-event simulation of the modelled cluster;
//                    completions fire in virtual time, costs come from the
//                    hardware models.  Used for the paper-scale
//                    (8..128 node) experiments.
//  * ThreadExecutor- one real thread per node with real chunk payloads;
//                    completions fire in wall time.  Used for correctness
//                    validation and the runnable examples.
//
// Concurrency contract: all callbacks for node n are serialized in node
// n's context; distinct nodes may run concurrently (thread executor).  A
// node must not touch another node's state except by send().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "runtime/message.hpp"
#include "storage/chunk.hpp"

namespace adr {

class Executor {
 public:
  using Task = std::function<void()>;
  using ReadCallback = std::function<void(std::optional<Chunk>)>;
  using MessageHandler = std::function<void(const Message&)>;

  virtual ~Executor() = default;

  virtual int num_nodes() const = 0;

  /// Schedules `task` to run in node `node`'s context as soon as possible.
  virtual void post(int node, Task task) = 0;

  /// Asynchronously reads a chunk from a *local* disk of `node`
  /// (`global_disk` must belong to `node`).  `bytes` is the transfer size
  /// used for cost modelling.  The callback receives the stored chunk, or
  /// nullopt when running without a chunk store (metadata-only runs).
  virtual void read(int node, int global_disk, ChunkId id, std::uint64_t bytes,
                    ReadCallback done) = 0;

  /// Asynchronously writes a chunk to a local disk of `node`.
  virtual void write(int node, int global_disk, Chunk chunk, Task done) = 0;

  /// Sends a message; it is delivered by invoking the registered handler
  /// in the destination node's context.  Fire-and-forget: ordering between
  /// different (src,dst) pairs is unspecified; per-pair order preserved.
  virtual void send(Message msg) = 0;

  /// Registers the handler invoked on message delivery (shared by all
  /// nodes; the handler dispatches on msg.dst).  Must be set before any
  /// send.
  virtual void set_message_handler(MessageHandler handler) = 0;

  /// Performs `cost_seconds` of computation on `node`'s CPU, then invokes
  /// `done` (which performs the real data work on the thread executor).
  /// Ordering: computes that `node` issues in its own context run in
  /// issue order, and none waits behind the node's queued reads or
  /// undelivered messages, so a chunk is reduced as soon as its read
  /// completes.  The simulator queues them on the node's CPU model; the
  /// thread executor runs them before the node's next queued task.  On
  /// the thread executor a compute() issued from another thread queues
  /// behind `node`'s pending tasks, like post().
  virtual void compute(int node, double cost_seconds, Task done) = 0;

  /// Sliding-window synchronization, the one sync primitive: the caller
  /// reports completion of `epoch` (epochs 0,1,...); `done` fires in
  /// `node`'s context once every node has completed epoch `epoch - lag`.
  /// With lag 1 a node may run one tile ahead of the slowest node (tile
  /// pipelining); lag 0 is a global barrier, whose waiters all release
  /// together, in arrival order, when the last node arrives.  Epochs
  /// must be reported in increasing order per node.
  virtual void window_sync(int node, int epoch, int lag, Task done) = 0;

  /// Marks `node` as finished; run() returns after every node finishes.
  virtual void finish(int node) = 0;

  /// Runs `entry(node)` on every node and drives execution until all
  /// nodes have called finish().  Returns elapsed time in seconds
  /// (virtual time on the sim executor, wall time on threads).
  virtual double run(std::function<void(int)> entry) = 0;

  /// Current time in seconds on the executor's clock.
  virtual double now_seconds() const = 0;

  /// CPU seconds the backend's worker threads spent inside the most
  /// recent run() (the cost ledger's thread-CPU attribution).  0 when
  /// the backend has no real threads (the simulator) or the platform
  /// cannot read per-thread CPU clocks.
  virtual double last_run_cpu_seconds() const { return 0.0; }
};

}  // namespace adr
