// Thread-backed executor.
//
// One real thread per back-end node: the substrate every Repository query
// runs on (the simulator serves only the emulator's figures).  Each node
// drains two FIFO queues: a locked task queue that post(), read(),
// write(), send() and the sliding-window releases feed from any thread,
// and an unlocked continuation queue that only compute() calls made on
// the node's own thread feed.  After every task the node runs its pending continuations
// before it takes the next task, so a chunk is reduced right after its
// read completes, while the payload is in cache — the order the
// simulator models (paper section 2.4).  send() enqueues delivery on the
// destination node's task queue, so the distributed-memory discipline
// (no shared state, message passing only) is preserved even though
// everything lives in one process.
//
// Lifecycle: the node threads are spawned once in the constructor and
// live until destruction.  run() may be called repeatedly on the same
// pool — per-run state (finish count, sliding-window epochs and waiters,
// message handler) is reset at the start of each run, so a warm
// executor serves query after query without respawning threads (see
// runtime/executor_pool.hpp for the cross-submit pool).  Runs must not
// overlap: one run() at a time per executor — two queries interleaving
// one pool's sliding windows would deadlock.  Calls to set_message_handler()
// and run() are sequenced on the leasing thread; the completed-run
// handshake (done_mutex_) orders them against the previous run's node
// tasks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "runtime/executor.hpp"
#include "storage/disk_store.hpp"

namespace adr {

class ThreadExecutor : public Executor {
 public:
  /// `num_nodes` worker threads over a disk farm of `disks_per_node *
  /// num_nodes` disks stored in `store` (must be thread-safe; both
  /// provided stores are).
  ThreadExecutor(int num_nodes, int disks_per_node, ChunkStore* store);
  ~ThreadExecutor() override;

  ThreadExecutor(const ThreadExecutor&) = delete;
  ThreadExecutor& operator=(const ThreadExecutor&) = delete;

  int num_nodes() const override { return static_cast<int>(workers_.size()); }
  void post(int node, Task task) override;
  void read(int node, int global_disk, ChunkId id, std::uint64_t bytes,
            ReadCallback done) override;
  void write(int node, int global_disk, Chunk chunk, Task done) override;
  void send(Message msg) override;
  void set_message_handler(MessageHandler handler) override;
  void compute(int node, double cost_seconds, Task done) override;
  void window_sync(int node, int epoch, int lag, Task done) override;
  void finish(int node) override;
  double run(std::function<void(int)> entry) override;
  double now_seconds() const override;
  /// Summed node-thread CPU seconds for the last run() (per-thread CPU
  /// clocks read at the run boundaries; see obs/query_cost.hpp).
  double last_run_cpu_seconds() const override;

  int node_of_disk(int global_disk) const { return global_disk / disks_per_node_; }

  /// Completed run() calls on this pool of threads (executor-reuse
  /// observability: threads are spawned once, runs accumulate).
  std::uint64_t completed_runs() const;

  /// Records a failure observed by a node task this run (storage fetch
  /// fault, injected reduction error).  First error wins; the engine
  /// keeps running to completion on degraded inputs (a faulted read
  /// delivers nullopt, exactly like a missing chunk) so sliding windows
  /// never wedge, and run() rethrows the recorded error
  /// once every node has finished — the query fails cleanly instead of
  /// returning silently partial results.  Thread-safe (node threads).
  void record_run_error(Status status);

 private:
  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool stop = false;
    /// compute() continuations issued on this node's own thread.  Only
    /// that thread touches it, so it takes no lock.
    std::deque<Task> continuations;
  };

  void worker_loop(int node);
  /// Sum of the worker threads' CPU clocks right now (0 if unreadable).
  double workers_cpu_seconds() const;

  int disks_per_node_;
  ChunkStore* const store_;
  MessageHandler handler_;
  std::vector<std::unique_ptr<Worker>> workers_;

  struct WindowWaiter {
    int node;
    int epoch;
    int lag;
    Task task;
  };
  std::mutex window_mutex_;
  std::vector<int> epoch_completed_;
  std::vector<WindowWaiter> window_waiters_;

  mutable std::mutex done_mutex_;
  std::condition_variable done_cv_;
  int finished_ = 0;
  std::uint64_t completed_runs_ = 0;
  /// Per-worker CPU clock ids (pthread_getcpuclockid; empty entry == -1
  /// means unreadable) and the last run's summed CPU delta.  Written by
  /// run() on the leasing thread, read after run() returns — the same
  /// sequencing contract as set_message_handler().
  std::vector<long> worker_cpu_clocks_;
  double last_run_cpu_s_ = 0.0;

  /// First error recorded this run (guarded by error_mutex_; reset at
  /// the start of each run, thrown from run() after completion).
  mutable std::mutex error_mutex_;
  Status run_error_;

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace adr
