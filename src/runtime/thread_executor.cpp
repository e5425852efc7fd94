#include "runtime/thread_executor.hpp"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "common/fault.hpp"

namespace adr {

namespace {
// The worker whose node thread is running this code; null on any other
// thread.  compute() reads it to tell a node's own continuation apart
// from one issued elsewhere.
thread_local const void* tl_worker = nullptr;
}  // namespace

ThreadExecutor::ThreadExecutor(int num_nodes, int disks_per_node, ChunkStore* store)
    : disks_per_node_(disks_per_node), store_(store) {
  assert(num_nodes >= 1);
  assert(disks_per_node >= 1);
  if (store_ != nullptr && store_->num_disks() != num_nodes * disks_per_node) {
    throw std::invalid_argument("ThreadExecutor: store disk count mismatch");
  }
  epoch_ = std::chrono::steady_clock::now();
  workers_.reserve(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int n = 0; n < num_nodes; ++n) {
    workers_[static_cast<size_t>(n)]->thread =
        std::thread([this, n]() { worker_loop(n); });
  }
  // Per-thread CPU clocks for the cost ledger's thread-CPU attribution:
  // readable from the leasing thread, so run() can difference them at
  // its boundaries without touching the workers' hot loops.
  worker_cpu_clocks_.assign(workers_.size(), -1);
  for (std::size_t n = 0; n < workers_.size(); ++n) {
    clockid_t clock;
    if (pthread_getcpuclockid(workers_[n]->thread.native_handle(), &clock) == 0) {
      worker_cpu_clocks_[n] = static_cast<long>(clock);
    }
  }
}

double ThreadExecutor::workers_cpu_seconds() const {
  double total = 0.0;
  for (const long clock : worker_cpu_clocks_) {
    if (clock == -1) continue;
    timespec ts{};
    if (clock_gettime(static_cast<clockid_t>(clock), &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
  }
  return total;
}

double ThreadExecutor::last_run_cpu_seconds() const { return last_run_cpu_s_; }

ThreadExecutor::~ThreadExecutor() {
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mutex);
      w->stop = true;
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ThreadExecutor::worker_loop(int node) {
  Worker& w = *workers_[static_cast<size_t>(node)];
  tl_worker = &w;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(w.mutex);
      w.cv.wait(lock, [&w]() { return w.stop || !w.queue.empty(); });
      if (w.queue.empty()) return;  // stop requested and drained
      task = std::move(w.queue.front());
      w.queue.pop_front();
    }
    task();
    // Continuations the task issued (and theirs, in turn) run now, before
    // the next queued read or message.
    while (!w.continuations.empty()) {
      task = std::move(w.continuations.front());
      w.continuations.pop_front();
      task();
    }
  }
}

void ThreadExecutor::post(int node, Task task) {
  assert(node >= 0 && node < num_nodes());
  Worker& w = *workers_[static_cast<size_t>(node)];
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  w.cv.notify_one();
}

void ThreadExecutor::read(int node, int global_disk, ChunkId id, std::uint64_t bytes,
                          ReadCallback done) {
  (void)bytes;
  assert(node_of_disk(global_disk) == node);
  ChunkStore* store = store_;
  // A throwing fetch (disk fault, injected error) must not unwind the
  // node thread — that would terminate the process.  Record the error
  // and deliver nullopt: the engine degrades exactly as for a missing
  // chunk, the run completes, and run() rethrows the recorded status.
  post(node, [this, store, global_disk, id, done = std::move(done)]() {
    std::optional<Chunk> chunk;
    if (store != nullptr) {
      try {
        chunk = store->get(global_disk, id);
      } catch (const StatusError& e) {
        record_run_error(e.to_status());
      } catch (const std::exception& e) {
        record_run_error(status_from_exception(e));
      }
    }
    done(std::move(chunk));
  });
}

void ThreadExecutor::write(int node, int global_disk, Chunk chunk, Task done) {
  assert(node_of_disk(global_disk) == node);
  (void)global_disk;
  ChunkStore* store = store_;
  post(node, [this, store, chunk = std::move(chunk),
              done = std::move(done)]() mutable {
    if (store != nullptr) {
      try {
        store->put(std::move(chunk));
      } catch (const StatusError& e) {
        record_run_error(e.to_status());
      } catch (const std::exception& e) {
        record_run_error(status_from_exception(e));
      }
    }
    done();  // the phase state machine must still advance past the write
  });
}

void ThreadExecutor::send(Message msg) {
  assert(handler_ != nullptr);
  const int dst = msg.dst;
  // Capture the handler by reference to the member: it is set once before
  // execution starts and never mutated afterwards.
  post(dst, [this, msg = std::move(msg)]() { handler_(msg); });
}

void ThreadExecutor::set_message_handler(MessageHandler handler) {
  handler_ = std::move(handler);
}

void ThreadExecutor::compute(int node, double cost_seconds, Task done) {
  (void)cost_seconds;  // real work costs real time on this executor
  Task continuation = [this, done = std::move(done)]() {
    // Injected per-tile reduction failure: record it (failing the run
    // after completion) but still run the continuation so the engine's
    // phase accounting stays balanced.
    const Status injected = fault::faults().evaluate("runtime.compute");
    if (!injected.ok()) record_run_error(injected);
    done();
  };
  assert(node >= 0 && node < num_nodes());
  Worker& w = *workers_[static_cast<size_t>(node)];
  if (tl_worker == &w) {
    w.continuations.push_back(std::move(continuation));
  } else {
    post(node, std::move(continuation));
  }
}

void ThreadExecutor::window_sync(int node, int epoch, int lag, Task done) {
  std::vector<WindowWaiter> ready;
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    if (epoch_completed_.empty()) {
      epoch_completed_.assign(static_cast<size_t>(num_nodes()), -1);
    }
    epoch_completed_[static_cast<size_t>(node)] =
        std::max(epoch_completed_[static_cast<size_t>(node)], epoch);
    window_waiters_.push_back(WindowWaiter{node, epoch, lag, std::move(done)});
    const int min_done =
        *std::min_element(epoch_completed_.begin(), epoch_completed_.end());
    std::erase_if(window_waiters_, [min_done, &ready](WindowWaiter& w) {
      if (w.epoch - w.lag <= min_done) {
        ready.push_back(std::move(w));
        return true;
      }
      return false;
    });
  }
  for (WindowWaiter& w : ready) post(w.node, std::move(w.task));
}

void ThreadExecutor::finish(int node) {
  (void)node;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    ++finished_;
  }
  done_cv_.notify_all();
}

double ThreadExecutor::run(std::function<void(int)> entry) {
  // Reset per-run state so one pool of node threads serves many runs.
  // A correctly finished run leaves the waiter list empty (every window
  // waiter fires before finish); the clear keeps a stale entry from a
  // buggy engine from leaking into the next query.
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    finished_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    run_error_ = Status::make_ok();
  }
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    assert(window_waiters_.empty());
    window_waiters_.clear();
    epoch_completed_.clear();
  }
  const double cpu_before = workers_cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  for (int n = 0; n < num_nodes(); ++n) {
    post(n, [entry, n]() { entry(n); });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this]() { return finished_ == num_nodes(); });
    ++completed_runs_;
  }
  const auto end = std::chrono::steady_clock::now();
  last_run_cpu_s_ = std::max(0.0, workers_cpu_seconds() - cpu_before);
  // Surface the first node-task failure only after every node finished:
  // the pool is quiescent, so a leased warm executor returns to the pool
  // clean even when the query it ran failed.
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!run_error_.ok()) {
      throw StatusError(run_error_.code, run_error_.message);
    }
  }
  return std::chrono::duration<double>(end - start).count();
}

void ThreadExecutor::record_run_error(Status status) {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (run_error_.ok()) run_error_ = std::move(status);
}

std::uint64_t ThreadExecutor::completed_runs() const {
  std::lock_guard<std::mutex> lock(done_mutex_);
  return completed_runs_;
}

double ThreadExecutor::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

}  // namespace adr
