// Tests the two executor substrates against the Executor contract.
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"
#include "sim/cluster.hpp"
#include "storage/disk_store.hpp"

namespace adr {
namespace {

struct Harness {
  std::unique_ptr<sim::SimCluster> cluster;
  std::unique_ptr<MemoryChunkStore> store;
  std::unique_ptr<Executor> executor;
};

Harness make_harness(bool simulated, int nodes, int disks_per_node = 1) {
  Harness h;
  h.store = std::make_unique<MemoryChunkStore>(nodes * disks_per_node);
  if (simulated) {
    sim::ClusterConfig cfg = sim::ibm_sp_profile(nodes);
    cfg.disks_per_node = disks_per_node;
    h.cluster = std::make_unique<sim::SimCluster>(cfg);
    h.executor = std::make_unique<SimExecutor>(h.cluster.get(), h.store.get());
  } else {
    h.executor = std::make_unique<ThreadExecutor>(nodes, disks_per_node, h.store.get());
  }
  return h;
}

class ExecutorContractTest : public ::testing::TestWithParam<bool> {};

TEST_P(ExecutorContractTest, RunsEntryOnEveryNode) {
  auto h = make_harness(GetParam(), 4);
  std::atomic<int> ran{0};
  h.executor->run([&](int node) {
    ++ran;
    h.executor->finish(node);
  });
  EXPECT_EQ(ran.load(), 4);
}

TEST_P(ExecutorContractTest, PostRunsInNodeContext) {
  auto h = make_harness(GetParam(), 2);
  std::atomic<int> value{0};
  h.executor->run([&](int node) {
    if (node == 0) {
      h.executor->post(0, [&, node]() {
        value = 42;
        h.executor->finish(node);
      });
    } else {
      h.executor->finish(node);
    }
  });
  EXPECT_EQ(value.load(), 42);
}

TEST_P(ExecutorContractTest, ReadReturnsStoredChunk) {
  auto h = make_harness(GetParam(), 2);
  ChunkMeta meta;
  meta.id = {0, 5};
  meta.disk = 1;  // node 1's disk
  meta.bytes = 8;
  std::vector<std::byte> payload(8, std::byte{7});
  h.store->put(Chunk(meta, payload));

  std::atomic<bool> got{false};
  h.executor->run([&](int node) {
    if (node == 1) {
      h.executor->read(1, 1, {0, 5}, 8, [&](std::optional<Chunk> chunk) {
        got = chunk.has_value() && chunk->has_payload();
        h.executor->finish(1);
      });
    } else {
      h.executor->finish(node);
    }
  });
  EXPECT_TRUE(got.load());
}

TEST_P(ExecutorContractTest, WriteThenReadRoundTrip) {
  auto h = make_harness(GetParam(), 2);
  std::atomic<bool> ok{false};
  h.executor->run([&](int node) {
    if (node != 0) {
      h.executor->finish(node);
      return;
    }
    ChunkMeta meta;
    meta.id = {3, 1};
    meta.disk = 0;
    meta.bytes = 16;
    h.executor->write(0, 0, Chunk(meta, std::vector<std::byte>(16, std::byte{9})),
                      [&]() {
                        h.executor->read(0, 0, {3, 1}, 16,
                                         [&](std::optional<Chunk> chunk) {
                                           ok = chunk.has_value() &&
                                                chunk->payload().size() == 16;
                                           h.executor->finish(0);
                                         });
                      });
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(ExecutorContractTest, MessageDeliveredToDestination) {
  auto h = make_harness(GetParam(), 3);
  std::atomic<int> received_on{-1};
  std::atomic<std::uint32_t> aux{0};
  h.executor->set_message_handler([&](const Message& msg) {
    received_on = msg.dst;
    aux = msg.aux;
    h.executor->finish(msg.dst);
  });
  h.executor->run([&](int node) {
    if (node == 0) {
      Message msg;
      msg.src = 0;
      msg.dst = 2;
      msg.bytes = 100;
      msg.aux = 77;
      h.executor->send(std::move(msg));
      h.executor->finish(0);
    } else if (node == 1) {
      h.executor->finish(1);
    }
    // node 2 finishes in the handler
  });
  EXPECT_EQ(received_on.load(), 2);
  EXPECT_EQ(aux.load(), 77u);
}

TEST_P(ExecutorContractTest, MessagePayloadShared) {
  auto h = make_harness(GetParam(), 2);
  auto payload = std::make_shared<const std::vector<std::byte>>(4, std::byte{1});
  std::atomic<bool> ok{false};
  h.executor->set_message_handler([&](const Message& msg) {
    ok = msg.payload != nullptr && msg.payload->size() == 4;
    h.executor->finish(1);
  });
  h.executor->run([&](int node) {
    if (node == 0) {
      Message msg;
      msg.src = 0;
      msg.dst = 1;
      msg.bytes = 4;
      msg.payload = payload;
      h.executor->send(std::move(msg));
      h.executor->finish(0);
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(ExecutorContractTest, BarrierReleasesAllTogether) {
  auto h = make_harness(GetParam(), 4);
  std::atomic<int> before{0}, after{0};
  std::atomic<bool> violated{false};
  h.executor->run([&](int node) {
    ++before;
    h.executor->barrier(node, [&, node]() {
      // Every node must have entered before anyone is released.
      if (before.load() != 4) violated = true;
      ++after;
      h.executor->finish(node);
    });
  });
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(after.load(), 4);
}

TEST_P(ExecutorContractTest, SequentialBarriers) {
  auto h = make_harness(GetParam(), 3);
  std::atomic<int> round{0};
  std::atomic<bool> ok{true};
  h.executor->run([&](int node) {
    h.executor->barrier(node, [&, node]() {
      if (node == 0) round = 1;
      h.executor->barrier(node, [&, node]() {
        if (round.load() != 1) ok = false;
        h.executor->finish(node);
      });
    });
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(ExecutorContractTest, ComputeCompletionFires) {
  auto h = make_harness(GetParam(), 2);
  std::atomic<int> done{0};
  h.executor->run([&](int node) {
    h.executor->compute(node, 0.001, [&, node]() {
      ++done;
      h.executor->finish(node);
    });
  });
  EXPECT_EQ(done.load(), 2);
}

TEST_P(ExecutorContractTest, WindowSyncLagZeroIsBarrier) {
  auto h = make_harness(GetParam(), 3);
  std::atomic<int> entered{0};
  std::atomic<bool> violated{false};
  h.executor->run([&](int node) {
    ++entered;
    h.executor->window_sync(node, 0, /*lag=*/0, [&, node]() {
      if (entered.load() != 3) violated = true;
      h.executor->finish(node);
    });
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(ExecutorContractTest, WindowSyncLagOneAllowsOneEpochDrift) {
  auto h = make_harness(GetParam(), 2);
  // Node 0 rushes through epochs; with lag 1 it may finish epoch e as
  // soon as everyone has finished e-1, so it can be at most one epoch
  // ahead of node 1.
  std::atomic<int> epoch0{-1}, epoch1{-1};
  std::atomic<bool> violated{false};
  constexpr int kEpochs = 5;
  std::function<void(int, int)> advance = [&](int node, int epoch) {
    if (epoch == kEpochs) {
      h.executor->finish(node);
      return;
    }
    (node == 0 ? epoch0 : epoch1) = epoch;
    if (std::abs(epoch0.load() - epoch1.load()) > 2) violated = true;
    h.executor->window_sync(node, epoch, 1,
                            [&, node, epoch]() { advance(node, epoch + 1); });
  };
  h.executor->run([&](int node) { advance(node, 0); });
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(epoch0.load(), kEpochs - 1);
  EXPECT_EQ(epoch1.load(), kEpochs - 1);
}

TEST_P(ExecutorContractTest, WindowSyncFirstEpochReleasesImmediately) {
  auto h = make_harness(GetParam(), 3);
  std::atomic<int> released{0};
  h.executor->run([&](int node) {
    if (node == 0) {
      // Node 0 syncs epoch 0 with lag 1 before anyone else does anything.
      h.executor->window_sync(node, 0, 1, [&, node]() {
        ++released;
        h.executor->finish(node);
      });
    } else {
      h.executor->post(node, [&, node]() {
        h.executor->window_sync(node, 0, 1, [&, node]() {
          ++released;
          h.executor->finish(node);
        });
      });
    }
  });
  EXPECT_EQ(released.load(), 3);
}

TEST_P(ExecutorContractTest, ComputeFromReadCallbackRunsBeforeNextRead) {
  // A node issues all its reads at once and reduces each in a compute()
  // from the read's callback: every reduction must run right after its
  // own read, before the next read is delivered.
  constexpr int kReads = 6;
  auto h = make_harness(GetParam(), 2);
  for (int k = 0; k < kReads; ++k) {
    ChunkMeta meta;
    meta.id = {0, static_cast<std::uint32_t>(k)};
    meta.disk = 0;
    meta.bytes = 8;
    h.store->put(Chunk(meta, std::vector<std::byte>(8, std::byte{1})));
  }
  std::vector<std::string> order;  // touched only in node 0's context
  h.executor->run([&](int node) {
    if (node != 0) {
      h.executor->finish(node);
      return;
    }
    for (int k = 0; k < kReads; ++k) {
      h.executor->read(0, 0, {0, static_cast<std::uint32_t>(k)}, 8,
                       [&, k](std::optional<Chunk> chunk) {
                         EXPECT_TRUE(chunk.has_value());
                         order.push_back("read" + std::to_string(k));
                         h.executor->compute(0, 0.0, [&, k]() {
                           order.push_back("reduce" + std::to_string(k));
                           if (k == kReads - 1) h.executor->finish(0);
                         });
                       });
    }
  });
  std::vector<std::string> expected;
  for (int k = 0; k < kReads; ++k) {
    expected.push_back("read" + std::to_string(k));
    expected.push_back("reduce" + std::to_string(k));
  }
  EXPECT_EQ(order, expected);
}

INSTANTIATE_TEST_SUITE_P(Substrates, ExecutorContractTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Simulated" : "Threads";
                         });

// ------------------------- buffer-cache model --------------------------

TEST(SimExecutorCache, HitSkipsDiskTime) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(1);
  cfg.disk.seek = sim::from_millis(10.0);
  cfg.disk.bandwidth_bytes_per_sec = 1e6;
  cfg.disk_cache_bytes = 10 << 20;
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, nullptr);
  std::vector<double> done;
  const double elapsed = exec.run([&](int node) {
    exec.read(node, 0, {0, 0}, 1'000'000, [&, node](std::optional<Chunk>) {
      done.push_back(exec.now_seconds());
      exec.read(node, 0, {0, 0}, 1'000'000, [&, node](std::optional<Chunk>) {
        done.push_back(exec.now_seconds());
        exec.finish(node);
      });
    });
  });
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.010, 1e-9);           // cold: seek + transfer
  EXPECT_LT(elapsed - done[0], 0.001);         // warm: ~memcpy
  EXPECT_EQ(exec.cache_hits(), 1u);
  EXPECT_EQ(exec.cache_misses(), 1u);
}

TEST(SimExecutorCache, DisabledByDefault) {
  sim::SimCluster cluster(sim::ibm_sp_profile(1));
  SimExecutor exec(&cluster, nullptr);
  exec.run([&](int node) {
    exec.read(node, 0, {0, 0}, 1000, [&, node](std::optional<Chunk>) {
      exec.read(node, 0, {0, 0}, 1000,
                [&, node](std::optional<Chunk>) { exec.finish(node); });
    });
  });
  EXPECT_EQ(exec.cache_hits(), 0u);
  EXPECT_EQ(exec.cache_misses(), 2u);
}

TEST(SimExecutorCache, LruEvictsWhenFull) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(1);
  cfg.disk_cache_bytes = 2000;  // room for two 1000-byte chunks
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, nullptr);
  // Read a, b, c (evicts a), then a again: a must miss.
  int step = 0;
  std::function<void(int)> next = [&](int node) {
    static const std::uint32_t order[] = {0, 1, 2, 0};
    if (step == 4) {
      exec.finish(node);
      return;
    }
    exec.read(node, 0, {0, order[step]}, 1000, [&, node](std::optional<Chunk>) {
      ++step;
      next(node);
    });
  };
  exec.run([&](int node) { next(node); });
  EXPECT_EQ(exec.cache_misses(), 4u);
  EXPECT_EQ(exec.cache_hits(), 0u);
}

TEST(SimExecutorCache, WriteThroughWarmsCache) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(1);
  cfg.disk_cache_bytes = 10 << 20;
  sim::SimCluster cluster(cfg);
  MemoryChunkStore store(1);
  SimExecutor exec(&cluster, &store);
  ChunkMeta meta;
  meta.id = {0, 1};
  meta.disk = 0;
  meta.bytes = 500;
  exec.run([&](int node) {
    exec.write(node, 0, Chunk(meta), [&, node]() {
      exec.read(node, 0, {0, 1}, 500,
                [&, node](std::optional<Chunk>) { exec.finish(node); });
    });
  });
  EXPECT_EQ(exec.cache_hits(), 1u);
  EXPECT_EQ(exec.cache_misses(), 0u);
}

// ------------------------- sim-only timing semantics -------------------

TEST(SimExecutor, ComputeChargesVirtualTime) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(1);
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, nullptr);
  const double elapsed = exec.run([&](int node) {
    exec.compute(node, 2.5, [&]() { exec.finish(node); });
  });
  EXPECT_DOUBLE_EQ(elapsed, 2.5);
}

TEST(SimExecutor, ReadChargesSeekPlusTransfer) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(1);
  cfg.disk.seek = sim::from_millis(10.0);
  cfg.disk.bandwidth_bytes_per_sec = 1e6;
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, nullptr);
  const double elapsed = exec.run([&](int node) {
    exec.read(node, 0, {0, 0}, 1'000'000,
              [&](std::optional<Chunk>) { exec.finish(node); });
  });
  EXPECT_NEAR(elapsed, 1.010, 1e-9);
}

TEST(SimExecutor, ConcurrentReadsSerializeOnOneDisk) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(1);
  cfg.disk.seek = 0;
  cfg.disk.bandwidth_bytes_per_sec = 1e6;
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, nullptr);
  std::vector<double> done;
  const double elapsed = exec.run([&](int node) {
    exec.read(node, 0, {0, 0}, 1'000'000,
              [&](std::optional<Chunk>) { done.push_back(exec.now_seconds()); });
    exec.read(node, 0, {0, 1}, 1'000'000, [&, node](std::optional<Chunk>) {
      done.push_back(exec.now_seconds());
      exec.finish(node);
    });
  });
  EXPECT_DOUBLE_EQ(elapsed, 2.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
}

TEST(SimExecutor, TwoDisksReadInParallel) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(1);
  cfg.disks_per_node = 2;
  cfg.disk.seek = 0;
  cfg.disk.bandwidth_bytes_per_sec = 1e6;
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, nullptr);
  std::atomic<int> pending{2};
  const double elapsed = exec.run([&](int node) {
    auto done = [&, node](std::optional<Chunk>) {
      if (--pending == 0) exec.finish(node);
    };
    exec.read(node, 0, {0, 0}, 1'000'000, done);
    exec.read(node, 1, {0, 1}, 1'000'000, done);
  });
  EXPECT_DOUBLE_EQ(elapsed, 1.0);
}

TEST(SimExecutor, MessageChargesNetworkTime) {
  sim::ClusterConfig cfg = sim::ibm_sp_profile(2);
  cfg.link.latency = sim::from_micros(100.0);
  cfg.link.bandwidth_bytes_per_sec = 1e6;
  sim::SimCluster cluster(cfg);
  SimExecutor exec(&cluster, nullptr);
  exec.set_message_handler([&](const Message& msg) { exec.finish(msg.dst); });
  const double elapsed = exec.run([&](int node) {
    if (node == 0) {
      Message msg;
      msg.src = 0;
      msg.dst = 1;
      msg.bytes = 1'000'000;
      exec.send(std::move(msg));
      exec.finish(0);
    }
  });
  // egress 1 s + 100 us latency + ingress 1 s.
  EXPECT_NEAR(elapsed, 2.0001, 1e-9);
}

TEST(SimExecutor, LocalSendIsFree) {
  sim::SimCluster cluster(sim::ibm_sp_profile(1));
  SimExecutor exec(&cluster, nullptr);
  exec.set_message_handler([&](const Message& msg) { exec.finish(msg.dst); });
  const double elapsed = exec.run([&](int node) {
    Message msg;
    msg.src = node;
    msg.dst = node;
    msg.bytes = 1'000'000'000;
    exec.send(std::move(msg));
  });
  EXPECT_DOUBLE_EQ(elapsed, 0.0);
}

TEST(SimExecutor, DeadlockDetected) {
  sim::SimCluster cluster(sim::ibm_sp_profile(2));
  SimExecutor exec(&cluster, nullptr);
  // Node 1 never finishes: the run must fail loudly, not hang.
  EXPECT_THROW(exec.run([&](int node) {
                 if (node == 0) exec.finish(0);
               }),
               std::logic_error);
}

// --------------------- thread executor continuations -------------------

TEST(ThreadExecutorOrdering, NestedComputesRunBeforeQueuedTasks) {
  // Continuations issued by continuations still drain, in issue order,
  // before a task that was already queued on the node.
  ThreadExecutor exec(1, 1, nullptr);
  std::vector<std::string> order;
  exec.run([&](int node) {
    exec.post(node, [&, node]() {
      order.push_back("queued");
      exec.finish(node);
    });
    exec.compute(node, 0.0, [&, node]() {
      order.push_back("c0");
      exec.compute(node, 0.0, [&]() { order.push_back("c0.0"); });
    });
    exec.compute(node, 0.0, [&]() { order.push_back("c1"); });
  });
  EXPECT_EQ(order, (std::vector<std::string>{"c0", "c1", "c0.0", "queued"}));
}

TEST(ThreadExecutorOrdering, ComputeFromAnotherNodeQueuesBehindPendingTasks) {
  ThreadExecutor exec(2, 1, nullptr);
  std::promise<void> posted, issued;
  std::shared_future<void> posted_f = posted.get_future().share();
  std::shared_future<void> issued_f = issued.get_future().share();
  std::vector<std::string> order;  // touched only on node 0's thread
  std::thread::id node0_thread, compute_thread;
  exec.run([&](int node) {
    if (node == 0) {
      node0_thread = std::this_thread::get_id();
      exec.post(0, [&]() { order.push_back("task0"); });
      exec.post(0, [&]() { order.push_back("task1"); });
      posted.set_value();
      // Hold node 0 until node 1 has issued its compute, so both tasks
      // are still pending when it arrives.
      issued_f.wait();
      return;
    }
    posted_f.wait();
    exec.compute(0, 0.0, [&]() {
      compute_thread = std::this_thread::get_id();
      order.push_back("remote_compute");
      exec.finish(0);
    });
    issued.set_value();
    exec.finish(1);
  });
  EXPECT_EQ(order,
            (std::vector<std::string>{"task0", "task1", "remote_compute"}));
  EXPECT_EQ(compute_thread, node0_thread);
}

TEST(ThreadExecutorOrdering, ComputeFaultPointFiresOncePerContinuation) {
  // Node-local and cross-node continuations alike evaluate
  // runtime.compute exactly once each; every continuation still runs,
  // and run() rethrows the injected error once both nodes finished.
  ThreadExecutor exec(2, 1, nullptr);
  fault::ScopedFaultPlan plan(/*seed=*/17);
  fault::FaultSpec spec;
  spec.code = StatusCode::kExecFailed;
  plan.arm("runtime.compute", spec);
  std::atomic<int> ran{0};
  // Node 0 finishes after the last of its four continuations, whichever
  // arrives last: the innermost local one or the one from node 1.
  auto ran_one = [&]() {
    if (++ran == 4) exec.finish(0);
  };
  EXPECT_THROW(exec.run([&](int node) {
                 if (node == 1) {
                   exec.compute(0, 0.0, ran_one);
                   exec.finish(1);
                   return;
                 }
                 exec.compute(0, 0.0, [&]() {
                   ran_one();
                   exec.compute(0, 0.0, [&]() {
                     ran_one();
                     exec.compute(0, 0.0, ran_one);
                   });
                 });
               }),
               StatusError);
  EXPECT_EQ(ran.load(), 4);
  const fault::PointStats stats = fault::faults().stats("runtime.compute");
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.fires, 4u);
}

}  // namespace
}  // namespace adr
