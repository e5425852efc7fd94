// FairSharedMutex tests: mutual exclusion, and the starvation bound the
// lock exists for — a writer acquires promptly while readers hammer the
// lock in a loop (glibc's reader-preferring rwlock can defer the writer
// indefinitely under the same load).
//
// The FairSharedMutex.* suite is a ThreadSanitizer target (see
// .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/fair_shared_mutex.hpp"
#include "core/frontend.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

TEST(FairSharedMutex, ExclusiveLockExcludesEverything) {
  FairSharedMutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 2000; ++i) {
        std::unique_lock lock(mutex);
        ++counter;  // data race here if exclusion is broken
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 8 * 2000);
}

TEST(FairSharedMutex, ReadersActuallyShare) {
  // Three readers hold the lock at once, each waiting until all three are
  // inside.  If the lock wrongly serialized shared owners, they could
  // never all be inside simultaneously and the deadline would expire.
  FairSharedMutex mutex;
  std::atomic<int> inside{0};
  std::atomic<bool> all_inside_at_once{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&]() {
      std::shared_lock lock(mutex);
      ++inside;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (inside.load() < 3 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (inside.load() == 3) all_inside_at_once = true;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(all_inside_at_once.load());
}

TEST(FairSharedMutex, WritersExcludeReaders) {
  FairSharedMutex mutex;
  std::atomic<int> concurrent_readers{0};
  std::atomic<bool> writer_overlap{false};
  std::atomic<int> inside_write{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 500; ++i) {
        std::shared_lock lock(mutex);
        if (inside_write.load() != 0) writer_overlap = true;
        ++concurrent_readers;
        --concurrent_readers;
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        std::unique_lock lock(mutex);
        ++inside_write;
        if (concurrent_readers.load() != 0) writer_overlap = true;
        --inside_write;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(writer_overlap.load());
}

TEST(FairSharedMutex, TryLockRespectsState) {
  FairSharedMutex mutex;
  {
    std::unique_lock lock(mutex);
    EXPECT_FALSE(mutex.try_lock());
    EXPECT_FALSE(mutex.try_lock_shared());
  }
  {
    std::shared_lock lock(mutex);
    EXPECT_FALSE(mutex.try_lock());
    EXPECT_TRUE(mutex.try_lock_shared());
    mutex.unlock_shared();
  }
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(FairSharedMutex, WriterNotStarvedByLoopingReaders) {
  // 8 readers re-acquire in a tight loop with zero gaps; a
  // reader-preferring lock can keep the writer waiting for the whole
  // test.  Phase-fairness bounds the writer's wait to the readers
  // already inside, so it must get through almost immediately.
  FairSharedMutex mutex;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        std::shared_lock lock(mutex);
      }
    });
  }
  // Let the reader storm reach a steady state.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    std::unique_lock lock(mutex);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop = true;
  for (auto& t : readers) t.join();
  // Generous bound: 20 writer acquisitions under reader fire should take
  // milliseconds; a starved writer blows far past this.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

// The repository-level guarantee the ISSUE asks for: create_dataset
// (exclusive catalog lock) completes while 8 threads hammer submit
// (shared catalog lock) nonstop.
TEST(FairSharedMutex, CreateDatasetCompletesUnderSubmitStorm) {
  RepositoryConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_per_node = 1 << 20;
  Repository repo(cfg);

  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::vector<Chunk> inputs;
  std::vector<Chunk> outputs;
  for (int iy = 0; iy < 4; ++iy) {
    for (int ix = 0; ix < 4; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, 4, ix, iy);
      std::vector<std::byte> payload(16, std::byte{1});
      inputs.emplace_back(meta, std::move(payload));
    }
  }
  for (int iy = 0; iy < 2; ++iy) {
    for (int ix = 0; ix < 2; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, 2, ix, iy);
      outputs.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  const auto in = repo.create_dataset("in", domain, inputs);
  const auto out = repo.create_dataset("out", domain, outputs);

  Query query;
  query.input_dataset = in;
  query.output_dataset = out;
  query.range = Rect(Point{0.0, 0.0}, Point{0.999, 0.999});
  query.aggregation = "sum-count-max";
  query.delivery = OutputDelivery::kReturnToClient;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 8; ++t) {
    submitters.emplace_back([&]() {
      while (!stop.load()) {
        if (repo.submit(query).outputs.empty()) ++failures;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The writer side: six registrations while the storm runs.  With the
  // old reader-preferring lock this is the call that could stall forever.
  const auto start = std::chrono::steady_clock::now();
  for (int d = 0; d < 6; ++d) {
    auto extra = inputs;  // fresh copies; create_dataset re-ids them
    repo.create_dataset("extra" + std::to_string(d), domain, std::move(extra));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  stop = true;
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(repo.num_datasets(), 8u);
  EXPECT_LT(elapsed, std::chrono::seconds(30));  // finished, not starved
}

}  // namespace
}  // namespace adr
