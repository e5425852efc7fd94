#include "storage/disk_store.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace adr {
namespace {

Chunk make_chunk(std::uint32_t index, int disk, std::vector<std::uint64_t> values) {
  ChunkMeta meta;
  meta.id = {0, index};
  meta.disk = disk;
  std::vector<std::byte> payload(values.size() * sizeof(std::uint64_t));
  std::memcpy(payload.data(), values.data(), payload.size());
  meta.bytes = payload.size();
  return Chunk(meta, std::move(payload));
}

template <typename StoreT>
class ChunkStoreTest : public ::testing::Test {
 public:
  std::unique_ptr<ChunkStore> make(int disks) {
    if constexpr (std::is_same_v<StoreT, MemoryChunkStore>) {
      return std::make_unique<MemoryChunkStore>(disks);
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("adr_store_test_" + std::to_string(::getpid()));
      return std::make_unique<FileChunkStore>(dir_, disks);
    }
  }
  ~ChunkStoreTest() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

 private:
  std::filesystem::path dir_;
};

using StoreTypes = ::testing::Types<MemoryChunkStore, FileChunkStore>;
TYPED_TEST_SUITE(ChunkStoreTest, StoreTypes);

TYPED_TEST(ChunkStoreTest, PutGetRoundTrip) {
  auto store = this->make(2);
  store->put(make_chunk(0, 1, {10, 20, 30}));
  auto chunk = store->get(1, {0, 0});
  ASSERT_TRUE(chunk.has_value());
  auto view = chunk->template as<std::uint64_t>();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[1], 20u);
  EXPECT_EQ(chunk->meta().disk, 1);
}

TYPED_TEST(ChunkStoreTest, GetMissingReturnsNullopt) {
  auto store = this->make(2);
  EXPECT_FALSE(store->get(0, {0, 7}).has_value());
}

TYPED_TEST(ChunkStoreTest, ChunkOnWrongDiskNotFound) {
  auto store = this->make(2);
  store->put(make_chunk(3, 0, {1}));
  EXPECT_FALSE(store->get(1, {0, 3}).has_value());
  EXPECT_TRUE(store->get(0, {0, 3}).has_value());
}

TYPED_TEST(ChunkStoreTest, ContainsAndErase) {
  auto store = this->make(1);
  store->put(make_chunk(5, 0, {1, 2}));
  EXPECT_TRUE(store->contains(0, {0, 5}));
  EXPECT_TRUE(store->erase(0, {0, 5}));
  EXPECT_FALSE(store->contains(0, {0, 5}));
  EXPECT_FALSE(store->erase(0, {0, 5}));
}

TYPED_TEST(ChunkStoreTest, CountsAndBytes) {
  auto store = this->make(2);
  store->put(make_chunk(0, 0, {1}));
  store->put(make_chunk(1, 0, {1, 2}));
  store->put(make_chunk(2, 1, {1}));
  EXPECT_EQ(store->chunk_count(0), 2u);
  EXPECT_EQ(store->chunk_count(1), 1u);
  EXPECT_EQ(store->bytes_on_disk(0), 3 * sizeof(std::uint64_t));
}

TYPED_TEST(ChunkStoreTest, OverwriteReplacesContent) {
  auto store = this->make(1);
  store->put(make_chunk(0, 0, {1}));
  store->put(make_chunk(0, 0, {42, 43}));
  auto chunk = store->get(0, {0, 0});
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->template as<std::uint64_t>()[0], 42u);
  EXPECT_EQ(store->chunk_count(0), 1u);
}

TYPED_TEST(ChunkStoreTest, MetadataOnlyChunk) {
  auto store = this->make(1);
  ChunkMeta meta;
  meta.id = {0, 9};
  meta.disk = 0;
  meta.bytes = 1 << 20;  // nominal size, no payload
  store->put(Chunk(meta));
  auto chunk = store->get(0, {0, 9});
  ASSERT_TRUE(chunk.has_value());
  EXPECT_FALSE(chunk->has_payload());
  EXPECT_EQ(chunk->meta().bytes, 1u << 20);
  EXPECT_EQ(store->bytes_on_disk(0), 1u << 20);
}

TYPED_TEST(ChunkStoreTest, ConcurrentReadersAndWriters) {
  auto store = this->make(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t]() {
      const int neighbour = (t + 1) % 4;
      for (std::uint32_t i = 0; i < 200; ++i) {
        store->put(make_chunk(i, t, {i, i + 1}));
        auto c = store->get(t, {0, i});
        ASSERT_TRUE(c.has_value());
        EXPECT_EQ(c->template as<std::uint64_t>()[1], i + 1);
        const std::uint32_t j = i / 2;
        if (i % 4 == 3) {
          // Overwrite an earlier chunk with a longer payload.
          store->put(make_chunk(j, t, {j, j + 1, 7}));
        }
        // Read the neighbour's disk while its writer runs: whichever
        // version is visible arrives whole.
        if (auto n = store->get(neighbour, {0, j})) {
          auto view = n->template as<std::uint64_t>();
          ASSERT_GE(view.size(), 2u);
          EXPECT_EQ(view[0], j);
          EXPECT_EQ(view[1], j + 1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(store->chunk_count(d), 200u);
    // 50 ids were overwritten with three values, 150 kept two.
    EXPECT_EQ(store->bytes_on_disk(d), (150 * 2 + 50 * 3) * sizeof(std::uint64_t));
  }
}

TEST(FileChunkStore, ReopenRestoresContents) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_reopen";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 2);
    for (std::uint32_t i = 0; i < 20; ++i) {
      Chunk c = make_chunk(i, static_cast<int>(i % 2), {i, i * 3});
      c.meta().mbr = Rect(Point{static_cast<double>(i), 0.0}, Point{i + 1.0, 2.0});
      store.put(std::move(c));
    }
    store.erase(0, {0, 4});
  }
  FileChunkStore reopened(dir, 2, /*open_existing=*/true);
  EXPECT_EQ(reopened.chunk_count(0), 9u);  // 10 minus the erased one
  EXPECT_EQ(reopened.chunk_count(1), 10u);
  EXPECT_FALSE(reopened.contains(0, {0, 4}));
  for (std::uint32_t i = 0; i < 20; ++i) {
    if (i == 4) continue;
    auto c = reopened.get(static_cast<int>(i % 2), {0, i});
    ASSERT_TRUE(c.has_value()) << i;
    auto view = c->as<std::uint64_t>();
    ASSERT_EQ(view.size(), 2u);
    EXPECT_EQ(view[0], i);
    EXPECT_EQ(view[1], i * 3);
    EXPECT_DOUBLE_EQ(c->meta().mbr.lo()[0], static_cast<double>(i));
  }
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, ReopenAfterOverwriteKeepsLatest) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_overwrite";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 1);
    store.put(make_chunk(0, 0, {1}));
    store.put(make_chunk(0, 0, {42, 43, 44}));
  }
  FileChunkStore reopened(dir, 1, true);
  auto c = reopened.get(0, {0, 0});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->as<std::uint64_t>().size(), 3u);
  EXPECT_EQ(c->as<std::uint64_t>()[0], 42u);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, FreshOpenTruncatesOldData) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_trunc";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore store(dir, 1);
    store.put(make_chunk(0, 0, {1}));
  }
  FileChunkStore fresh(dir, 1);  // open_existing defaults to false
  EXPECT_EQ(fresh.chunk_count(0), 0u);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, PersistsAcrossHandleReads) {
  const auto dir = std::filesystem::temp_directory_path() / "adr_store_persist";
  FileChunkStore store(dir, 1);
  for (std::uint32_t i = 0; i < 50; ++i) store.put(make_chunk(i, 0, {i * 7}));
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto c = store.get(0, {0, i});
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->as<std::uint64_t>()[0], i * 7);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, SecondHandleSeesCompletedPuts) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adr_store_second_handle_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    FileChunkStore live(dir, 2);
    constexpr std::uint32_t kPuts = 64;
    for (std::uint32_t i = 0; i < kPuts; ++i) {
      live.put(make_chunk(i, static_cast<int>(i % 2), {i, i * i, ~std::uint64_t{i}}));
    }
    // Opened beside the live handle, which keeps its files open.
    FileChunkStore second(dir, 2, /*open_existing=*/true);
    EXPECT_EQ(second.chunk_count(0) + second.chunk_count(1), kPuts);
    for (std::uint32_t i = 0; i < kPuts; ++i) {
      const int disk = static_cast<int>(i % 2);
      auto c = second.get(disk, {0, i});
      ASSERT_TRUE(c.has_value()) << i;
      const Chunk expected = make_chunk(i, disk, {i, i * i, ~std::uint64_t{i}});
      EXPECT_EQ(c->payload(), expected.payload()) << i;
    }
    // The live handle is undisturbed by the second one.
    live.put(make_chunk(kPuts, 0, {5}));
    auto c = live.get(0, {0, kPuts});
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->as<std::uint64_t>()[0], 5u);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, CorruptManifestEraseDiskRejected) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adr_store_corrupt_erase_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  { FileChunkStore store(dir, 1); }
  { std::ofstream(dir / "manifest.txt", std::ios::app) << "erase 7 0 0\n"; }
  EXPECT_THROW(FileChunkStore(dir, 1, /*open_existing=*/true), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(FileChunkStore, FailedPayloadWriteThrowsAndRecordsNothing) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adr_store_fsize_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  // The file-size limit applies to the whole process, so the put runs in
  // a child.  With SIGXFSZ ignored, a write past the limit fails with
  // EFBIG instead of killing the process.  Exit codes: 0 = the put threw
  // and recorded nothing, 1 = it did not throw, 2 = it recorded an entry.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 0;
    try {
      FileChunkStore store(dir, 1);
      store.put(make_chunk(0, 0, {1, 2, 3}));
      ::signal(SIGXFSZ, SIG_IGN);
      const rlimit limit{4096, 4096};
      ::setrlimit(RLIMIT_FSIZE, &limit);
      try {
        store.put(make_chunk(1, 0, std::vector<std::uint64_t>(1024, 9)));  // 8 KiB
        code = 1;
      } catch (const std::runtime_error&) {
        if (store.chunk_count(0) != 1 || store.contains(0, {0, 1})) code = 2;
      }
    } catch (...) {
      code = 3;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died abnormally";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace adr
