#include "storage/chunk.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include <unordered_set>

namespace adr {
namespace {

TEST(ChunkId, OrderingAndEquality) {
  ChunkId a{0, 1}, b{0, 2}, c{1, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ChunkId{0, 1}));
  EXPECT_NE(a, b);
}

TEST(ChunkId, HashDistinguishes) {
  std::unordered_set<ChunkId, ChunkIdHash> set;
  set.insert({0, 0});
  set.insert({0, 1});
  set.insert({1, 0});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(ChunkId{0, 1}));
}

TEST(ChunkId, ToString) {
  EXPECT_EQ((ChunkId{2, 7}).to_string(), "d2:c7");
}

TEST(Chunk, MetadataOnlyHasNoPayload) {
  ChunkMeta meta;
  meta.bytes = 4096;
  Chunk chunk(meta);
  EXPECT_FALSE(chunk.has_payload());
  EXPECT_EQ(chunk.meta().bytes, 4096u);
}

TEST(Chunk, PayloadRoundTripAsUint64) {
  std::vector<std::uint64_t> values = {1, 2, 3, 500};
  std::vector<std::byte> payload(values.size() * sizeof(std::uint64_t));
  std::memcpy(payload.data(), values.data(), payload.size());
  Chunk chunk(ChunkMeta{}, std::move(payload));
  ASSERT_TRUE(chunk.has_payload());
  auto view = chunk.as<std::uint64_t>();
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[3], 500u);
}

TEST(Chunk, CopySharesPayloadBuffer) {
  // Payloads are immutable: bytes are written before the chunk owns them.
  std::vector<std::uint64_t> values = {0, 99};
  std::vector<std::byte> payload(values.size() * sizeof(std::uint64_t));
  std::memcpy(payload.data(), values.data(), payload.size());
  const Chunk chunk(ChunkMeta{}, std::move(payload));
  const Chunk copy = chunk;
  EXPECT_EQ(copy.as<std::uint64_t>()[1], 99u);
  EXPECT_EQ(copy.payload().data(), chunk.payload().data());  // no byte copy
  EXPECT_EQ(copy.shared_payload(), chunk.shared_payload());
}

TEST(PayloadFromDoubles, PreservesValues) {
  auto payload = payload_from_doubles({1.5, -2.25});
  Chunk chunk(ChunkMeta{}, std::move(payload));
  auto view = chunk.as<double>();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_DOUBLE_EQ(view[0], 1.5);
  EXPECT_DOUBLE_EQ(view[1], -2.25);
}

}  // namespace
}  // namespace adr
