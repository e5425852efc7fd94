// Chunks: ADR's unit of storage, I/O and communication.
//
// Every dataset is partitioned into chunks; each chunk carries the minimum
// bounding rectangle (MBR) of its items in the dataset's attribute space,
// a placement (which disk of the farm holds it), and optionally a payload.
// Payloads are real bytes in thread-executor runs; simulation runs may use
// metadata-only chunks whose size still drives I/O and network costs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.hpp"

namespace adr {

/// Identifies a chunk within the repository: (dataset id, chunk index).
struct ChunkId {
  std::uint32_t dataset = 0;
  std::uint32_t index = 0;

  bool operator==(const ChunkId&) const = default;
  auto operator<=>(const ChunkId&) const = default;

  std::string to_string() const {
    return "d" + std::to_string(dataset) + ":c" + std::to_string(index);
  }
};

struct ChunkIdHash {
  std::size_t operator()(const ChunkId& id) const {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(id.dataset) << 32) |
                                      id.index);
  }
};

/// Chunk metadata: everything the planner and indexing service need.
struct ChunkMeta {
  ChunkId id;
  /// MBR of the chunk's items in the dataset's attribute space.
  Rect mbr;
  /// On-disk size in bytes (drives I/O and communication costs).
  std::uint64_t bytes = 0;
  /// Global disk index (node-major across the disk farm); -1 = unplaced.
  int disk = -1;
};

/// A chunk with (optional) payload.
///
/// The payload is immutable and shared: copying a Chunk copies its
/// metadata and bumps a reference count, never the bytes.  The chunk
/// cache, the stores and the engine's messages all hold the same
/// buffer, so code that builds bytes builds a vector and moves it in.
class Chunk {
 public:
  using Payload = std::shared_ptr<const std::vector<std::byte>>;

  Chunk() = default;
  explicit Chunk(ChunkMeta meta) : meta_(std::move(meta)) {}
  Chunk(ChunkMeta meta, std::vector<std::byte> payload) : meta_(std::move(meta)) {
    if (!payload.empty()) {
      payload_ = std::make_shared<const std::vector<std::byte>>(std::move(payload));
    }
  }
  Chunk(ChunkMeta meta, Payload payload)
      : meta_(std::move(meta)), payload_(std::move(payload)) {}

  const ChunkMeta& meta() const { return meta_; }
  ChunkMeta& meta() { return meta_; }

  bool has_payload() const { return payload_ != nullptr && !payload_->empty(); }
  const std::vector<std::byte>& payload() const {
    static const std::vector<std::byte> kEmpty;
    return payload_ != nullptr ? *payload_ : kEmpty;
  }
  /// The shared buffer itself (null for a metadata-only chunk).
  const Payload& shared_payload() const { return payload_; }

  /// Reinterprets the payload as an array of T (size must divide evenly).
  template <typename T>
  std::span<const T> as() const {
    const std::vector<std::byte>& bytes = payload();
    return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
  }

 private:
  ChunkMeta meta_;
  Payload payload_;
};

/// Builds a payload from a vector of doubles (the emulators' item type).
std::vector<std::byte> payload_from_doubles(const std::vector<double>& values);

}  // namespace adr
