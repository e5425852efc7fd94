// Dataset catalog (ADR's dataset service).
//
// A Dataset is the metadata for one stored multi-dimensional dataset: its
// attribute-space extent, the metadata of every chunk (MBR, size,
// placement), and the R-tree over the chunk MBRs that serves as its
// index.  Payloads live in a ChunkStore; the Dataset only knows where
// they are.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "storage/chunk.hpp"
#include "storage/rtree.hpp"

namespace adr {

class Dataset {
 public:
  Dataset() = default;
  /// Bulk-loads the index over the chunk MBRs, which are fixed from here
  /// on (set_placement changes only disks).
  Dataset(std::uint32_t id, std::string name, Rect domain, std::vector<ChunkMeta> chunks);

  std::uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Rect& domain() const { return domain_; }

  std::size_t num_chunks() const { return chunks_.size(); }
  const std::vector<ChunkMeta>& chunks() const { return chunks_; }
  const ChunkMeta& chunk(std::uint32_t index) const {
    return chunks_[static_cast<std::size_t>(index)];
  }

  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Chunk indices whose MBR intersects `range`, ascending.
  std::vector<std::uint32_t> find_chunks(const Rect& range) const {
    return index_.query(range);
  }

  /// Updates placement from a declustering assignment (global disk ids).
  void set_placement(const std::vector<int>& disk_of_chunk);

  /// Average chunk size in bytes (0 when empty).
  double mean_chunk_bytes() const;

 private:
  std::uint32_t id_ = 0;
  std::string name_;
  Rect domain_;
  std::vector<ChunkMeta> chunks_;
  std::uint64_t total_bytes_ = 0;
  RTree index_;
};

}  // namespace adr
