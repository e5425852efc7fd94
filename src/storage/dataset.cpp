#include "storage/dataset.hpp"

#include <cassert>

namespace adr {

Dataset::Dataset(std::uint32_t id, std::string name, Rect domain,
                 std::vector<ChunkMeta> chunks)
    : id_(id), name_(std::move(name)), domain_(domain), chunks_(std::move(chunks)) {
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    assert(chunks_[i].id.dataset == id_);
    assert(chunks_[i].id.index == static_cast<std::uint32_t>(i));
    total_bytes_ += chunks_[i].bytes;
  }
  std::vector<Rect> mbrs;
  mbrs.reserve(chunks_.size());
  for (const ChunkMeta& c : chunks_) mbrs.push_back(c.mbr);
  index_.bulk_load(mbrs);
}

void Dataset::set_placement(const std::vector<int>& disk_of_chunk) {
  assert(disk_of_chunk.size() == chunks_.size());
  for (std::size_t i = 0; i < chunks_.size(); ++i) chunks_[i].disk = disk_of_chunk[i];
}

double Dataset::mean_chunk_bytes() const {
  if (chunks_.empty()) return 0.0;
  return static_cast<double>(total_bytes_) / static_cast<double>(chunks_.size());
}

}  // namespace adr
