// Dataset loading (paper section 2.2).
//
// "Loading a dataset into ADR is accomplished in four steps: (1) partition
// a dataset into data chunks, (2) compute placement information, (3) move
// data chunks to the disks according to placement information, and (4)
// create an index."
//
// Step (1) is performed by the caller / emulator (chunks arrive already
// partitioned); load_dataset performs (2)-(4): declusters the chunks over
// the disk farm, moves them into the ChunkStore, and builds the R-tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/chunk.hpp"
#include "storage/dataset.hpp"
#include "storage/decluster.hpp"
#include "storage/disk_store.hpp"

namespace adr {

struct LoadOptions {
  DeclusterOptions decluster;
};

/// Loads pre-partitioned chunks as dataset `id`/`name` into `store` and
/// returns the catalog entry.  Chunk metas are renumbered to (id, 0..n-1);
/// `domain` is the dataset's attribute-space extent.
Dataset load_dataset(std::uint32_t id, const std::string& name, const Rect& domain,
                     std::vector<Chunk> chunks, ChunkStore& store,
                     const LoadOptions& options);

/// Metadata-only variant: same placement + indexing, nothing stored.
Dataset load_dataset_meta(std::uint32_t id, const std::string& name, const Rect& domain,
                          std::vector<ChunkMeta> chunks, const DeclusterOptions& options);

}  // namespace adr
