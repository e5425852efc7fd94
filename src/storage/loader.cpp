#include "storage/loader.hpp"

#include <cassert>
#include <utility>

namespace adr {

Dataset load_dataset(std::uint32_t id, const std::string& name, const Rect& domain,
                     std::vector<Chunk> chunks, ChunkStore& store,
                     const LoadOptions& options) {
  // Renumber and collect metadata.
  std::vector<ChunkMeta> metas;
  metas.reserve(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].meta().id = ChunkId{id, static_cast<std::uint32_t>(i)};
    if (chunks[i].meta().bytes == 0) {
      chunks[i].meta().bytes = chunks[i].payload().size();
    }
    metas.push_back(chunks[i].meta());
  }

  // (2) placement.
  DeclusterOptions dopts = options.decluster;
  assert(dopts.num_disks == store.num_disks());
  const std::vector<int> placement = decluster(metas, domain, dopts);

  // (3) move chunks to their disks.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].meta().disk = placement[i];
    metas[i].disk = placement[i];
    store.put(std::move(chunks[i]));
  }

  // (4) index: the Dataset bulk-loads its R-tree.
  return Dataset(id, name, domain, std::move(metas));
}

Dataset load_dataset_meta(std::uint32_t id, const std::string& name, const Rect& domain,
                          std::vector<ChunkMeta> chunks, const DeclusterOptions& options) {
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].id = ChunkId{id, static_cast<std::uint32_t>(i)};
  }
  const std::vector<int> placement = decluster(chunks, domain, options);
  for (std::size_t i = 0; i < chunks.size(); ++i) chunks[i].disk = placement[i];
  return Dataset(id, name, domain, std::move(chunks));
}

}  // namespace adr
