// Per-disk chunk stores (ADR's storage manager / disk farm).
//
// A ChunkStore addresses the whole farm by global disk index and provides
// the paper's storage contract: a chunk lives on exactly one disk, is read
// and written only through that disk, and is always moved as a whole.
// Two backends: an in-memory store (simulations, tests) and a file-backed
// store (one data file per disk plus an offset table, for runs whose
// payloads should survive the process).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/chunk.hpp"

namespace adr {

class ChunkStore {
 public:
  virtual ~ChunkStore() = default;

  /// Stores `chunk` on the disk recorded in its metadata (meta().disk).
  virtual void put(Chunk chunk) = 0;

  /// Reads a chunk; returns nullopt if absent.
  virtual std::optional<Chunk> get(int disk, ChunkId id) const = 0;

  /// True if the chunk exists on the given disk.
  virtual bool contains(int disk, ChunkId id) const = 0;

  /// Removes a chunk; returns true if it existed.
  virtual bool erase(int disk, ChunkId id) = 0;

  /// Number of chunks resident on `disk`.
  virtual std::size_t chunk_count(int disk) const = 0;

  /// Total payload bytes resident on `disk`.
  virtual std::uint64_t bytes_on_disk(int disk) const = 0;

  virtual int num_disks() const = 0;
};

/// In-memory backend.  Thread-safe: the thread executor reads concurrently
/// from many node threads.
class MemoryChunkStore : public ChunkStore {
 public:
  explicit MemoryChunkStore(int num_disks);

  void put(Chunk chunk) override;
  std::optional<Chunk> get(int disk, ChunkId id) const override;
  bool contains(int disk, ChunkId id) const override;
  bool erase(int disk, ChunkId id) override;
  std::size_t chunk_count(int disk) const override;
  std::uint64_t bytes_on_disk(int disk) const override;
  int num_disks() const override { return static_cast<int>(disks_.size()); }

 private:
  struct Disk {
    std::unordered_map<ChunkId, Chunk, ChunkIdHash> chunks;
    std::uint64_t bytes = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Disk> disks_;
};

/// File-backed backend: `<dir>/disk<k>.dat` holds payloads back to back;
/// an offset table locates them.  Metadata-only chunks (no payload) are
/// tracked in the table with zero stored bytes.  Every put/erase is also
/// appended to `<dir>/manifest.txt`, so a store can be reopened in a
/// later process with `open_existing = true` (the manifest is replayed
/// to rebuild the offset tables).
///
/// Thread safety: each disk file and the manifest are opened once and
/// kept open.  A per-disk mutex guards only that disk's offset table;
/// payload I/O runs unlocked with pread/pwrite, so node threads read
/// their disks in parallel.  Payloads are never rewritten in place (an
/// overwrite appends), so a reader holding a copied entry reads stable
/// bytes.  The offset table is a hash map: nothing reads it in id order,
/// and the manifest, not the table, fixes the on-disk record order.  A
/// put's manifest record is written with one write(2) before put
/// returns: a second handle opened later sees every completed put.
class FileChunkStore : public ChunkStore {
 public:
  FileChunkStore(std::filesystem::path dir, int num_disks,
                 bool open_existing = false);
  ~FileChunkStore() override;

  void put(Chunk chunk) override;
  std::optional<Chunk> get(int disk, ChunkId id) const override;
  bool contains(int disk, ChunkId id) const override;
  bool erase(int disk, ChunkId id) override;
  std::size_t chunk_count(int disk) const override;
  std::uint64_t bytes_on_disk(int disk) const override;
  int num_disks() const override { return static_cast<int>(disks_.size()); }

  const std::filesystem::path& directory() const { return dir_; }

 private:
  struct Entry {
    ChunkMeta meta;
    std::uint64_t offset = 0;
    std::uint64_t stored_bytes = 0;
  };
  /// An open file descriptor, closed when the store (or a constructor
  /// that throws part-way) lets go of it.
  struct File {
    int fd = -1;
    File() = default;
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    ~File();
  };
  struct Disk {
    std::filesystem::path path;
    File file;
    mutable std::mutex mutex;  // guards the fields below, never payload I/O
    std::unordered_map<ChunkId, Entry, ChunkIdHash> entries;
    std::uint64_t file_size = 0;
    std::uint64_t live_bytes = 0;
  };

  void append_manifest(const std::string& line);
  void replay_manifest();

  std::filesystem::path dir_;
  std::filesystem::path manifest_path_;
  std::vector<Disk> disks_;
  File manifest_;
};

}  // namespace adr
