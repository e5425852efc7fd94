#include "storage/disk_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/fault.hpp"
#include "obs/metrics.hpp"

namespace adr {

namespace {

// Process-wide backing-store read traffic (catalog:
// docs/observability.md).  Both concrete stores tick these on every
// successful fetch, so the series counts *cold* reads — the chunk cache
// serves hits without reaching here — and the per-query cost ledger's
// cold bytes reconcile against it.
struct StorageMetrics {
  obs::Counter& chunk_reads;
  obs::Counter& bytes_read;
};

StorageMetrics& storage_metrics() {
  static StorageMetrics m{obs::metrics().counter("storage.chunk_reads"),
                          obs::metrics().counter("storage.bytes_read")};
  return m;
}

[[noreturn]] void throw_io_error(const std::string& what,
                                 const std::filesystem::path& path, int err) {
  std::string msg = "FileChunkStore: " + what + " " + path.string();
  if (err != 0) msg += ": " + std::string(std::strerror(err));
  throw std::runtime_error(msg);
}

int open_file(const std::filesystem::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0666);
  if (fd < 0) throw_io_error("cannot open", path, errno);
  return fd;
}

/// The manifest is read from outside the program: a record naming a disk
/// the farm does not have is corrupt, not an index to trust.
void check_manifest_disk(int disk, int num_disks) {
  if (disk < 0 || disk >= num_disks) {
    throw std::runtime_error("FileChunkStore: manifest disk out of range");
  }
}

/// Writes all `n` bytes at `offset`, resuming after short writes and
/// EINTR.  Any other failure (ENOSPC, EFBIG, ...) throws.
void pwrite_all(int fd, const std::byte* data, std::uint64_t n, std::uint64_t offset,
                const std::filesystem::path& path) {
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw_io_error("cannot write", path, w < 0 ? errno : 0);
    data += w;
    n -= static_cast<std::uint64_t>(w);
    offset += static_cast<std::uint64_t>(w);
  }
}

/// Reads exactly `n` bytes at `offset`, retrying on EINTR; end of file
/// before `n` bytes is a short read.
void pread_all(int fd, std::byte* data, std::uint64_t n, std::uint64_t offset,
               const std::filesystem::path& path) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, data, n, static_cast<off_t>(offset));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw_io_error("short read from", path, r < 0 ? errno : 0);
    data += r;
    n -= static_cast<std::uint64_t>(r);
    offset += static_cast<std::uint64_t>(r);
  }
}

}  // namespace

MemoryChunkStore::MemoryChunkStore(int num_disks) : disks_(static_cast<size_t>(num_disks)) {
  assert(num_disks >= 1);
}

void MemoryChunkStore::put(Chunk chunk) {
  const int disk = chunk.meta().disk;
  assert(disk >= 0 && disk < num_disks());
  std::lock_guard<std::mutex> lock(mutex_);
  Disk& d = disks_[static_cast<size_t>(disk)];
  auto [it, inserted] = d.chunks.insert_or_assign(chunk.meta().id, std::move(chunk));
  if (!inserted) {
    // Replacement: adjust byte accounting below using the new value only;
    // recompute lazily to keep the common path cheap.
    d.bytes = 0;
    for (const auto& [id, c] : d.chunks) d.bytes += c.meta().bytes;
  } else {
    d.bytes += it->second.meta().bytes;
  }
}

std::optional<Chunk> MemoryChunkStore::get(int disk, ChunkId id) const {
  assert(disk >= 0 && disk < num_disks());
  // Checked before the store lock: a latency fault sleeps without
  // serializing the whole farm; an error fault throws StatusError.
  fault::faults().check("storage.fetch");
  std::lock_guard<std::mutex> lock(mutex_);
  const Disk& d = disks_[static_cast<size_t>(disk)];
  auto it = d.chunks.find(id);
  if (it == d.chunks.end()) return std::nullopt;
  storage_metrics().chunk_reads.add();
  storage_metrics().bytes_read.add(it->second.payload().size());
  return it->second;
}

bool MemoryChunkStore::contains(int disk, ChunkId id) const {
  assert(disk >= 0 && disk < num_disks());
  std::lock_guard<std::mutex> lock(mutex_);
  return disks_[static_cast<size_t>(disk)].chunks.contains(id);
}

bool MemoryChunkStore::erase(int disk, ChunkId id) {
  assert(disk >= 0 && disk < num_disks());
  std::lock_guard<std::mutex> lock(mutex_);
  Disk& d = disks_[static_cast<size_t>(disk)];
  auto it = d.chunks.find(id);
  if (it == d.chunks.end()) return false;
  d.bytes -= it->second.meta().bytes;
  d.chunks.erase(it);
  return true;
}

std::size_t MemoryChunkStore::chunk_count(int disk) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disks_[static_cast<size_t>(disk)].chunks.size();
}

std::uint64_t MemoryChunkStore::bytes_on_disk(int disk) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disks_[static_cast<size_t>(disk)].bytes;
}

FileChunkStore::File::~File() {
  if (fd >= 0) ::close(fd);
}

FileChunkStore::FileChunkStore(std::filesystem::path dir, int num_disks,
                               bool open_existing)
    : dir_(std::move(dir)),
      manifest_path_(dir_ / "manifest.txt"),
      disks_(static_cast<size_t>(num_disks)) {
  assert(num_disks >= 1);
  std::filesystem::create_directories(dir_);
  // A fresh store truncates any stale files from a previous run.
  const int truncate = open_existing ? 0 : O_TRUNC;
  for (int k = 0; k < num_disks; ++k) {
    Disk& d = disks_[static_cast<size_t>(k)];
    d.path = dir_ / ("disk" + std::to_string(k) + ".dat");
    d.file.fd = open_file(d.path, O_RDWR | O_CREAT | O_CLOEXEC | truncate);
  }
  if (open_existing) replay_manifest();
  manifest_.fd =
      open_file(manifest_path_, O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC | truncate);
}

void FileChunkStore::append_manifest(const std::string& line) {
  // One write(2) per record on an O_APPEND descriptor: the record lands
  // whole at the end of the file, and nothing waits in a user-space
  // buffer where a second handle could not see it.
  const std::string record = line + '\n';
  ssize_t n = 0;
  do {
    n = ::write(manifest_.fd, record.data(), record.size());
  } while (n < 0 && errno == EINTR);
  if (n != static_cast<ssize_t>(record.size())) {
    throw_io_error("cannot append manifest", manifest_path_, n < 0 ? errno : 0);
  }
}

void FileChunkStore::replay_manifest() {
  std::ifstream f(manifest_path_);
  if (!f) return;  // empty store
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string op;
    ls >> op;
    if (op == "put") {
      int disk = 0, dims = 0;
      Entry e;
      if (!(ls >> disk >> e.meta.id.dataset >> e.meta.id.index >> e.offset >>
            e.stored_bytes >> e.meta.bytes >> dims)) {
        throw std::runtime_error("FileChunkStore: bad manifest put line");
      }
      if (dims < 0 || dims > kMaxDims) {
        throw std::runtime_error("FileChunkStore: bad manifest dims");
      }
      if (dims > 0) {
        Point lo(dims), hi(dims);
        for (int i = 0; i < dims; ++i) ls >> lo[i];
        for (int i = 0; i < dims; ++i) ls >> hi[i];
        if (!ls) throw std::runtime_error("FileChunkStore: bad manifest mbr");
        e.meta.mbr = Rect(lo, hi);
      }
      e.meta.disk = disk;
      check_manifest_disk(disk, num_disks());
      Disk& d = disks_[static_cast<size_t>(disk)];
      auto it = d.entries.find(e.meta.id);
      if (it != d.entries.end()) d.live_bytes -= it->second.meta.bytes;
      d.entries[e.meta.id] = e;
      d.live_bytes += e.meta.bytes;
      d.file_size = std::max(d.file_size, e.offset + e.stored_bytes);
    } else if (op == "erase") {
      int disk = 0;
      ChunkId id;
      if (!(ls >> disk >> id.dataset >> id.index)) {
        throw std::runtime_error("FileChunkStore: bad manifest erase line");
      }
      check_manifest_disk(disk, num_disks());
      Disk& d = disks_[static_cast<size_t>(disk)];
      auto it = d.entries.find(id);
      if (it != d.entries.end()) {
        d.live_bytes -= it->second.meta.bytes;
        d.entries.erase(it);
      }
    } else if (!op.empty()) {
      throw std::runtime_error("FileChunkStore: unknown manifest op '" + op + "'");
    }
  }
}

FileChunkStore::~FileChunkStore() = default;

void FileChunkStore::put(Chunk chunk) {
  const int disk = chunk.meta().disk;
  assert(disk >= 0 && disk < num_disks());
  Disk& d = disks_[static_cast<size_t>(disk)];
  Entry e;
  e.meta = std::move(chunk.meta());
  e.stored_bytes = chunk.payload().size();

  // The disk mutex is held across the write so the offset it reserves is
  // this put's alone, and the manifest's records for one disk stay in the
  // order their entries were published (replay keeps the last one).
  std::lock_guard<std::mutex> lock(d.mutex);
  e.offset = d.file_size;
  if (e.stored_bytes > 0) {
    pwrite_all(d.file.fd, chunk.payload().data(), e.stored_bytes, e.offset, d.path);
  }
  std::ostringstream line;
  line << std::setprecision(17) << "put " << disk << ' ' << e.meta.id.dataset << ' '
       << e.meta.id.index << ' ' << e.offset << ' ' << e.stored_bytes << ' '
       << e.meta.bytes << ' ' << e.meta.mbr.dims();
  for (int i = 0; i < e.meta.mbr.dims(); ++i) line << ' ' << e.meta.mbr.lo()[i];
  for (int i = 0; i < e.meta.mbr.dims(); ++i) line << ' ' << e.meta.mbr.hi()[i];
  append_manifest(line.str());

  // Both writes landed: publish.  A throw above records no entry.
  d.file_size += e.stored_bytes;
  const ChunkId id = e.meta.id;
  auto it = d.entries.find(id);
  if (it != d.entries.end()) d.live_bytes -= it->second.meta.bytes;
  d.live_bytes += e.meta.bytes;
  d.entries.insert_or_assign(id, std::move(e));
}

std::optional<Chunk> FileChunkStore::get(int disk, ChunkId id) const {
  assert(disk >= 0 && disk < num_disks());
  fault::faults().check("storage.fetch");
  const Disk& d = disks_[static_cast<size_t>(disk)];
  Entry e;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    auto it = d.entries.find(id);
    if (it == d.entries.end()) return std::nullopt;
    e = it->second;
  }
  // No lock held: the entry's bytes were written before it was published
  // and are never rewritten.
  std::vector<std::byte> payload(e.stored_bytes);
  if (e.stored_bytes > 0) {
    pread_all(d.file.fd, payload.data(), e.stored_bytes, e.offset, d.path);
  }
  storage_metrics().chunk_reads.add();
  storage_metrics().bytes_read.add(payload.size());
  return Chunk(std::move(e.meta), std::move(payload));
}

bool FileChunkStore::contains(int disk, ChunkId id) const {
  const Disk& d = disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.entries.contains(id);
}

bool FileChunkStore::erase(int disk, ChunkId id) {
  Disk& d = disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mutex);
  auto it = d.entries.find(id);
  if (it == d.entries.end()) return false;
  append_manifest("erase " + std::to_string(disk) + ' ' +
                  std::to_string(id.dataset) + ' ' + std::to_string(id.index));
  d.live_bytes -= it->second.meta.bytes;
  d.entries.erase(it);  // dead bytes remain in the file (no compaction)
  return true;
}

std::size_t FileChunkStore::chunk_count(int disk) const {
  const Disk& d = disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.entries.size();
}

std::uint64_t FileChunkStore::bytes_on_disk(int disk) const {
  const Disk& d = disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.live_bytes;
}

}  // namespace adr
