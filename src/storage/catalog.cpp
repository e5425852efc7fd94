#include "storage/catalog.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace adr {
namespace {

void write_rect(std::ostream& os, const Rect& r) {
  for (int i = 0; i < r.dims(); ++i) os << ' ' << r.lo()[i];
  for (int i = 0; i < r.dims(); ++i) os << ' ' << r.hi()[i];
}

Rect read_rect(std::istringstream& is, int dims) {
  Point lo(dims), hi(dims);
  for (int i = 0; i < dims; ++i) {
    if (!(is >> lo[i])) throw std::runtime_error("catalog: bad rect");
  }
  for (int i = 0; i < dims; ++i) {
    if (!(is >> hi[i])) throw std::runtime_error("catalog: bad rect");
  }
  return Rect(lo, hi);
}

}  // namespace

void save_catalog(std::ostream& os, const std::vector<const Dataset*>& datasets) {
  os << "adr-catalog 1\n";
  os << std::setprecision(17);
  for (const Dataset* ds : datasets) {
    os << "dataset " << ds->id() << ' ' << ds->domain().dims();
    write_rect(os, ds->domain());
    os << ' ' << ds->num_chunks() << ' ' << ds->name() << '\n';
    for (const ChunkMeta& c : ds->chunks()) {
      os << "chunk " << c.id.index << ' ' << c.disk << ' ' << c.bytes;
      write_rect(os, c.mbr);
      os << '\n';
    }
  }
}

void save_catalog_file(const std::filesystem::path& path,
                       const std::vector<const Dataset*>& datasets) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("catalog: cannot write " + path.string());
  save_catalog(os, datasets);
  if (!os) throw std::runtime_error("catalog: write failed for " + path.string());
}

std::vector<Dataset> load_catalog(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line.rfind("adr-catalog 1", 0) != 0) {
    throw std::runtime_error("catalog: bad header");
  }
  std::vector<Dataset> out;

  std::uint32_t cur_id = 0;
  std::string cur_name;
  Rect cur_domain;
  std::size_t cur_expected = 0;
  std::vector<ChunkMeta> cur_chunks;
  bool open = false;

  auto finish = [&]() {
    if (!open) return;
    if (cur_chunks.size() != cur_expected) {
      throw std::runtime_error("catalog: dataset '" + cur_name + "' expects " +
                               std::to_string(cur_expected) + " chunks, found " +
                               std::to_string(cur_chunks.size()));
    }
    out.emplace_back(cur_id, cur_name, cur_domain, std::move(cur_chunks));
    cur_chunks = {};
    open = false;
  };

  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "dataset") {
      finish();
      int dims = 0;
      if (!(ls >> cur_id >> dims)) throw std::runtime_error("catalog: bad dataset line");
      if (dims < 1 || dims > kMaxDims) throw std::runtime_error("catalog: bad dims");
      cur_domain = read_rect(ls, dims);
      if (!(ls >> cur_expected)) throw std::runtime_error("catalog: bad chunk count");
      std::getline(ls, cur_name);
      if (!cur_name.empty() && cur_name.front() == ' ') cur_name.erase(0, 1);
      open = true;
    } else if (kind == "chunk") {
      if (!open) throw std::runtime_error("catalog: chunk before dataset");
      ChunkMeta meta;
      std::uint32_t index = 0;
      if (!(ls >> index >> meta.disk >> meta.bytes)) {
        throw std::runtime_error("catalog: bad chunk line");
      }
      meta.id = ChunkId{cur_id, index};
      meta.mbr = read_rect(ls, cur_domain.dims());
      if (index != cur_chunks.size()) {
        throw std::runtime_error("catalog: chunk indices out of order");
      }
      cur_chunks.push_back(meta);
    } else {
      throw std::runtime_error("catalog: unknown record '" + kind + "'");
    }
  }
  finish();
  return out;
}

std::vector<Dataset> load_catalog_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("catalog: cannot read " + path.string());
  return load_catalog(is);
}

}  // namespace adr
