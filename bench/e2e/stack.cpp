// Seeded data, the reference reducer, the serving stack and the query
// sequences of bench_e2e.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "e2e.hpp"

namespace e2e {
namespace {

/// Inset so neighbouring chunk MBRs never touch: range intersection is
/// closed, and touching MBRs would select boundary chunks twice.
constexpr double kInset = 1e-9;

adr::Rect cell(int dims, int x, int y, int t, double w) {
  const double e = kInset * w;
  if (dims == 2) {
    return adr::Rect(adr::Point{x * w + e, y * w + e},
                     adr::Point{(x + 1) * w - e, (y + 1) * w - e});
  }
  return adr::Rect(adr::Point{x * w + e, y * w + e, t + kInset},
                   adr::Point{(x + 1) * w - e, (y + 1) * w - e, t + 1 - kInset});
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Grid make(std::uint64_t seed, int nx, int ny, int nt, int values, int out_n) {
  Grid g;
  g.nx = nx;
  g.ny = ny;
  g.nt = nt;
  g.values = values;
  g.out_n = out_n;
  g.seed = seed;
  g.partials.resize(static_cast<std::size_t>(g.cells()));
  for (int i = 0; i < g.cells(); ++i) {
    Partial& p = g.partials[static_cast<std::size_t>(i)];
    for (std::uint64_t v : g.values_of(static_cast<std::uint32_t>(i))) {
      p.fold(Partial{v, 1, v});
    }
  }
  return g;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBrowse:
      return "browse";
    case Workload::kScan:
      return "scan";
    case Workload::kIngestMix:
      return "ingest_mix";
    case Workload::kBurst:
      return "burst";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : kWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::vector<std::uint64_t> Grid::values_of(std::uint32_t index) const {
  std::uint64_t state = adr::mix_seed(seed, index);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(values));
  for (auto& v : out) v = splitmix(state) >> 52;
  return out;
}

adr::Rect Grid::domain() const {
  if (nt == 1) return adr::Rect(adr::Point{0.0, 0.0}, adr::Point{double(nx), double(ny)});
  return adr::Rect(adr::Point{0.0, 0.0, 0.0}, adr::Point{double(nx), double(ny), double(nt)});
}

adr::Rect Grid::out_domain() const {
  return adr::Rect(adr::Point{0.0, 0.0}, adr::Point{double(nx), double(ny)});
}

std::vector<adr::Chunk> Grid::input_chunks() const {
  std::vector<adr::Chunk> chunks;
  chunks.reserve(static_cast<std::size_t>(cells()));
  const int dims = nt == 1 ? 2 : 3;
  for (int t = 0; t < nt; ++t) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        adr::ChunkMeta meta;
        meta.mbr = cell(dims, x, y, t, 1.0);
        const std::vector<std::uint64_t> v = values_of(index(x, y, t));
        std::vector<std::byte> payload(v.size() * sizeof(std::uint64_t));
        std::memcpy(payload.data(), v.data(), payload.size());
        chunks.emplace_back(meta, std::move(payload));
      }
    }
  }
  return chunks;
}

std::vector<adr::Chunk> Grid::output_chunks() const {
  std::vector<adr::Chunk> chunks;
  const double w = double(nx) / out_n;
  for (int y = 0; y < out_n; ++y) {
    for (int x = 0; x < out_n; ++x) {
      adr::ChunkMeta meta;
      meta.mbr = cell(2, x, y, 0, w);
      chunks.emplace_back(meta, std::vector<std::byte>(sizeof(Partial), std::byte{0}));
    }
  }
  return chunks;
}

std::vector<std::pair<std::uint32_t, Partial>> Grid::reduce(const Box& box) const {
  const int w = nx / out_n;
  const int ox0 = box.x0 / w, ox1 = (box.x1 + w - 1) / w;
  const int oy0 = box.y0 / w, oy1 = (box.y1 + w - 1) / w;
  std::vector<std::pair<std::uint32_t, Partial>> out;
  for (int oy = oy0; oy < oy1; ++oy) {
    for (int ox = ox0; ox < ox1; ++ox) {
      out.emplace_back(static_cast<std::uint32_t>(oy * out_n + ox), Partial{});
    }
  }
  for (int t = box.t0; t < box.t1; ++t) {
    for (int y = box.y0; y < box.y1; ++y) {
      for (int x = box.x0; x < box.x1; ++x) {
        const std::size_t o = static_cast<std::size_t>((y / w - oy0) * (ox1 - ox0) + (x / w - ox0));
        out[o].second.fold(partials[index(x, y, t)]);
      }
    }
  }
  return out;
}

bool Grid::check(const Box& box, const std::vector<adr::Chunk>& outputs) const {
  const auto expected = reduce(box);
  if (outputs.size() != expected.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const adr::Chunk& c = outputs[i];
    if (c.meta().id.index != expected[i].first || c.payload().size() != sizeof(Partial)) {
      return false;
    }
    Partial got;
    std::memcpy(&got, c.payload().data(), sizeof(Partial));
    if (!(got == expected[i].second)) return false;
  }
  return true;
}

Grid make_slide(std::uint64_t seed) { return make(seed, kSlideSide, kSlideSide, 1, 1024, 16); }
Grid make_archive(std::uint64_t seed) { return make(seed, 16, 16, 256, 256, 16); }
Grid make_tile(std::uint64_t seed) { return make(seed, 16, 16, 1, 1024, 4); }

Grid make_grid(Workload w, std::uint64_t seed) {
  return w == Workload::kBrowse || w == Workload::kIngestMix ? make_slide(seed)
                                                              : make_archive(seed);
}

adr::Query Stack::query(const Box& box) const {
  adr::Query q;
  q.input_dataset = input_id;
  q.output_dataset = output_id;
  if (grid->nt == 1) {
    q.range = adr::Rect(adr::Point{double(box.x0), double(box.y0)},
                        adr::Point{double(box.x1), double(box.y1)});
  } else {
    q.range = adr::Rect(adr::Point{double(box.x0), double(box.y0), double(box.t0)},
                        adr::Point{double(box.x1), double(box.y1), double(box.t1)});
  }
  q.aggregation = "sum-count-max";
  q.delivery = adr::OutputDelivery::kReturnToClient;
  return q;
}

adr::Chunk Stack::permuted_chunk(adr::Rng& rng) const {
  const auto index = static_cast<std::uint32_t>(rng.uniform_int(0, grid->cells() - 1));
  std::vector<std::uint64_t> values = grid->values_of(index);
  rng.shuffle(values);
  std::vector<std::byte> payload(values.size() * sizeof(std::uint64_t));
  std::memcpy(payload.data(), values.data(), payload.size());
  return adr::Chunk(input_meta[index], std::move(payload));
}

Stack::~Stack() {
  // Join the service's workers (its completion hook uses done_* members)
  // and the serving loops before any member goes; the rest is
  // destroyed in reverse order, the repository last.
  if (service) service->stop();
  if (router) router->stop();
  if (server) server->stop();
}

TempDir::TempDir(const std::filesystem::path& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = (parent / "run-XXXXXX").string();
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("bench_e2e: cannot create a directory under " + parent.string());
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::filesystem::path TempDir::subdir() {
  return path_ / ("farm-" + std::to_string(next_++));
}

std::unique_ptr<Stack> build_stack(Workload w, const Grid& grid,
                                   const std::filesystem::path& dir, SetupTimes& times) {
  auto s = std::make_unique<Stack>();
  s->grid = &grid;
  s->dir = dir;
  // Pinned shape: 4 nodes x 1 disk, 4 MiB accumulator memory per node,
  // 8 MiB chunk cache per node (32 MiB in all), marginal cache at its
  // 32 MiB default, payloads in files under `dir`.
  s->config.backend = adr::RepositoryConfig::Backend::kThreads;
  s->config.num_nodes = 4;
  s->config.disks_per_node = 1;
  s->config.memory_per_node = 4ull << 20;
  s->config.chunk_cache_bytes_per_node = 8ull << 20;
  s->config.storage_dir = dir;

  // Data generation is the bench's own work; only loading is timed.
  std::vector<adr::Chunk> inputs = grid.input_chunks();
  std::vector<adr::Chunk> outputs = grid.output_chunks();

  const auto t0 = Clock::now();
  s->repo = std::make_unique<adr::Repository>(s->config);
  const auto load0 = Clock::now();
  s->input_id = s->repo->create_dataset("input", grid.domain(), std::move(inputs));
  times.load_s = seconds_between(load0, Clock::now());
  s->output_id = s->repo->create_dataset("output", grid.out_domain(), std::move(outputs));

  const adr::RuntimeConfig runtime;
  s->server = std::make_unique<adr::net::AdrServer>(*s->repo, 0, adr::ComputeCosts{}, runtime);
  s->server->start();
  adr::net::RouterConfig rc;
  rc.backend_ports = {s->server->port()};
  s->router = std::make_unique<adr::net::AdrRouter>(rc, 0);
  s->router->start();
  if (w == Workload::kBurst) {
    // The deployed configuration: as many workers as the server runs,
    // gangs formed by whichever worker wakes first.
    s->service = std::make_unique<adr::QuerySubmissionService>(*s->repo, runtime);
    Stack* raw = s.get();
    s->service->set_completion_callback([raw](std::uint64_t ticket) {
      const auto now = Clock::now();
      {
        std::lock_guard lock(raw->done_mutex);
        raw->done_at[ticket] = now;
      }
      raw->done_cv.notify_all();
    });
    s->service->start(static_cast<int>(runtime.scheduler_workers));
  }
  times.setup_s = seconds_between(t0, Clock::now());
  s->input_meta = s->repo->dataset(s->input_id).chunks();
  return s;
}

// ---- query sequences ----

namespace {
constexpr int kMaxWindow = 32;  // scan windows span 1..32 time steps
}  // namespace

Walk::Walk(std::uint64_t seed, int connection)
    : rng_(adr::mix_seed(seed, 0x77616c6bull + static_cast<std::uint64_t>(connection))) {
  x_ = static_cast<int>(rng_.uniform_int(0, kSlideSide - kViewport));
  y_ = static_cast<int>(rng_.uniform_int(0, kSlideSide - kViewport));
}

Box Walk::next() {
  Box b{x_, x_ + kViewport, y_, y_ + kViewport, 0, 1};
  // Pan one cell (1/64 of the slide) in one of four directions,
  // reflecting at the edges.
  const int dir = static_cast<int>(rng_.uniform_int(0, 3));
  int& axis = dir < 2 ? x_ : y_;
  int step = dir % 2 == 0 ? 1 : -1;
  if (axis + step < 0 || axis + step > kSlideSide - kViewport) step = -step;
  axis += step;
  return b;
}

std::vector<Box> scan_windows(std::uint64_t seed) {
  adr::Rng rng(adr::mix_seed(seed, 0x7363616eull));
  // Per length, its possible start steps in a seeded order: drawing
  // without replacement keeps every window distinct, so the marginal
  // cache never serves one.  Lengths come in pairs (L, 33 - L) and every
  // round uses each pair once, so any two consecutive queries span 33
  // steps: a measured segment does the same work whatever its length,
  // and its median sits between the 16- and 17-step windows.
  std::vector<std::vector<int>> starts(kMaxWindow + 1);
  for (int len = 1; len <= kMaxWindow; ++len) {
    starts[len].resize(static_cast<std::size_t>(256 - len + 1));
    std::iota(starts[len].begin(), starts[len].end(), 0);
    rng.shuffle(starts[len]);
  }
  std::vector<Box> out;
  std::vector<int> shorts(kMaxWindow / 2);
  std::iota(shorts.begin(), shorts.end(), 1);
  for (std::size_t round = 0; round < starts[kMaxWindow].size(); ++round) {
    rng.shuffle(shorts);
    for (int len : shorts) {
      const bool long_first = rng.chance(0.5);
      for (int l : {long_first ? kMaxWindow + 1 - len : len, long_first ? len : kMaxWindow + 1 - len}) {
        const int t0 = starts[l][round];
        out.push_back(Box{0, 16, 0, 16, t0, t0 + l});
      }
    }
  }
  return out;
}

std::vector<Burst> bursts(std::uint64_t seed) {
  adr::Rng rng(adr::mix_seed(seed, 0x62757273ull));
  // Centres drawn without replacement: no window repeats across bursts.
  std::vector<int> centres(256 - 2 * 16 + 1);
  std::iota(centres.begin(), centres.end(), 16);
  rng.shuffle(centres);
  std::vector<Burst> out;
  for (int c : centres) {
    Burst b;
    for (int k = 0; k < kBurstSize; ++k) {
      const int half = 2 * (k + 1);  // windows of 4, 8, ..., 32 steps
      b[static_cast<std::size_t>(k)] = Box{0, 16, 0, 16, c - half, c + half};
    }
    out.push_back(b);
  }
  return out;
}

std::vector<Box> replay_sequence(Workload w, std::uint64_t seed, std::size_t n) {
  std::vector<Box> out;
  switch (w) {
    case Workload::kBrowse:
    case Workload::kIngestMix: {
      // Round-robin over the connections' walks, as they interleave.
      std::vector<Walk> walks;
      const int conns = w == Workload::kBrowse ? 4 : 3;
      for (int c = 0; c < conns; ++c) walks.emplace_back(seed, c);
      while (out.size() < n) out.push_back(walks[out.size() % walks.size()].next());
      break;
    }
    case Workload::kScan: {
      out = scan_windows(seed);
      break;
    }
    case Workload::kBurst:
      for (const Burst& b : bursts(seed)) out.insert(out.end(), b.begin(), b.end());
      break;
  }
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace e2e
