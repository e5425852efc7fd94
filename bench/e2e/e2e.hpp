// bench_e2e: end-to-end workloads through client -> router -> backend.
//
// Shared declarations for the benchmark's translation units: the seeded
// data grids and their naive reference reducer (stack.cpp), the serving
// stack one workload runs against (stack.cpp), the load generators
// (workloads.cpp) and the traced per-layer replay (traced.cpp).
// README.md next to this file describes the workloads and metrics.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "core/frontend.hpp"
#include "net/router.hpp"
#include "net/server.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Workload { kBrowse, kScan, kIngestMix, kBurst };
inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::kBrowse, Workload::kScan, Workload::kIngestMix, Workload::kBurst};

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(const std::string& name);

/// A box of whole input cells, [x0,x1) x [y0,y1) x [t0,t1), in cell
/// coordinates (2-D grids use t0 = 0, t1 = 1).
struct Box {
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0, t0 = 0, t1 = 1;
};

/// The sum-count-max accumulator of a set of u64 values.
struct Partial {
  std::uint64_t sum = 0, count = 0, max = 0;

  void fold(const Partial& o) {
    sum += o.sum;
    count += o.count;
    max = std::max(max, o.max);
  }
  bool operator==(const Partial&) const = default;
};

/// A seeded input grid of unit cells (one chunk each) and the 2-D output
/// grid it is composited onto.  Chunk MBRs are the cells inset by a
/// relative epsilon, so a box with integer corners selects exactly the
/// cells it covers and each input cell maps onto exactly one output cell.
struct Grid {
  int nx = 0, ny = 0, nt = 1;
  /// u64 values per input chunk.
  int values = 0;
  /// Output cells per side; each covers (nx / out_n) x (ny / out_n)
  /// input columns.
  int out_n = 0;
  std::uint64_t seed = 0;
  /// (sum, count, max) per input chunk index: all the reference reducer
  /// knows about the data.
  std::vector<Partial> partials;

  int cells() const { return nx * ny * nt; }
  std::uint32_t index(int x, int y, int t) const {
    return static_cast<std::uint32_t>((t * ny + y) * nx + x);
  }
  /// Regenerates one chunk's values from the seed.
  std::vector<std::uint64_t> values_of(std::uint32_t index) const;
  std::vector<adr::Chunk> input_chunks() const;
  std::vector<adr::Chunk> output_chunks() const;
  adr::Rect domain() const;
  adr::Rect out_domain() const;
  std::uint64_t input_bytes() const {
    return static_cast<std::uint64_t>(cells()) * values * sizeof(std::uint64_t);
  }
  /// The paper's section-1 loop over the partials: initialize one
  /// accumulator per output cell the box touches, map every input cell
  /// in the box to its output cell, aggregate, output.  Returns
  /// (output chunk index, expected accumulator) in ascending index order.
  std::vector<std::pair<std::uint32_t, Partial>> reduce(const Box& box) const;
  /// True when `outputs` (a kReturnToClient reply) equals reduce(box).
  bool check(const Box& box, const std::vector<adr::Chunk>& outputs) const;
};

/// The virtual-microscope slide: 64x64 chunks of 8 KiB onto 16x16.
Grid make_slide(std::uint64_t seed);
/// The (lon, lat, time) archive: 16x16x256 chunks of 2 KiB onto 16x16.
Grid make_archive(std::uint64_t seed);
Grid make_grid(Workload w, std::uint64_t seed);
/// A 16x16-chunk slide (8 KiB chunks) that ingest_mix loads while it runs.
Grid make_tile(std::uint64_t seed);

/// One workload's serving stack in this process: a Repository over a
/// file-backed farm, an AdrServer in front of it, an AdrRouter fronting
/// that one backend, and (burst only) an in-process submission service.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack();

  const Grid* grid = nullptr;
  std::filesystem::path dir;
  adr::RepositoryConfig config;
  std::unique_ptr<adr::Repository> repo;
  std::unique_ptr<adr::net::AdrServer> server;
  std::unique_ptr<adr::net::AdrRouter> router;
  std::unique_ptr<adr::QuerySubmissionService> service;
  std::uint32_t input_id = 0;
  std::uint32_t output_id = 0;
  /// Placement of every input chunk, for out-of-band puts.
  std::vector<adr::ChunkMeta> input_meta;

  /// Completion times of the service's tickets, recorded by its
  /// completion hook (which may run just after take() returns).
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::unordered_map<std::uint64_t, Clock::time_point> done_at;

  adr::Query query(const Box& box) const;
  /// A random input chunk with its values shuffled: same sum, count and
  /// max, so a put of it leaves every reference answer unchanged.
  adr::Chunk permuted_chunk(adr::Rng& rng) const;
};

struct SetupTimes {
  /// Repository + loads + server and router (and service) start.
  double setup_s = 0.0;
  /// create_dataset of the input grid alone.
  double load_s = 0.0;
};

/// A uniquely named directory under `parent` (safe when several runs
/// share `parent`), removed with its contents when this goes away.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// A new subdirectory, kept until the TempDir goes.  Deleting a 128 MiB
  /// farm just before the next set-up slowed that set-up: scan set-up
  /// medians read 0.77-1.09 s over ten runs, 0.67-0.74 s over four with
  /// the deletion deferred.
  std::filesystem::path subdir();

 private:
  std::filesystem::path path_;
  int next_ = 0;
};

/// Builds a fresh stack over `dir`.
std::unique_ptr<Stack> build_stack(Workload w, const Grid& grid,
                                   const std::filesystem::path& dir, SetupTimes& times);

// ---- query sequences (pure functions of the seed) ----

inline constexpr int kSlideSide = 64;
/// A browse viewport is 1/8 x 1/8 of the slide.
inline constexpr int kViewport = kSlideSide / 8;

/// One browse viewport: an 8x8-cell window panning by one cell per step.
class Walk {
 public:
  Walk(std::uint64_t seed, int connection);
  Box next();

 private:
  adr::Rng rng_;
  int x_ = 0, y_ = 0;
};

inline constexpr int kBurstSize = 8;
using Burst = std::array<Box, kBurstSize>;

/// Distinct full-space time windows over the archive, 1..32 steps long,
/// in pairs of lengths (L, 33 - L).
std::vector<Box> scan_windows(std::uint64_t seed);
/// Bursts of overlapping time windows, each burst around a new centre.
std::vector<Burst> bursts(std::uint64_t seed);
/// The first `n` queries a workload sends, in order.
std::vector<Box> replay_sequence(Workload w, std::uint64_t seed, std::size_t n);

// ---- load generation (workloads.cpp) ----

struct RunClock {
  Clock::time_point warm_start;
  Clock::time_point measure_start;
  Clock::time_point measure_end;

  double since_measure(Clock::time_point t) const {
    return seconds_between(measure_start, t);
  }
};

struct Sample {
  /// When the request was due, and when its reply arrived, in seconds
  /// since the measured window opened (negative during warm-up).
  double due_s = 0.0;
  double done_s = 0.0;
  bool ok = false;

  double latency_s() const { return done_s - due_s; }
};

struct LoadResult {
  std::vector<Sample> samples;
  /// ingest_mix: latency of each put due in the measured window.
  std::vector<double> put_s;
  /// Worst open-loop send lateness in the measured window.
  double max_late_s = 0.0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Drives workload `w` against `stack` with at most four generator
/// threads, checking every reply: an untimed warm-up of `warmup_s` (for
/// browse, after a fill of every viewport), then `measure_s` measured.
/// `monitor` runs on the calling thread while the generators do (it
/// reads counters as the measured window opens and closes).
LoadResult run_load(Workload w, Stack& stack, std::uint64_t seed, double warmup_s,
                    double measure_s, const std::function<void(const RunClock&)>& monitor);

// ---- results ----

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Samples behind the value.
  std::uint64_t n = 0;
  /// The same statistic per segment, for inspection.
  std::vector<double> segments;
  /// False when fewer than ten samples lie beyond the quantile.
  bool supported = true;
};

struct WorkloadResult {
  Workload workload = Workload::kBrowse;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;
  std::string mismatch;
};

/// Exact quantile of raw samples (linear interpolation between order
/// statistics); `v` is sorted in place.  0 for an empty set.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

struct TracedOptions {
  std::uint64_t seed = 1;
  int seconds = 10;
  std::filesystem::path workdir;
  /// Where the Chrome trace and the per-layer table are written.
  std::filesystem::path artifacts;
};

/// The --trace 1 run: a measured load window for the counters, then a
/// one-at-a-time replay along successively shorter paths for timings.
WorkloadResult run_traced(Workload w, const TracedOptions& options);

}  // namespace e2e
