// Microbenchmark: query planning cost — mapping construction, the three
// strategies and declustering on the SAT emulator catalog, plus both
// planning phases (select_query_chunks, plan_query) on the shapes the
// end-to-end benchmark serves: the scan archive (16x16x256 3-D chunks
// onto 16x16 outputs, windows of 16 and 32 time steps) and the browse
// slide (64x64 chunks onto 16x16, an 8x8-chunk viewport).
//
//   ./micro_planner --benchmark_out=BENCH_planner.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "core/aggregation.hpp"
#include "core/planner/mapping.hpp"
#include "core/planner/planner.hpp"
#include "core/planner/strategy.hpp"
#include "core/planner/tiling.hpp"
#include "emulator/scenario.hpp"
#include "storage/decluster.hpp"
#include "storage/loader.hpp"

namespace {

using namespace adr;

struct PlanningFixture {
  emu::EmulatedApp app;
  std::vector<Rect> in_mbrs, out_mbrs;
  ChunkMapping mapping;
  PlannerInput input;

  explicit PlanningFixture(int chunks, int nodes) {
    app = emu::build_app(emu::paper_scenario(emu::PaperApp::kSat), chunks, 42);
    for (const Chunk& c : app.input_chunks) in_mbrs.push_back(c.meta().mbr);
    for (const Chunk& c : app.output_chunks) out_mbrs.push_back(c.meta().mbr);
    IdentityMap drop(2);
    mapping = build_mapping(in_mbrs, out_mbrs, &drop);
    input.num_nodes = nodes;
    input.memory_per_node = 32ull << 20;
    input.mapping = &mapping;
    for (std::size_t i = 0; i < in_mbrs.size(); ++i) {
      input.owner_of_input.push_back(static_cast<int>(i % static_cast<size_t>(nodes)));
      input.input_bytes.push_back(178 * 1024);
    }
    for (std::size_t o = 0; o < out_mbrs.size(); ++o) {
      input.owner_of_output.push_back(static_cast<int>(o % static_cast<size_t>(nodes)));
      input.output_bytes.push_back(100 * 1024);
      input.accum_bytes.push_back(800 * 1024);
    }
    input.output_order =
        tiling_order(out_mbrs, app.output_domain, TilingOrder::kHilbert);
  }
};

void BM_BuildMapping(benchmark::State& state) {
  std::vector<Rect> in_mbrs, out_mbrs;
  {
    const emu::EmulatedApp app = emu::build_app(emu::paper_scenario(emu::PaperApp::kSat),
                                                static_cast<int>(state.range(0)), 42);
    for (const Chunk& c : app.input_chunks) in_mbrs.push_back(c.meta().mbr);
    for (const Chunk& c : app.output_chunks) out_mbrs.push_back(c.meta().mbr);
  }
  IdentityMap drop(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_mapping(in_mbrs, out_mbrs, &drop));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildMapping)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_PlanFRA(benchmark::State& state) {
  PlanningFixture f(static_cast<int>(state.range(0)), 32);
  for (auto _ : state) benchmark::DoNotOptimize(plan_fra(f.input));
}
BENCHMARK(BM_PlanFRA)->Arg(9000);

void BM_PlanSRA(benchmark::State& state) {
  PlanningFixture f(static_cast<int>(state.range(0)), 32);
  for (auto _ : state) benchmark::DoNotOptimize(plan_sra(f.input));
}
BENCHMARK(BM_PlanSRA)->Arg(9000);

void BM_PlanDA(benchmark::State& state) {
  PlanningFixture f(static_cast<int>(state.range(0)), 32);
  for (auto _ : state) benchmark::DoNotOptimize(plan_da(f.input));
}
BENCHMARK(BM_PlanDA)->Arg(9000);

void BM_HilbertDecluster(benchmark::State& state) {
  PlanningFixture f(static_cast<int>(state.range(0)), 32);
  std::vector<ChunkMeta> metas;
  for (const Chunk& c : f.app.input_chunks) metas.push_back(c.meta());
  DeclusterOptions opts;
  opts.num_disks = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decluster(metas, f.app.input_domain, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HilbertDecluster)->Arg(9000);

// ---- both planning phases on the end-to-end shapes ----

/// Unit cells inset so neighbours never touch (intersection is closed).
Rect grid_cell(int dims, int x, int y, int t, double w) {
  const double e = 1e-9 * w;
  if (dims == 2) {
    return Rect(Point{x * w + e, y * w + e}, Point{(x + 1) * w - e, (y + 1) * w - e});
  }
  return Rect(Point{x * w + e, y * w + e, t + 1e-9},
              Point{(x + 1) * w - e, (y + 1) * w - e, t + 1 - 1e-9});
}

/// An nx x nx (x nt) input grid onto an out_n x out_n output grid, as
/// placed on 4 nodes of one disk each with 4 MiB of accumulator memory.
struct ServedShape {
  Dataset input, output;
  SumCountMaxOp op;

  ServedShape(int nx, int nt, int out_n, std::uint64_t chunk_bytes) {
    const int dims = nt == 1 ? 2 : 3;
    std::vector<ChunkMeta> in, out;
    for (int t = 0; t < nt; ++t) {
      for (int y = 0; y < nx; ++y) {
        for (int x = 0; x < nx; ++x) {
          ChunkMeta meta;
          meta.mbr = grid_cell(dims, x, y, t, 1.0);
          meta.bytes = chunk_bytes;
          in.push_back(meta);
        }
      }
    }
    const double w = static_cast<double>(nx) / out_n;
    for (int y = 0; y < out_n; ++y) {
      for (int x = 0; x < out_n; ++x) {
        ChunkMeta meta;
        meta.mbr = grid_cell(2, x, y, 0, w);
        meta.bytes = 24;
        out.push_back(meta);
      }
    }
    DeclusterOptions placement;
    placement.num_disks = 4;
    const double n = nx;
    const Rect domain = dims == 2 ? Rect(Point{0.0, 0.0}, Point{n, n})
                                  : Rect(Point{0.0, 0.0, 0.0}, Point{n, n, double(nt)});
    input = load_dataset_meta(0, "input", domain, std::move(in), placement);
    output = load_dataset_meta(1, "output", Rect(Point{0.0, 0.0}, Point{n, n}),
                               std::move(out), placement);
  }

  PlanRequest request(const Rect& range) const {
    PlanRequest req;
    req.input = &input;
    req.output = &output;
    req.range = range;
    req.op = &op;
    req.num_nodes = 4;
    req.memory_per_node = 4ull << 20;
    return req;
  }
};

const ServedShape& scan_archive() {
  static const ServedShape shape(16, 256, 16, 2048);
  return shape;
}

const ServedShape& browse_slide() {
  static const ServedShape shape(64, 1, 16, 8192);
  return shape;
}

/// Every column of the archive over `steps` time steps (16 x 16 x steps
/// selected inputs).
PlanRequest scan_request(int steps) {
  return scan_archive().request(
      Rect(Point{0.0, 0.0, 100.0}, Point{16.0, 16.0, 100.0 + steps}));
}

/// An 8x8-chunk viewport straddling 3x3 output chunks.
PlanRequest browse_request() {
  return browse_slide().request(Rect(Point{6.0, 6.0}, Point{14.0, 14.0}));
}

void select_bench(benchmark::State& state, const PlanRequest& req) {
  for (auto _ : state) benchmark::DoNotOptimize(select_query_chunks(req));
  state.counters["inputs"] =
      static_cast<double>(select_query_chunks(req).selected_inputs.size());
}

void plan_bench(benchmark::State& state, const PlanRequest& req) {
  const QuerySelection selection = select_query_chunks(req);
  for (auto _ : state) {
    state.PauseTiming();
    QuerySelection copy = selection;
    state.ResumeTiming();
    benchmark::DoNotOptimize(plan_query(req, std::move(copy)));
  }
}

void BM_SelectScan(benchmark::State& state) {
  select_bench(state, scan_request(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_SelectScan)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_PlanScan(benchmark::State& state) {
  plan_bench(state, scan_request(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_PlanScan)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_SelectBrowse(benchmark::State& state) { select_bench(state, browse_request()); }
BENCHMARK(BM_SelectBrowse)->Unit(benchmark::kMicrosecond);

void BM_PlanBrowse(benchmark::State& state) { plan_bench(state, browse_request()); }
BENCHMARK(BM_PlanBrowse)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
