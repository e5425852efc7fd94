// Microbenchmark: R-tree bulk load and range query.
#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "storage/rtree.hpp"

namespace {

using adr::Point;
using adr::Rect;
using adr::Rng;
using adr::RTree;

std::vector<Rect> make_rects(int n) {
  Rng rng(42);
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 1000.0);
    const double y = rng.uniform(0.0, 1000.0);
    rects.emplace_back(Point{x, y}, Point{x + 5.0, y + 5.0});
  }
  return rects;
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto rects = make_rects(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    RTree tree;
    tree.bulk_load(rects);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeQuery(benchmark::State& state) {
  const auto rects = make_rects(static_cast<int>(state.range(0)));
  RTree tree;
  tree.bulk_load(rects);
  Rng rng(7);
  for (auto _ : state) {
    const double x = rng.uniform(0.0, 900.0);
    const double y = rng.uniform(0.0, 900.0);
    const Rect q(Point{x, y}, Point{x + 50.0, y + 50.0});
    benchmark::DoNotOptimize(tree.query(q));
  }
}
BENCHMARK(BM_RTreeQuery)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
