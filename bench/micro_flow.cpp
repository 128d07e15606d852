// Microbenchmarks: max-flow substrate, the per-vertex wavefront cut the
// convex min-cut sweep runs for every unpruned vertex, and the free upper
// bound it prunes with (google-benchmark).
#include <benchmark/benchmark.h>

#include "graphio/flow/convex_mincut.hpp"
#include "graphio/flow/dinic.hpp"
#include "graphio/graph/builders.hpp"

namespace {

using namespace graphio;

void BM_DinicUnitBipartite(benchmark::State& state) {
  // Dense bipartite unit network: classic Dinic stress shape.
  const std::int64_t k = state.range(0);
  for (auto _ : state) {
    flow::Dinic net(2 * k + 2);
    const std::int64_t s = 2 * k;
    const std::int64_t t = 2 * k + 1;
    for (std::int64_t i = 0; i < k; ++i) {
      net.add_edge(s, i, 1);
      net.add_edge(k + i, t, 1);
      for (std::int64_t j = 0; j < k; ++j) net.add_edge(i, k + j, 1);
    }
    benchmark::DoNotOptimize(net.max_flow(s, t));
  }
}
BENCHMARK(BM_DinicUnitBipartite)->Arg(32)->Arg(128);

void BM_WavefrontSingleVertex(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const Digraph g = builders::fft(l);
  // A middle vertex — the hardest cuts sit mid-graph.
  const VertexId v = g.num_vertices() / 2;
  for (auto _ : state)
    benchmark::DoNotOptimize(flow::wavefront_mincut(g, v));
}
BENCHMARK(BM_WavefrontSingleVertex)->Arg(5)->Arg(7);

void BM_WavefrontUpperBound(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const Digraph g = builders::fft(l);
  const VertexId v = g.num_vertices() / 2;
  for (auto _ : state)
    benchmark::DoNotOptimize(flow::wavefront_cut_upper_bound(g, v));
}
BENCHMARK(BM_WavefrontUpperBound)->Arg(5)->Arg(7);

void BM_ConvexMinCutFullSweep(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const Digraph g = builders::fft(l);
  for (auto _ : state) {
    auto result = flow::convex_mincut_bound(g, 4.0);
    benchmark::DoNotOptimize(result.bound);
  }
}
BENCHMARK(BM_ConvexMinCutFullSweep)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionedMinCut(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const Digraph g = builders::fft(l);
  for (auto _ : state) {
    auto result = flow::partitioned_convex_mincut_bound(g, 4.0, 8);
    benchmark::DoNotOptimize(result.bound);
  }
}
BENCHMARK(BM_PartitionedMinCut)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMillisecond);

}  // namespace
