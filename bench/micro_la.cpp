// Microbenchmarks: linear-algebra substrate (google-benchmark).
//
// These track the primitives the spectral bound's runtime is made of:
// sparse matvec; the dense tier (values only, full eigenpairs, and the
// Householder reduction alone); tridiagonal QL; Sturm bisection; the
// iterative tiers (block Lanczos, LOBPCG); and the Jacobi cross-check.
// Dense sizes cover the Rayleigh–Ritz and Gram solves (n = 100–256) and
// the largest dense-tier components (n = 448–512). BM_StreamPatchSolve
// times the warm tier's crossover end to end: one patch-and-solve on a
// one-component stream session with eigenbasis retention on and off.
// Run one thread: OMP_NUM_THREADS=1 ./bench_micro_la.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "graphio/engine/engine.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/bisection.hpp"
#include "graphio/la/householder.hpp"
#include "graphio/la/jacobi.hpp"
#include "graphio/la/lanczos.hpp"
#include "graphio/la/lobpcg.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/la/vector_ops.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/support/prng.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace {

using namespace graphio;

void BM_CsrMatvec(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const auto lap =
      laplacian(builders::fft(l), LaplacianKind::kOutDegreeNormalized);
  std::vector<double> x(static_cast<std::size_t>(lap.size()), 1.0);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    lap.matvec(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * lap.nonzeros());
}
BENCHMARK(BM_CsrMatvec)->Arg(6)->Arg(8)->Arg(10);

void BM_DenseEigenvalues(benchmark::State& state) {
  const auto n = state.range(0);
  const Digraph g = builders::erdos_renyi_dag(n, 8.0 / static_cast<double>(n),
                                              1234);
  const la::DenseMatrix lap = dense_laplacian(g, LaplacianKind::kPlain);
  for (auto _ : state) {
    auto values = la::symmetric_eigenvalues(lap);
    benchmark::DoNotOptimize(values.data());
  }
}
BENCHMARK(BM_DenseEigenvalues)->Arg(128)->Arg(256)->Arg(448)->Arg(512);

void BM_SymmetricEigen(benchmark::State& state) {
  const auto n = state.range(0);
  const Digraph g = builders::erdos_renyi_dag(n, 8.0 / static_cast<double>(n),
                                              1234);
  const la::DenseMatrix lap = dense_laplacian(g, LaplacianKind::kPlain);
  for (auto _ : state) {
    auto eig = la::symmetric_eigen(lap);
    benchmark::DoNotOptimize(eig.vectors.data().data());
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(100)->Arg(128)->Arg(200)->Arg(256);

void BM_TridiagonalQl(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::SymTridiag t;
  t.diag.assign(n, 2.0);
  t.off.assign(n - 1, -1.0);
  for (auto _ : state) {
    auto values = la::tridiagonal_eigenvalues(t);
    benchmark::DoNotOptimize(values.data());
  }
}
BENCHMARK(BM_TridiagonalQl)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SturmBisectionSmallest16(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::SymTridiag t;
  t.diag.assign(n, 2.0);
  t.off.assign(n - 1, -1.0);
  for (auto _ : state) {
    auto values = la::bisection_smallest(t, 16);
    benchmark::DoNotOptimize(values.data());
  }
}
BENCHMARK(BM_SturmBisectionSmallest16)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_LanczosSmallest16(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const auto lap =
      laplacian(builders::bhk_hypercube(l), LaplacianKind::kOutDegreeNormalized);
  la::LanczosOptions opts;
  opts.rel_tol = 1e-6;
  for (auto _ : state) {
    auto result = la::smallest_eigenvalues(lap, 16, opts);
    benchmark::DoNotOptimize(result.values.data());
  }
}
BENCHMARK(BM_LanczosSmallest16)->Arg(9)->Arg(11)->Unit(benchmark::kMillisecond);

void BM_LobpcgSmallest16(benchmark::State& state) {
  // Same problem as BM_LanczosSmallest16 for a direct backend comparison.
  const int l = static_cast<int>(state.range(0));
  const auto lap =
      laplacian(builders::bhk_hypercube(l), LaplacianKind::kOutDegreeNormalized);
  la::LobpcgOptions opts;
  opts.rel_tol = 1e-6;
  opts.dense_fallback = 0;
  for (auto _ : state) {
    auto result = la::lobpcg_smallest(lap, 16, opts);
    benchmark::DoNotOptimize(result.values.data());
  }
}
BENCHMARK(BM_LobpcgSmallest16)->Arg(9)->Arg(11)->Unit(benchmark::kMillisecond);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(7);
  la::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      std::vector<double> x(1);
      la::fill_normal(x, rng);
      a(i, j) = a(j, i) = x[0];
    }
  for (auto _ : state) {
    auto result = la::jacobi_eigenvalues(a);
    benchmark::DoNotOptimize(result.data());
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(64)->Arg(128);

void BM_HouseholderTridiagonalize(benchmark::State& state) {
  const auto n = state.range(0);
  const Digraph g = builders::erdos_renyi_dag(n, 8.0 / static_cast<double>(n),
                                              99);
  const la::DenseMatrix lap = dense_laplacian(g, LaplacianKind::kPlain);
  for (auto _ : state) {
    la::DenseMatrix scratch = lap;
    auto t = la::householder_tridiagonalize(scratch, false);
    benchmark::DoNotOptimize(t.diag.data());
  }
}
BENCHMARK(BM_HouseholderTridiagonalize)->Arg(256)->Arg(512);

/// One patch-and-solve on a stream session holding a single connected
/// Erdős–Rényi component of n vertices (mean degree 9), queried for the
/// h smallest eigenvalues; the third argument turns the session's
/// eigenbasis budget on (1) or off (0). Each iteration toggles one edge,
/// so the component alternates between two contents and every query
/// solves it again: with the budget off that is a cold dense solve, with
/// it on the warm tier wherever choose_solver takes it (n > 3h). The
/// warm_hits counter is per iteration.
void BM_StreamPatchSolve(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int h = static_cast<int>(state.range(1));
  const bool retain = state.range(2) != 0;
  const Digraph g =
      builders::erdos_renyi_dag(n, 9.0 / static_cast<double>(n), 1);
  // A forward edge the graph lacks: toggling it keeps the DAG acyclic.
  VertexId toggle_to = 1;
  while (std::ranges::find(g.children(0), toggle_to) != g.children(0).end())
    ++toggle_to;

  auto artifacts = std::make_shared<store::ArtifactStore>();
  if (retain) artifacts->set_eigenbasis_budget(std::int64_t{64} << 20);
  stream::StreamSession session("micro-patch", artifacts);
  session.load(g);
  engine::BoundRequest request;
  request.memories = {4.0, 16.0};
  request.methods = {"spectral"};
  request.spectral.max_eigenvalues = h;
  session.evaluate(request);  // the first solve retains the basis

  telemetry::Counter& warm_hits =
      telemetry::MetricsRegistry::global().counter("solver.warm_hits");
  const std::int64_t hits_before = warm_hits.value();
  bool present = false;
  for (auto _ : state) {
    stream::Patch patch;
    patch.mutations.push_back(
        present ? stream::Mutation::remove_edge(0, toggle_to)
                : stream::Mutation::add_edge(0, toggle_to));
    present = !present;
    session.apply(patch);
    const engine::BoundReport report = session.evaluate(request);
    benchmark::DoNotOptimize(report.rows.data());
  }
  state.counters["warm_hits"] = benchmark::Counter(
      static_cast<double>(warm_hits.value() - hits_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_StreamPatchSolve)
    ->ArgNames({"n", "h", "retain"})
    ->Args({200, 32, 0})
    ->Args({200, 32, 1})
    ->Args({200, 100, 0})
    ->Args({200, 100, 1})
    ->Args({450, 32, 0})
    ->Args({450, 32, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
