#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/lobpcg.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio {
namespace {

// Forces the iterative path (the solver hands tiny problems to the dense
// solver by default, which would make these tests vacuous).
la::LobpcgOptions iterative() {
  la::LobpcgOptions opts;
  opts.dense_fallback = 0;
  return opts;
}

void expect_matches_dense(const Digraph& g, LaplacianKind kind, int want,
                          double tol = 1e-6) {
  const la::CsrMatrix lap = laplacian(g, kind);
  const la::LobpcgResult res = la::lobpcg_smallest(lap, want, iterative());
  ASSERT_TRUE(res.converged) << "n=" << lap.size() << " want=" << want;
  ASSERT_EQ(res.values.size(), static_cast<std::size_t>(want));
  std::vector<double> dense = la::symmetric_eigenvalues(lap.to_dense());
  for (int i = 0; i < want; ++i)
    EXPECT_NEAR(res.values[static_cast<std::size_t>(i)],
                dense[static_cast<std::size_t>(i)], tol)
        << "eigenvalue index " << i;
}

TEST(Lobpcg, PathLaplacianMatchesDense) {
  expect_matches_dense(builders::path(400), LaplacianKind::kPlain, 8);
}

TEST(Lobpcg, ButterflyNormalizedLaplacianMatchesDense) {
  expect_matches_dense(builders::fft(6), LaplacianKind::kOutDegreeNormalized,
                       12);
}

TEST(Lobpcg, HypercubeRecoversMultiplicities) {
  // Q_9 Laplacian spectrum: eigenvalue 2i with multiplicity C(9, i); the
  // first ten values are {0, 2×9}. Multiplicity recovery is the classic
  // LOBPCG failure mode that hard locking plus random refills must handle.
  const Digraph g = builders::bhk_hypercube(9);
  const la::CsrMatrix lap = laplacian(g, LaplacianKind::kPlain);
  const la::LobpcgResult res = la::lobpcg_smallest(lap, 10, iterative());
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.values[0], 0.0, 1e-7);
  for (std::size_t i = 1; i < 10; ++i)
    EXPECT_NEAR(res.values[i], 2.0, 1e-6) << "index " << i;
}

TEST(Lobpcg, ResidualsCertifyTheValues) {
  const Digraph g = builders::erdos_renyi_dag(600, 0.02, 7);
  const la::CsrMatrix lap = laplacian(g, LaplacianKind::kOutDegreeNormalized);
  const la::LobpcgResult res = la::lobpcg_smallest(lap, 6, iterative());
  ASSERT_TRUE(res.converged);
  const std::vector<double> dense = la::symmetric_eigenvalues(lap.to_dense());
  for (std::size_t i = 0; i < res.values.size(); ++i) {
    // |θ − λ| ≤ ‖r‖ for some true eigenvalue λ; with ascending-prefix
    // locking the matched eigenvalue is the i-th.
    EXPECT_LE(std::abs(res.values[i] - dense[i]), res.residuals[i] + 1e-9);
  }
}

TEST(Lobpcg, DenseFallbackOnTinyProblems) {
  const Digraph g = builders::fft(3);
  const la::CsrMatrix lap = laplacian(g, LaplacianKind::kPlain);
  la::LobpcgOptions opts;  // default fallback threshold of 320 covers n=32
  const la::LobpcgResult res = la::lobpcg_smallest(lap, 5, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.matvecs, 0);  // dense path does no sparse matvecs
  EXPECT_EQ(res.values.size(), 5u);
}

TEST(Lobpcg, WarmStartFromConvergedVectorsTakesFewerIterations) {
  // fft:6's L̃ has n = 448, above the default 320-vertex dense fallback,
  // so every solve below iterates. Seeding X with the cold solve's own
  // eigenvectors (what a retained eigenbasis hands a patched successor)
  // must converge sooner to the same values.
  const la::CsrMatrix lap =
      laplacian(builders::fft(6), LaplacianKind::kOutDegreeNormalized);
  ASSERT_EQ(lap.size(), 448);
  constexpr int kWant = 6;
  la::LobpcgOptions cold_opts;
  cold_opts.return_vectors = true;
  const la::LobpcgResult cold = la::lobpcg_smallest(lap, kWant, cold_opts);
  ASSERT_TRUE(cold.converged);
  ASSERT_EQ(cold.vectors.size(), static_cast<std::size_t>(kWant));

  la::LobpcgOptions warm_opts;
  warm_opts.warm_start = cold.vectors;
  const la::LobpcgResult warm = la::lobpcg_smallest(lap, kWant, warm_opts);
  ASSERT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
  // Each value is within its residual (<= tol) of the same eigenvalue.
  const double tol = cold_opts.rel_tol * lap.gershgorin_upper_bound();
  ASSERT_EQ(warm.values.size(), cold.values.size());
  for (std::size_t i = 0; i < warm.values.size(); ++i)
    EXPECT_NEAR(warm.values[i], cold.values[i], 2.0 * tol) << "index " << i;

  // Wrong-length columns are ignored: the block is random-filled exactly
  // as a cold start's, so the solve repeats the cold one.
  la::LobpcgOptions misfit_opts;
  misfit_opts.warm_start.assign(
      kWant, std::vector<double>(static_cast<std::size_t>(lap.size() - 1),
                                 1.0));
  const la::LobpcgResult misfit =
      la::lobpcg_smallest(lap, kWant, misfit_opts);
  EXPECT_EQ(misfit.iterations, cold.iterations);
  EXPECT_EQ(misfit.values, cold.values);
}

TEST(Lobpcg, WantZeroAndWantClampedToN) {
  const la::CsrMatrix lap =
      laplacian(builders::path(5), LaplacianKind::kPlain);
  const la::LobpcgResult none = la::lobpcg_smallest(lap, 0);
  EXPECT_TRUE(none.converged);
  EXPECT_TRUE(none.values.empty());
  const la::LobpcgResult all = la::lobpcg_smallest(lap, 99);
  EXPECT_EQ(all.values.size(), 5u);
}

TEST(Lobpcg, ValuesAscendAndAreNonNegativeOnPsdLaplacians) {
  const Digraph g = builders::stencil1d(40, 12);
  const la::CsrMatrix lap = laplacian(g, LaplacianKind::kOutDegreeNormalized);
  const la::LobpcgResult res = la::lobpcg_smallest(lap, 8, iterative());
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(std::is_sorted(res.values.begin(), res.values.end()));
  for (double v : res.values) EXPECT_GE(v, -1e-8);
}

TEST(Lobpcg, RejectsBadOptions) {
  const la::CsrMatrix lap =
      laplacian(builders::path(4), LaplacianKind::kPlain);
  la::LobpcgOptions opts;
  opts.max_iterations = 0;
  EXPECT_THROW(la::lobpcg_smallest(lap, 2, opts), contract_error);
  opts = {};
  opts.rel_tol = 0.0;
  EXPECT_THROW(la::lobpcg_smallest(lap, 2, opts), contract_error);
  EXPECT_THROW(la::lobpcg_smallest(lap, -1), contract_error);
}

TEST(LobpcgBackend, SpectralBoundAgreesWithDenseBackend) {
  const Digraph g = builders::fft(7);  // 1024 vertices
  SpectralOptions dense;
  dense.solver = la::SolverKind::kDense;
  dense.max_eigenvalues = 12;
  SpectralOptions lobpcg;
  lobpcg.solver = la::SolverKind::kLobpcg;
  lobpcg.max_eigenvalues = 12;
  const SpectralBound a = spectral_bound(g, 4.0, dense);
  const SpectralBound b = spectral_bound(g, 4.0, lobpcg);
  // The sparse bound uses certified lower estimates, so it can only sit
  // at or slightly below the dense bound.
  EXPECT_LE(b.bound, a.bound + 1e-6);
  EXPECT_GT(b.bound, 0.95 * a.bound);
}

class LobpcgFamilySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LobpcgFamilySweep, MatchesDenseAcrossFamiliesAndWants) {
  const auto [family, want] = GetParam();
  Digraph g;
  switch (family) {
    case 0: g = builders::fft(5); break;
    case 1: g = builders::bhk_hypercube(8); break;
    case 2: g = builders::naive_matmul(5); break;
    default: g = builders::erdos_renyi_dag(500, 0.015, 3); break;
  }
  expect_matches_dense(g, LaplacianKind::kOutDegreeNormalized, want, 1e-5);
}

std::string sweep_name(const ::testing::TestParamInfo<std::tuple<int, int>>& p) {
  static constexpr const char* kNames[] = {"fft", "bhk", "matmul", "er"};
  return std::string(kNames[std::get<0>(p.param)]) + "_want" +
         std::to_string(std::get<1>(p.param));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LobpcgFamilySweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(4, 12)),
                         sweep_name);

}  // namespace
}  // namespace graphio
